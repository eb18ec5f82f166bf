"""Terminal renderers on empty/zero-activity stats."""

from repro.analysis import render_preprocessing, render_serving, serving_rows
from repro.serve.stats import ServeStats


class TestEmptyStatsRenderers:
    def test_render_serving_zero_activity(self):
        out = render_serving(ServeStats())
        assert "requests" in out
        assert "0.00" in out  # avg batch size renders, no ZeroDivisionError
        rows = dict(
            (r[0], r[1]) for r in serving_rows(ServeStats()) if len(r) == 2
        )
        assert rows["requests"] == "0"
        assert rows["kernel time: jigsaw"] == "0.00 us"
        assert rows["request registry hit/miss"] == "0/0"

    def test_render_serving_collected_from_nothing(self):
        stats = ServeStats.collect([], [])
        out = render_serving(stats)
        assert "avg queue wait" in out
        assert stats.avg_queue_wait_s == 0.0

    def test_render_preprocessing_zero_runs(self):
        from repro.core.engine import PlanStats

        out = render_preprocessing(PlanStats())
        assert "preprocessing" in out
