"""Terminal renderers on empty/zero-activity stats."""

from repro.analysis import render_preprocessing


class TestEmptyStatsRenderers:
    def test_render_preprocessing_zero_runs(self):
        from repro.core.engine import PlanStats

        out = render_preprocessing(PlanStats())
        assert "preprocessing" in out
