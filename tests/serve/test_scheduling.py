"""Scheduler integration with the executor: submit_many contracts, the
launch-time deadline recheck, EDF promotion, and stats/trace folding."""

import time

import numpy as np
import pytest

from repro.obs import Tracer
from repro.sched import AdmissionController, CostModel, Scheduler, ThrottledError
from repro.serve import BatchExecutor, SpmmRequest, SubmitReport
from tests.conftest import panel as _panel


def _reference(reg, name, b):
    return reg.matrix(name).astype(np.float32) @ b.astype(np.float32)


def _limited_scheduler(burst=2.0):
    adm = AdmissionController().configure(
        "bg", priority="best_effort", rate_per_s=1.0, burst=burst
    )
    return Scheduler(admission=adm)


class TestSubmitManyPartial:
    def test_bad_request_becomes_hole_rest_served(self, registry, rng):
        with BatchExecutor(registry, max_batch=8) as ex:
            reqs = [
                SpmmRequest("w0", _panel(rng)),
                SpmmRequest("w0", np.zeros((3, 3), np.float16)),  # bad rows
                SpmmRequest("w0", _panel(rng)),
            ]
            report = ex.submit_many(reqs, on_error="partial")
            ex.flush()
            results = [f.result(timeout=30) for f in report.accepted_futures()]
        assert isinstance(report, SubmitReport)
        assert report.futures[1] is None
        assert report.accepted == 2 and report.rejected == 1 and not report.ok
        (index, error), = report.errors
        assert index == 1 and isinstance(error, ValueError)
        for res, req in zip(results, [reqs[0], reqs[2]]):
            np.testing.assert_allclose(
                res.c, _reference(registry, "w0", req.b), rtol=1e-3, atol=1e-2
            )

    def test_throttled_requests_recorded_with_typed_error(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=64, scheduler=_limited_scheduler(burst=2)
        ) as ex:
            reqs = [SpmmRequest("w0", _panel(rng), tenant="bg") for _ in range(5)]
            report = ex.submit_many(reqs, on_error="partial")
            ex.flush()
            for f in report.accepted_futures():
                f.result(timeout=30)
            stats = ex.stats()
        assert report.accepted == 2 and report.rejected == 3
        assert all(isinstance(e, ThrottledError) for _, e in report.errors)
        assert all(e.retry_after_s > 0 for _, e in report.errors)
        # Typed throttles are folded into the aggregated ServeStats.
        assert stats.throttled == 3
        assert stats.throttled_by_tenant == {"bg": 3}
        assert stats.tenant_counts == {"bg": 2}

    def test_all_good_report_is_ok(self, registry, rng):
        with BatchExecutor(registry, max_batch=8) as ex:
            report = ex.submit_many(
                [SpmmRequest("w0", _panel(rng)) for _ in range(3)],
                on_error="partial",
            )
            ex.flush()
            [f.result(timeout=30) for f in report.futures]
        assert report.ok and report.accepted == 3 and report.errors == []

    def test_invalid_mode_rejected(self, registry):
        with BatchExecutor(registry) as ex:
            with pytest.raises(ValueError, match="on_error"):
                ex.submit_many([], on_error="retry")


class TestSubmitManyCancel:
    def test_mid_list_failure_cancels_and_raises(self, registry, rng):
        with BatchExecutor(registry, max_batch=64) as ex:
            reqs = [
                SpmmRequest("w0", _panel(rng)),
                SpmmRequest("w0", np.zeros((3, 3), np.float16)),
            ]
            with pytest.raises(ValueError, match="rows"):
                ex.submit_many(reqs, on_error="cancel")
            deadline = time.perf_counter() + 30
            while ex.pending and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert ex.pending == 0

    def test_throttle_mid_burst_cancels_earlier_futures(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=64, scheduler=_limited_scheduler(burst=2)
        ) as ex:
            reqs = [SpmmRequest("w0", _panel(rng), tenant="bg") for _ in range(4)]
            with pytest.raises(ThrottledError):
                ex.submit_many(reqs, on_error="cancel")
            deadline = time.perf_counter() + 30
            while ex.pending and time.perf_counter() < deadline:
                time.sleep(0.005)
            assert ex.pending == 0


class TestLaunchDeadlineRecheck:
    def test_slow_plan_admission_sheds_to_dense_at_launch(self, registry, rng):
        # The request clears the formation-time check instantly (run()
        # flushes with ~zero queue wait), then plan admission eats the
        # rest of the deadline budget: the pre-launch recheck must shed
        # it to the dense fallback rather than let it ride the fast path
        # past its deadline.
        orig_get = registry.get

        def slow_get(name):
            time.sleep(0.15)
            return orig_get(name)

        registry.get = slow_get
        b = _panel(rng)
        with BatchExecutor(registry, max_batch=8) as ex:
            res = ex.run([SpmmRequest("w0", b, deadline_s=0.05)])[0]
        assert res.stats.route == "dense"
        assert res.stats.deadline_expired
        np.testing.assert_allclose(
            res.c, _reference(registry, "w0", b), rtol=1e-3, atol=1e-2
        )

    def test_fast_admission_within_deadline_keeps_fast_path(self, registry, rng):
        registry.warm()
        with BatchExecutor(registry, max_batch=8) as ex:
            res = ex.run([SpmmRequest("w0", _panel(rng), deadline_s=30.0)])[0]
        assert res.stats.route == "jigsaw"
        assert not res.stats.deadline_expired


class TestEdfPromotion:
    def test_deadline_request_promoted_ahead_of_linger(self, registry, rng):
        # Linger window far beyond the deadline: FIFO would discover the
        # request expired at dequeue; EDF must promote the group early
        # enough to launch within the deadline.
        registry.warm()
        with BatchExecutor(
            registry,
            max_batch=64,
            batch_window_s=30.0,
            scheduler=Scheduler(promote_margin_s=0.05),
        ) as ex:
            t0 = time.perf_counter()
            fut = ex.spmm("w0", _panel(rng), deadline_s=0.4)
            res = fut.result(timeout=10)
            elapsed = time.perf_counter() - t0
            stats = ex.stats()
        assert res.stats.route == "jigsaw"
        assert not res.stats.deadline_expired
        assert elapsed < 5.0  # promoted, not lingered for 30s
        assert stats.promoted == 1

    def test_without_scheduler_deadline_expires_at_formation(self, registry, rng):
        # Same layout, no scheduler: the linger window outlives the
        # deadline, the formation-time check routes to dense.
        registry.warm()
        with BatchExecutor(registry, max_batch=64, batch_window_s=0.3) as ex:
            fut = ex.spmm("w0", _panel(rng), deadline_s=0.05)
            res = fut.result(timeout=10)
        assert res.stats.route == "dense"
        assert res.stats.deadline_expired


class TestCostModelIntegration:
    def test_kernel_timings_feed_the_model(self, registry, rng):
        sched = Scheduler(cost_model=CostModel())
        with BatchExecutor(registry, max_batch=8, scheduler=sched) as ex:
            ex.run([SpmmRequest("w0", _panel(rng)) for _ in range(4)])
        assert sched.cost_model.samples("w0", "jigsaw") == 1
        snap = sched.cost_model.snapshot()
        assert snap["w0"]["jigsaw"] > 0

    def test_dense_fallback_also_feeds_the_model(self, registry, rng):
        sched = Scheduler(cost_model=CostModel())
        with BatchExecutor(registry, max_batch=8, scheduler=sched) as ex:
            ex.run([SpmmRequest("w0", _panel(rng), deadline_s=0.0)])
        assert sched.cost_model.samples("w0", "dense") == 1


class TestSchedulerStatsAndRendering:
    def test_flush_orders_groups_by_priority(self, registry, rng):
        adm = (
            AdmissionController()
            .configure("ui", priority="interactive")
            .configure("bg", priority="best_effort")
        )
        with BatchExecutor(
            registry,
            max_batch=64,
            batch_window_s=60.0,
            max_workers=1,
            scheduler=Scheduler(admission=adm),
        ) as ex:
            futures = [ex.submit(SpmmRequest("w1", _panel(rng), tenant="bg"))]
            futures.append(ex.submit(SpmmRequest("w0", _panel(rng), tenant="ui")))
            ex.flush()
            for f in futures:
                f.result(timeout=30)
            batches = ex.batch_stats()
        assert [b.matrix for b in batches] == ["w0", "w1"]
        assert [b.weight for b in batches] == [0, 2]

    def test_render_serving_shows_scheduler_rows(self, registry, rng):
        from repro.analysis import render_serving

        with BatchExecutor(
            registry, max_batch=64, scheduler=_limited_scheduler(burst=1)
        ) as ex:
            report = ex.submit_many(
                [SpmmRequest("w0", _panel(rng), tenant="bg") for _ in range(2)],
                on_error="partial",
            )
            ex.flush()
            for f in report.accepted_futures():
                f.result(timeout=30)
            out = render_serving(ex.stats())
        assert "throttled (rate limit)" in out
        assert "promoted (EDF)" in out
        assert "tenant: bg" in out
        assert "1 served / 1 throttled" in out


class TestSchedTracing:
    def test_admit_spans_record_both_outcomes(self, registry, rng, metrics):
        tracer = Tracer()
        with BatchExecutor(
            registry,
            max_batch=64,
            tracer=tracer,
            scheduler=_limited_scheduler(burst=1),
        ) as ex:
            fut = ex.submit(SpmmRequest("w0", _panel(rng), tenant="bg"))
            with pytest.raises(ThrottledError):
                ex.submit(SpmmRequest("w0", _panel(rng), tenant="bg"))
            ex.flush()
            fut.result(timeout=30)
        admits = [
            s for s in tracer.buffer.snapshot() if s.name == "sched.admit"
        ]
        outcomes = sorted(s.attrs["outcome"] for s in admits)
        assert outcomes == ["ok", "throttled"]
        assert all(s.attrs["tenant"] == "bg" for s in admits)
        assert metrics.get("repro_sched_throttled_total").value(tenant="bg") == 1

    def test_promotion_event_and_slack_histogram(self, registry, rng, metrics):
        registry.warm()
        tracer = Tracer()
        with BatchExecutor(
            registry,
            max_batch=64,
            batch_window_s=30.0,
            tracer=tracer,
            scheduler=Scheduler(promote_margin_s=0.05),
        ) as ex:
            ex.spmm("w0", _panel(rng), deadline_s=0.4).result(timeout=10)
        roots = [
            s for s in tracer.buffer.snapshot() if s.name == "serve.request"
        ]
        events = [e for s in roots for e in s.events if e.name == "sched.promote"]
        assert len(events) == 1
        assert events[0].attrs["slack_s"] > 0
        hist = metrics.get("repro_sched_slack_seconds")
        assert hist is not None and hist.count() == 1
        assert metrics.get("repro_sched_promoted_total").value() == 1
