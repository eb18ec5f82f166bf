"""Chaos drills for the SLO scheduler: injected kernel faults must never
invert priorities, and breakers must keep steering routing even when the
cost model's learned estimate points at a faulting route."""

import os

import numpy as np

from repro.faults import OPEN, BreakerBoard, FaultPlan, RetryPolicy
from repro.sched import AdmissionController, CostModel, Scheduler, ThrottledError
from repro.serve import BatchExecutor, SpmmRequest

#: CI's chaos job sweeps this seed; every test must hold for any value.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _panel(rng, k=128, n=8):
    return rng.standard_normal((k, n)).astype(np.float16)


def _reference(reg, name, b):
    return reg.matrix(name).astype(np.float32) @ b.astype(np.float32)


def _two_class_scheduler(**kw):
    adm = (
        AdmissionController()
        .configure("ui", priority="interactive")
        .configure("bg", priority="best_effort", **kw)
    )
    return Scheduler(admission=adm, cost_model=CostModel())


class TestNoPriorityInversion:
    def test_interactive_group_launches_before_best_effort_under_faults(
        self, registry, rng
    ):
        # Best-effort traffic is submitted FIRST, so FIFO flush order
        # would run it first; the scheduler must dispatch the interactive
        # group ahead of it even while kernel faults force retries and
        # fallback hops.  One pool worker => batch_stats order is
        # execution order.
        fp = FaultPlan(seed=CHAOS_SEED).add(
            "executor.kernel.jigsaw", probability=0.3
        )
        with BatchExecutor(
            registry,
            max_batch=64,
            batch_window_s=60.0,
            max_workers=1,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=1e-5),
            sleep=lambda s: None,
            fault_plan=fp,
            scheduler=_two_class_scheduler(),
        ) as ex:
            futures = [
                ex.submit(SpmmRequest("w1", _panel(rng), tenant="bg"))
                for _ in range(4)
            ]
            futures += [
                ex.submit(SpmmRequest("w0", _panel(rng), tenant="ui"))
                for _ in range(4)
            ]
            ex.flush()
            for f in futures:
                assert f.result(timeout=60).c is not None
            batches = ex.batch_stats()
        first_ui = min(i for i, b in enumerate(batches) if b.matrix == "w0")
        first_bg = min(i for i, b in enumerate(batches) if b.matrix == "w1")
        assert first_ui < first_bg
        # The recorded batch weights carry the priority signal.
        assert all(b.weight == 0 for b in batches if b.matrix == "w0")
        assert all(b.weight == 2 for b in batches if b.matrix == "w1")


class TestBreakersStillSteer:
    def test_open_breaker_overrides_cost_model_first_choice(self, registry, rng):
        # The cost model is seeded to believe jigsaw is by far the
        # cheapest route — then every jigsaw launch faults.  The breaker
        # must trip and steer traffic to hybrid regardless of the
        # estimate, and every result must stay correct.
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=1.0)
            .add("executor.kernel.compiled", probability=1.0)
        )
        sched = Scheduler(cost_model=CostModel())
        sched.observe("w0", "jigsaw", us=0.01, cols=1)  # stale "cheap" estimate
        breakers = BreakerBoard(failure_threshold=2, cooldown_s=600.0)
        with BatchExecutor(
            registry,
            max_batch=4,
            retry_policy=RetryPolicy(max_attempts=2, base_delay_s=1e-5),
            sleep=lambda s: None,
            breakers=breakers,
            fault_plan=fp,
            scheduler=sched,
        ) as ex:
            for _ in range(3):
                reqs = [SpmmRequest("w0", _panel(rng)) for _ in range(2)]
                for res, req in zip(ex.run(reqs), reqs):
                    assert res.stats.route == "hybrid"
                    np.testing.assert_allclose(
                        res.c,
                        _reference(registry, "w0", req.b),
                        rtol=1e-2,
                        atol=0.1,
                    )
            stats = ex.stats()
        # The router kept planning jigsaw first (its estimate is stale-cheap)...
        assert sched.plan_routes("w0", ["jigsaw", "hybrid", "dense"], 8)[0] == "jigsaw"
        # ...but the breaker opened and the batches ran hybrid anyway.
        assert breakers.get("w0", "jigsaw").state == OPEN
        assert stats.breaker_trips >= 1
        assert stats.route_counts["hybrid"] == 6
        # Hybrid launches fed the model, so it now has a real measurement.
        assert sched.cost_model.samples("w0", "hybrid") > 0


class TestMixedChaos:
    def test_throttled_faulted_mixed_load_serves_all_accepted(self, registry, rng):
        # Two tenants, transient faults on both batched routes, and a
        # tight rate limit on the background tenant: every accepted
        # future must complete with a numerically correct result, and
        # throttles must be typed and folded into the stats.
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=0.4)
            .add("executor.kernel.hybrid", probability=0.2, count=2)
        )
        with BatchExecutor(
            registry,
            max_batch=8,
            retry_policy=RetryPolicy(max_attempts=4, base_delay_s=1e-5),
            sleep=lambda s: None,
            fault_plan=fp,
            scheduler=_two_class_scheduler(rate_per_s=1.0, burst=3),
        ) as ex:
            reqs = [
                SpmmRequest(
                    f"w{i % 2}",
                    _panel(rng),
                    tenant="bg" if i % 2 else "ui",
                )
                for i in range(12)
            ]
            report = ex.submit_many(reqs, on_error="partial")
            ex.flush()
            for i, f in enumerate(report.futures):
                if f is None:
                    continue
                res = f.result(timeout=60)
                np.testing.assert_allclose(
                    res.c,
                    _reference(registry, reqs[i].matrix, reqs[i].b),
                    rtol=1e-2,
                    atol=0.1,
                )
            stats = ex.stats()
        assert report.rejected == 3  # bg burst of 3 admits, 3 more shed
        assert all(isinstance(e, ThrottledError) for _, e in report.errors)
        assert all(e.tenant == "bg" for _, e in report.errors)
        assert stats.throttled == 3
        assert stats.throttled_by_tenant == {"bg": 3}
        assert stats.tenant_counts == {"ui": 6, "bg": 3}
