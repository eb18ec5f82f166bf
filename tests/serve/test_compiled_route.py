"""Serving-path coverage for the compiled whole-plan route.

The compiled route sits *after* jigsaw in the static fallback chain, so
nothing changes for executors without a scheduler — the cost model has
to discover it empirically.  These tests pin that discovery loop, the
``chain`` override, the fault fall-through, and the serving-path
correctness sweep satellites (registry byte accounting, the unified
clock domain, the cost model's degenerate-observation guards).
"""

import numpy as np
import pytest

from repro.faults import OPEN, FaultPlan
from repro.sched import CostModel, Scheduler
from repro.serve import FALLBACK_CHAIN, BatchExecutor, PlanRegistry, SpmmRequest
from repro.serve.registry import plan_resident_bytes
from tests.conftest import random_vector_sparse


@pytest.fixture()
def registry(rng, tmp_path):
    reg = PlanRegistry(cache_dir=tmp_path)
    reg.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.8, rng=rng))
    return reg


def _panel(rng, k=128, n=8):
    return rng.standard_normal((k, n)).astype(np.float16)


def _reference(reg, name, b):
    return reg.matrix(name).astype(np.float32) @ b.astype(np.float32)


class FakeClock:
    def __init__(self) -> None:
        self.t = 100.0

    def __call__(self) -> float:
        return self.t

    def advance(self, dt: float) -> None:
        self.t += dt


class TestCostModelDiscovery:
    def test_cost_model_converges_to_compiled(self, registry, rng):
        # No manual pinning: the static chain still leads with jigsaw,
        # and the exploration cadence must probe the compiled route,
        # measure it cheaper, and keep routing there.
        sched = Scheduler(cost_model=CostModel(explore_every=2))
        with BatchExecutor(registry, max_batch=4, scheduler=sched) as ex:
            for _ in range(12):
                req = SpmmRequest("w0", _panel(rng))
                (res,) = ex.run([req])
                np.testing.assert_allclose(
                    res.c, _reference(registry, "w0", req.b), rtol=1e-2, atol=0.1
                )
            stats = ex.stats()
            batches = ex.batch_stats()
        counts = stats.route_counts
        assert counts["compiled"] > counts["jigsaw"]
        assert counts["compiled"] > counts["hybrid"]
        assert counts["dense"] == 0
        # Steady state: the last non-probe decision routes compiled.
        assert batches[-1].route == "compiled"
        # The model holds a real per-column estimate for the route.
        assert sched.cost_model.samples("w0", "compiled") > 0
        est_c = sched.cost_model.estimate_us("w0", "compiled", 8)
        est_j = sched.cost_model.estimate_us("w0", "jigsaw", 8)
        assert est_c is not None and est_j is not None and est_c < est_j

    def test_steady_state_majority_after_warmup(self, registry, rng):
        # The model carries over from a warm-up executor (same scheduler),
        # so after warm-up most launches route compiled; one probe per
        # explore_every decisions still samples the other routes.
        sched = Scheduler(cost_model=CostModel(explore_every=8))
        with BatchExecutor(registry, scheduler=sched) as ex:
            for _ in range(10):
                ex.run([SpmmRequest("w0", _panel(rng))])
        with BatchExecutor(registry, scheduler=sched) as ex:
            for _ in range(8):
                ex.run([SpmmRequest("w0", _panel(rng))])
            counts = ex.stats().route_counts
        assert counts["compiled"] > sum(n for r, n in counts.items() if r != "compiled")

    def test_tile_pinned_chain_never_runs_compiled(self, registry, rng):
        # The cost model only ranks the routes the chain offers: the
        # tile-by-tile baseline stays tile-by-tile however often it probes.
        sched = Scheduler(cost_model=CostModel(explore_every=2))
        with BatchExecutor(
            registry, chain=("jigsaw", "hybrid", "dense"), scheduler=sched
        ) as ex:
            for _ in range(12):
                ex.run([SpmmRequest("w0", _panel(rng))])
            counts = ex.stats().route_counts
        assert counts["compiled"] == 0
        assert counts["jigsaw"] > 0

    def test_static_chain_default_still_leads_with_jigsaw(self, registry, rng):
        # Without a scheduler the executor keeps the static order, so
        # existing serving behavior (and its tests) are unchanged.
        with BatchExecutor(registry) as ex:
            (res,) = ex.run([SpmmRequest("w0", _panel(rng))])
        assert res.stats.route == "jigsaw"


class TestChainOverride:
    def test_pinned_compiled_chain_serves_bit_identical_to_v3(self, registry, rng):
        # v3 runs the fixed BLOCK_TILE=64 tile route — the format the
        # compiled plan lowers, so the two chains must agree bit-for-bit.
        b = _panel(rng, n=16)
        with BatchExecutor(registry, chain=("compiled", "dense")) as ex:
            (res_c,) = ex.run([SpmmRequest("w0", b)])
        with BatchExecutor(registry, chain=("jigsaw", "dense")) as ex:
            (res_t,) = ex.run([SpmmRequest("w0", b, version="v3")])
        assert res_c.stats.route == "compiled"
        assert res_t.stats.route == "jigsaw"
        assert np.array_equal(res_c.c, res_t.c)

    def test_chain_must_terminate_at_dense(self, registry):
        with pytest.raises(ValueError, match="dense"):
            BatchExecutor(registry, chain=("jigsaw", "compiled"))
        with pytest.raises(ValueError, match="dense"):
            BatchExecutor(registry, chain=())

    def test_chain_rejects_unknown_routes(self, registry):
        with pytest.raises(ValueError, match="turbo"):
            BatchExecutor(registry, chain=("turbo", "dense"))

    def test_fallback_chain_order(self):
        assert FALLBACK_CHAIN == ("jigsaw", "compiled", "jigsaw@vnm", "hybrid", "dense")


class TestCompiledFaultFallThrough:
    def test_compiled_faults_fall_through_to_dense(self, registry, rng):
        fp = FaultPlan(seed=0).add("executor.kernel.compiled", probability=1.0)
        with BatchExecutor(
            registry,
            chain=("compiled", "dense"),
            breaker_threshold=2,
            retry_policy=None,
            sleep=lambda s: None,
            fault_plan=fp,
        ) as ex:
            for _ in range(3):
                req = SpmmRequest("w0", _panel(rng))
                (res,) = ex.run([req])
                assert res.stats.route == "dense"
                np.testing.assert_allclose(
                    res.c, _reference(registry, "w0", req.b), rtol=1e-2, atol=0.1
                )
            assert ex.breakers.get("w0", "compiled").state == OPEN


class TestRegistryByteAccounting:
    def test_running_total_tracks_lazy_format_growth(self, rng, tmp_path):
        reg = PlanRegistry(cache_dir=tmp_path)
        for i in range(3):
            reg.register(
                f"w{i}", random_vector_sparse(64, 128, v=4, sparsity=0.8, rng=rng)
            )
        for i in range(3):
            reg.get(f"w{i}")
        before = reg.resident_bytes()
        # v4 autotune builds more BLOCK_TILE formats — the plan grows
        # after admission, and the cached charge must catch up.
        plan = reg.get("w1")
        plan.run(rng.standard_normal((128, 8)).astype(np.float16))
        after = reg.resident_bytes()
        assert after > before
        with reg._lock:
            assert after == sum(
                plan_resident_bytes(p) for p in reg._plans.values()
            )
            assert after == sum(reg._entry_bytes.values())

    def test_total_consistent_across_evictions(self, rng, tmp_path):
        reg = PlanRegistry(cache_dir=tmp_path)
        for i in range(4):
            reg.register(
                f"w{i}", random_vector_sparse(64, 128, v=4, sparsity=0.8, rng=rng)
            )
            reg.get(f"w{i}")
        per_plan = reg.resident_bytes() // 4
        reg.budget_bytes = int(per_plan * 2.5)
        evicted = reg.enforce_budget()
        assert evicted == 2
        assert reg.resident_plans == 2
        with reg._lock:
            assert reg._resident_total == sum(
                plan_resident_bytes(p) for p in reg._plans.values()
            )
            assert set(reg._entry_bytes) == set(reg._plans)

    def test_mru_plan_survives_sub_plan_budget(self, rng, tmp_path):
        # The documented ``len > 1`` guard: a budget smaller than one
        # plan keeps the working plan resident instead of thrashing.
        reg = PlanRegistry(budget_bytes=1, cache_dir=tmp_path)
        reg.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.8, rng=rng))
        reg.register("w1", random_vector_sparse(64, 128, v=4, sparsity=0.8, rng=rng))
        reg.get("w0")
        reg.get("w1")
        assert reg.resident_plans == 1
        assert reg.resident("w1") and not reg.resident("w0")


class TestClockDomain:
    def test_default_breakers_follow_executor_clock(self, registry):
        # One injected clock drives the whole pipeline: advancing it
        # must move breaker cooldowns too (no hidden time.monotonic).
        clock = FakeClock()
        with BatchExecutor(
            registry, breaker_threshold=2, breaker_cooldown_s=10.0, clock=clock
        ) as ex:
            br = ex.breakers.get("w0", "jigsaw")
            br.record_failure()
            br.record_failure()
            assert br.state == OPEN
            assert not br.allow()
            clock.advance(9.0)
            assert not br.allow()  # still cooling on the fake clock
            clock.advance(1.5)
            assert br.allow()  # half-open probe unlocked by fake time

    def test_prebuilt_board_keeps_its_own_clock(self, registry):
        from repro.faults import BreakerBoard

        own = FakeClock()
        board = BreakerBoard(failure_threshold=2, cooldown_s=5.0, clock=own)
        with BatchExecutor(registry, breakers=board, clock=FakeClock()) as ex:
            assert ex.breakers is board


class TestCostModelObserveGuards:
    @pytest.mark.parametrize(
        "us,cols",
        [
            (1.0, 0),  # zero-width batch: would divide by zero
            (1.0, -3),
            (-1.0, 8),  # negative duration
            (float("inf"), 8),
            (float("nan"), 8),
        ],
    )
    def test_degenerate_observations_dropped(self, us, cols):
        cm = CostModel()
        cm.observe("w0", "compiled", us=us, cols=cols)
        assert cm.samples("w0", "compiled") == 0
        assert cm.estimate_us("w0", "compiled", 8) is None

    def test_valid_observation_still_lands(self):
        cm = CostModel()
        cm.observe("w0", "compiled", us=4.0, cols=8)
        assert cm.samples("w0", "compiled") == 1
        assert cm.estimate_us("w0", "compiled", 16) == pytest.approx(8.0)
