"""Self-healing serving under injected faults: retry, breakers, routing,
artifact quarantine, and admission control, end to end."""

import os
from pathlib import Path

import numpy as np
import pytest

from repro.core import JigsawPlan
from repro.faults import (
    CLOSED,
    OPEN,
    BreakerBoard,
    FaultInjectedError,
    FaultPlan,
    RetryPolicy,
)
from repro.serve import BatchExecutor, PlanRegistry, RejectedError, SpmmRequest
from tests.conftest import panel as _panel, random_vector_sparse

#: CI's chaos job sweeps this seed; every test must hold for any value.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture()
def clock():
    return FakeClock()


@pytest.fixture()
def registry(rng, tmp_path):
    reg = PlanRegistry(cache_dir=tmp_path)
    reg.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
    return reg


def _reference(reg, name, b):
    return reg.matrix(name).astype(np.float32) @ b.astype(np.float32)


def _executor(registry, fault_plan=None, clock=None, **kw):
    kw.setdefault("max_batch", 4)
    kw.setdefault("retry_policy", RetryPolicy(max_attempts=3, base_delay_s=1e-5))
    if clock is not None:
        kw.setdefault(
            "breakers",
            BreakerBoard(failure_threshold=2, cooldown_s=1.0, clock=clock),
        )
    return BatchExecutor(registry, fault_plan=fault_plan, sleep=lambda s: None, **kw)


class TestRetry:
    def test_transient_kernel_fault_absorbed_by_retry(self, registry, rng):
        fp = FaultPlan(seed=CHAOS_SEED).add(
            "executor.kernel.jigsaw", probability=1.0, count=1
        )
        with _executor(registry, fault_plan=fp) as ex:
            b = _panel(rng)
            res = ex.run([SpmmRequest("w0", b)])[0]
        assert res.stats.route == "jigsaw"  # retry kept the fast path
        np.testing.assert_allclose(
            res.c, _reference(registry, "w0", b), rtol=1e-3, atol=1e-2
        )
        stats = ex.stats()
        assert stats.retries >= 1
        assert stats.breaker_trips == 0

    def test_registry_admission_fault_served_dense(self, registry, rng):
        # Even a persistently failing plan admission degrades to dense.
        fp = FaultPlan(seed=CHAOS_SEED).add("registry.get", probability=1.0)
        registry.fault_plan = fp  # the site lives in PlanRegistry.get
        with _executor(registry, fault_plan=fp) as ex:
            b = _panel(rng)
            res = ex.run([SpmmRequest("w0", b)])[0]
        assert res.stats.route == "dense"
        np.testing.assert_allclose(
            res.c, _reference(registry, "w0", b), rtol=1e-3, atol=1e-2
        )


class TestBreakerRouting:
    def test_persistent_jigsaw_faults_trip_to_hybrid(self, registry, rng, clock):
        # Poison both fast batched routes (jigsaw and compiled) so the
        # batch lands on hybrid; each serves the breaker drill's purpose.
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=1.0)
            .add("executor.kernel.compiled", probability=1.0)
        )
        with _executor(registry, fault_plan=fp, clock=clock) as ex:
            first = ex.run([SpmmRequest("w0", _panel(rng))])[0]
            # Retries exhausted -> breaker counted 1 failure per fast
            # route -> batch fell through to hybrid, still correct.
            assert first.stats.route == "hybrid"
            second = ex.run([SpmmRequest("w0", _panel(rng))])[0]
            assert second.stats.route == "hybrid"
            # 2 failures tripped each fast route's breaker: skipped now.
            assert ex.breakers.get("w0", "jigsaw").state == OPEN
            assert ex.breakers.get("w0", "compiled").state == OPEN
            stats = ex.stats()
        assert stats.breaker_trips == 2
        assert stats.route_counts["jigsaw"] == 0
        assert stats.route_counts["compiled"] == 0

    def test_hybrid_faults_too_trip_to_dense(self, registry, rng, clock):
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=1.0)
            .add("executor.kernel.compiled", probability=1.0)
            .add("executor.kernel.hybrid", probability=1.0)
        )
        with _executor(registry, fault_plan=fp, clock=clock) as ex:
            results = [ex.run([SpmmRequest("w0", _panel(rng))])[0] for _ in range(3)]
            assert [r.stats.route for r in results] == ["dense"] * 3
            assert ex.breakers.get("w0", "jigsaw").state == OPEN
            assert ex.breakers.get("w0", "compiled").state == OPEN
            assert ex.breakers.get("w0", "hybrid").state == OPEN

    def test_half_open_probe_restores_fast_path(self, registry, rng, clock):
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=1.0)
            .add("executor.kernel.compiled", probability=1.0)
        )
        with _executor(registry, fault_plan=fp, clock=clock) as ex:
            for _ in range(2):
                ex.run([SpmmRequest("w0", _panel(rng))])
            assert ex.breakers.get("w0", "jigsaw").state == OPEN
            # While open, traffic routes hybrid without touching jigsaw.
            res = ex.run([SpmmRequest("w0", _panel(rng))])[0]
            assert res.stats.route == "hybrid"
            # Faults clear; after the cooldown, a half-open probe runs on
            # the jigsaw route, succeeds, and closes the breaker.
            fp.disable()
            clock.advance(2.0)
            res = ex.run([SpmmRequest("w0", _panel(rng))])[0]
            assert res.stats.route == "jigsaw"
            assert ex.breakers.get("w0", "jigsaw").state == CLOSED
            res = ex.run([SpmmRequest("w0", _panel(rng))])[0]
            assert res.stats.route == "jigsaw"

    def test_failed_probe_reopens(self, registry, rng, clock):
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=1.0)
            .add("executor.kernel.compiled", probability=1.0)
        )
        with _executor(registry, fault_plan=fp, clock=clock) as ex:
            for _ in range(2):
                ex.run([SpmmRequest("w0", _panel(rng))])
            clock.advance(2.0)  # probe window opens, but faults persist
            res = ex.run([SpmmRequest("w0", _panel(rng))])[0]
            assert res.stats.route == "hybrid"  # probe failed, served anyway
            assert ex.breakers.get("w0", "jigsaw").state == OPEN

    def test_breakers_are_per_matrix(self, registry, rng, clock):
        registry.register(
            "w1",
            random_vector_sparse(
                64, 128, v=4, sparsity=0.9, rng=np.random.default_rng(77)
            ),
        )
        fp = FaultPlan(seed=CHAOS_SEED).add("executor.kernel.jigsaw", probability=1.0)
        with _executor(registry, fault_plan=fp, clock=clock) as ex:
            for _ in range(2):
                ex.run([SpmmRequest("w0", _panel(rng))])
            fp.disable()
            # w0's breaker is open, but w1 was never poisoned.
            res = ex.run([SpmmRequest("w1", _panel(rng))])[0]
            assert res.stats.route == "jigsaw"
            assert ex.breakers.get("w0", "jigsaw").state == OPEN


class TestFailureIsolation:
    def test_poisoned_dense_request_does_not_fail_batchmates(
        self, registry, rng, clock
    ):
        # Jigsaw and hybrid fail persistently, so the batch lands on the
        # per-request dense route; the dense site fires exactly
        # max_attempts times, poisoning only the first request served.
        fp = (
            FaultPlan(seed=CHAOS_SEED)
            .add("executor.kernel.jigsaw", probability=1.0)
            .add("executor.kernel.compiled", probability=1.0)
            .add("executor.kernel.hybrid", probability=1.0)
            .add("executor.kernel.dense", probability=1.0, count=3)
        )
        with _executor(registry, fault_plan=fp, clock=clock, max_workers=1) as ex:
            futures = [ex.spmm("w0", _panel(rng)) for _ in range(3)]
            ex.flush()
            outcomes = []
            for f in futures:
                try:
                    outcomes.append(f.result(timeout=60).stats.route)
                except FaultInjectedError:
                    outcomes.append("failed")
        assert outcomes.count("failed") == 1  # isolation: one future, not three
        assert outcomes.count("dense") == 2


class TestQuarantine:
    def test_corrupt_artifact_quarantined_and_rebuilt(self, rng, tmp_path):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        warm = PlanRegistry(cache_dir=tmp_path)
        warm.register("w0", a)
        warm.warm()
        artifacts = sorted(tmp_path.glob("*.npz"))
        assert artifacts
        # Flip bytes in one artifact: the checksum catches it on load.
        artifacts[0].write_bytes(artifacts[0].read_bytes()[:-7] + b"garbage")

        registry = PlanRegistry(cache_dir=tmp_path)
        registry.register("w0", a)
        with BatchExecutor(registry, max_batch=4) as ex:
            b = _panel(rng)
            res = ex.run([SpmmRequest("w0", b)])[0]
            stats = ex.stats()
        np.testing.assert_allclose(
            res.c, _reference(registry, "w0", b), rtol=1e-3, atol=1e-2
        )
        assert stats.quarantined == 1
        quarantined = list((tmp_path / "quarantine").glob("*.npz"))
        assert [p.name for p in quarantined] == [artifacts[0].name]
        # The rebuild re-stored a fresh, loadable artifact in place.
        from repro.core import load_jigsaw

        load_jigsaw(artifacts[0])

    def test_injected_load_fault_rebuilds_without_crashing(self, rng, tmp_path):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        warm = PlanRegistry(cache_dir=tmp_path)
        warm.register("w0", a)
        warm.warm()

        fp = FaultPlan(seed=CHAOS_SEED).add("plan.cache.load", probability=1.0, count=1)
        registry = PlanRegistry(cache_dir=tmp_path, fault_plan=fp)
        registry.register("w0", a)
        with _executor(registry, fault_plan=fp) as ex:
            res = ex.run([SpmmRequest("w0", _panel(rng))])[0]
        assert res.stats.route == "jigsaw"
        assert registry.quarantined >= 1

    def test_injected_store_fault_still_serves_from_memory(self, rng, tmp_path):
        fp = FaultPlan(seed=CHAOS_SEED).add("plan.cache.store", probability=1.0)
        registry = PlanRegistry(cache_dir=tmp_path, fault_plan=fp)
        registry.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
        with _executor(registry, fault_plan=fp) as ex:
            res = ex.run([SpmmRequest("w0", _panel(rng))])[0]
        assert res.stats.route == "jigsaw"
        assert registry.store_failures >= 1
        assert not list(tmp_path.glob("*.npz"))  # nothing persisted


class TestAdmissionControl:
    def test_overflow_sheds_with_typed_error(self, registry, rng):
        # max_batch > burst so nothing dispatches while we overfill.
        with BatchExecutor(registry, max_batch=64, max_pending=2) as ex:
            f1 = ex.spmm("w0", _panel(rng))
            f2 = ex.spmm("w0", _panel(rng))
            with pytest.raises(RejectedError, match="full"):
                ex.spmm("w0", _panel(rng))
            ex.flush()
            for f in (f1, f2):
                f.result(timeout=60)
            stats = ex.stats()
        assert stats.rejected == 1
        assert stats.pending_peak == 2

    def test_capacity_recovers_after_completion(self, registry, rng):
        with BatchExecutor(registry, max_batch=64, max_pending=1) as ex:
            ex.spmm("w0", _panel(rng))
            ex.flush()
            # Wait for completion, then capacity is back.
            deadline = 60
            import time as _time

            t0 = _time.perf_counter()
            while ex.pending and _time.perf_counter() - t0 < deadline:
                _time.sleep(0.005)
            assert ex.pending == 0
            ex.spmm("w0", _panel(rng)).cancel()

    def test_validation(self, registry):
        with pytest.raises(ValueError, match="max_pending"):
            BatchExecutor(registry, max_pending=0)


class TestChaosStats:
    def test_resilience_counters_rendered(self, registry, rng, clock):
        from repro.analysis import render_serving

        fp = FaultPlan(seed=CHAOS_SEED).add(
            "executor.kernel.jigsaw", probability=1.0, count=1
        )
        with _executor(registry, fault_plan=fp, clock=clock) as ex:
            ex.run([SpmmRequest("w0", _panel(rng))])
            out = render_serving(ex.stats())
        assert "kernel retries" in out
        assert "breaker trips" in out
        assert "artifacts quarantined" in out
        assert "rejected (shed)" in out


class TestQuarantineBudget:
    """The quarantine directory is capped: oldest artifacts are evicted
    past the byte/count budget, the newest always survives, and the
    evictions surface in ServeStats."""

    def _corrupt_all(self, cache_dir):
        artifacts = sorted(cache_dir.glob("*.npz"))
        assert artifacts
        for p in artifacts:
            p.write_bytes(p.read_bytes()[:-7] + b"garbage")
        return artifacts

    def test_file_count_budget_keeps_newest(self, rng, tmp_path):
        warm = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
        for i in range(4):
            warm.register(
                f"w{i}", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
            )
        warm.warm()
        self._corrupt_all(tmp_path)

        registry = PlanRegistry(
            cache_dir=tmp_path, block_tiles=(64,), quarantine_max_files=2
        )
        for i in range(4):
            registry.register(f"w{i}", warm.matrix(f"w{i}"))
        with BatchExecutor(registry, max_batch=4) as ex:
            reqs = [SpmmRequest(f"w{i}", _panel(rng)) for i in range(4)]
            for req, res in zip(reqs, ex.run(reqs)):
                np.testing.assert_allclose(
                    res.c,
                    _reference(registry, req.matrix, req.b),
                    rtol=1e-3,
                    atol=1e-2,
                )
            stats = ex.stats()

        qdir = tmp_path / "quarantine"
        assert stats.quarantined == 4  # every corrupt artifact was caught
        assert len(list(qdir.glob("*.npz"))) <= 2  # ... but the dir is capped
        assert stats.quarantine_evicted >= 2  # and the evictions are counted

    def test_byte_budget_evicts_oldest(self, rng, tmp_path):
        warm = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
        for i in range(3):
            warm.register(
                f"w{i}", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
            )
        warm.warm()
        self._corrupt_all(tmp_path)

        # A 1-byte budget forces eviction down to the survivor minimum.
        registry = PlanRegistry(
            cache_dir=tmp_path, block_tiles=(64,), quarantine_max_bytes=1
        )
        for i in range(3):
            registry.register(f"w{i}", warm.matrix(f"w{i}"))
        with BatchExecutor(registry, max_batch=4) as ex:
            ex.run([SpmmRequest(f"w{i}", _panel(rng)) for i in range(3)])
            stats = ex.stats()
        # The newest incident's artifact always survives as evidence.
        assert len(list((tmp_path / "quarantine").glob("*.npz"))) == 1
        assert stats.quarantine_evicted == 2

    def test_prune_skips_file_evicted_by_another_worker(
        self, rng, tmp_path, monkeypatch
    ):
        # Deterministic stand-in for concurrent quarantines: the prune's
        # listing names the oldest file, but another worker removes it
        # first.  That file is not this prune's eviction to count.
        plan = JigsawPlan(
            random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng),
            cache_dir=tmp_path,
            quarantine_max_files=1,
        )
        qdir = tmp_path / "quarantine"
        qdir.mkdir()
        for i in range(3):
            (qdir / f"q{i}.npz").write_bytes(b"evidence")
            os.utime(qdir / f"q{i}.npz", (1000 + i, 1000 + i))
        real_unlink = Path.unlink
        raced = []

        def unlink_after_rival(path, *args, **kwargs):
            if not raced:
                raced.append(path.name)
                real_unlink(path)  # the other worker wins the race
            return real_unlink(path, *args, **kwargs)

        monkeypatch.setattr(Path, "unlink", unlink_after_rival)
        plan._prune_quarantine(qdir)
        assert raced == ["q0.npz"]
        assert sorted(p.name for p in qdir.iterdir()) == ["q2.npz"]
        assert plan.stats.quarantine_evicted == 1  # q1 only

    def test_default_budget_evicts_nothing_here(self, rng, tmp_path):
        warm = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
        warm.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
        warm.warm()
        self._corrupt_all(tmp_path)
        registry = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
        registry.register("w0", warm.matrix("w0"))
        with BatchExecutor(registry, max_batch=4) as ex:
            ex.run([SpmmRequest("w0", _panel(rng))])
            stats = ex.stats()
        assert stats.quarantined == 1
        assert stats.quarantine_evicted == 0
