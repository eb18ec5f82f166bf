"""End-to-end chaos acceptance: kill-every-K with zero lost requests.

This is the PR's acceptance criterion as a tier-1 test: a worker dies
every K batches, every non-poison request still completes with results
bit-identical to the single-process executor, and respawned workers
serve from the shared on-disk plan cache with **zero** reorder work.
"""

import os
import time

import numpy as np

from repro.baselines.cublas import cublas_hgemm
from repro.obs import Tracer, spans_to_jsonl, use_tracer, validate_spans_jsonl
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest
from repro.shard import Supervisor
from tests.conftest import random_vector_sparse

#: CI's shard job sweeps this seed (the workers' fault-plan seed); every
#: test must hold for any value.
CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "0"))


def _warm_cache(tmp_path, matrices):
    """Pre-warm the shared plan cache so workers never reorder."""
    registry = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
    for name, a in matrices.items():
        registry.register(name, a)
    registry.warm()  # plans build lazily: persist the formats to disk now
    return registry


def _reference_results(tmp_path, matrices, requests):
    executor = BatchExecutor(PlanRegistry(cache_dir=tmp_path, block_tiles=(64,)))
    try:
        for name, a in matrices.items():
            executor.registry.register(name, a)
        return [executor.submit(r).result(timeout=60).c for r in requests]
    finally:
        executor.close()


class TestKillEveryK:
    def test_zero_lost_bit_identical_zero_reorder(self, rng, tmp_path):
        matrices = {
            f"w{i}": random_vector_sparse(128, 256, v=8, sparsity=0.9, rng=rng)
            for i in range(3)
        }
        _warm_cache(tmp_path, matrices)
        requests = [
            SpmmRequest(
                matrix=f"w{i % 3}",
                b=rng.standard_normal((256, 16)).astype(np.float16),
                version="v2",  # pins the block tile: deterministic results
            )
            for i in range(12)
        ]

        sup = Supervisor(
            workers=2,
            cache_dir=tmp_path,
            fault_seed=CHAOS_SEED,
            fault_sites=[
                # Kill every 3rd work frame, once per incarnation.
                {"site": "shard.kill", "probability": 1.0, "after": 2, "count": 1}
            ],
            traced=True,
        )
        results = []
        tracer = Tracer()
        with use_tracer(tracer), sup:
            sup.wait_ready()
            for name, a in matrices.items():
                sup.router.register_matrix(name, a)
            # Serial submission: bounded in-flight keeps one kill from
            # cascading every queued request onto the next victim.
            for req in requests:
                results.append(sup.router.submit(req).result(timeout=120))

        assert all(r is not None for r in results)  # zero lost
        assert sup.crashes >= 1
        assert sup.respawns >= 1
        assert not sup.router.poisoned_matrices
        # Respawned incarnations admitted plans from the warm disk
        # cache: no worker ever ran a reorder.
        assert sup.router.stats().reorder_runs == 0

        expected = _reference_results(tmp_path, matrices, requests)
        for got, want in zip(results, expected):
            assert np.array_equal(got.c, want)

        # The trace, with spans orphaned by the kills pruned at stop(),
        # spans both processes and passes the schema validator.
        spans = tracer.buffer.snapshot()
        roots = [s for s in spans if s.attrs.get("tier") == "shard"]
        assert len(roots) == len(requests)
        assert any("." in s.span_id for s in spans)  # shipped by workers
        assert validate_spans_jsonl(spans_to_jsonl(spans)) == []


class TestPoisonIsolation:
    def test_per_matrix_kill_site_poisons_only_that_matrix(self, rng, tmp_path):
        matrices = {
            f"w{i}": random_vector_sparse(128, 256, v=8, sparsity=0.9, rng=rng)
            for i in range(2)
        }
        _warm_cache(tmp_path, matrices)
        panels = [rng.standard_normal((256, 16)).astype(np.float16) for _ in range(4)]

        sup = Supervisor(
            workers=2,
            cache_dir=tmp_path,
            max_redeliveries=1,
            fault_sites=[
                # Every incarnation dies the moment it sees w1 — the
                # poison matrix — while w0 traffic is never touched.
                {"site": "shard.kill.w1", "probability": 1.0}
            ],
        )
        with sup:
            sup.wait_ready()
            for name, a in matrices.items():
                sup.router.register_matrix(name, a)

            poisoned = sup.router.submit(
                SpmmRequest(matrix="w1", b=panels[0], version="v2")
            ).result(timeout=120)
            assert poisoned.stats.route == "dense"
            assert sup.router.poisoned_matrices == {"w1"}
            dense = cublas_hgemm(
                np.ascontiguousarray(matrices["w1"], dtype=np.float16), panels[0]
            ).c
            assert np.array_equal(poisoned.c, dense)

            # The router poisons off its reader threads; the monitor's
            # crash accounting trails by a tick.  Let it settle: both
            # the home shard and the sibling died on w1.
            deadline = time.monotonic() + 30.0
            while sup.crashes < 2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert sup.crashes == 2

            # The healthy matrix keeps serving through workers, and the
            # poison matrix keeps serving dense — without more crashes.
            crashes_after_poison = sup.crashes
            for b in panels[1:]:
                ok = sup.router.submit(
                    SpmmRequest(matrix="w0", b=b, version="v2")
                ).result(timeout=120)
                assert ok.stats.route != "dense"
                again = sup.router.submit(
                    SpmmRequest(matrix="w1", b=b, version="v2")
                ).result(timeout=120)
                assert again.stats.route == "dense"
            assert sup.crashes == crashes_after_poison
        assert sup.crashes >= 2  # home + sibling died on w1
