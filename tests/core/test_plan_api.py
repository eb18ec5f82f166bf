"""Regression tests for the JigsawPlan API: construction validation,
concurrent artifact stores, and the one-shot wrapper's engine kwargs."""

import threading

import numpy as np
import pytest

from repro.core import JigsawPlan, jigsaw_spmm
from repro.core.serialization import load_jigsaw, save_jigsaw
from tests.conftest import random_vector_sparse


class TestConstructionValidation:
    def test_empty_block_tiles_rejected(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        with pytest.raises(ValueError, match="at least one BLOCK_TILE"):
            JigsawPlan(a, block_tiles=())

    def test_unsupported_block_tile_rejected(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        with pytest.raises(ValueError, match="unsupported"):
            JigsawPlan(a, block_tiles=(48,))


class TestConcurrentStore:
    def test_concurrent_writers_to_one_artifact(self, rng, tmp_path):
        """Threads persisting the same artifact path concurrently must
        not clobber each other's tmp file (the tmp name used to be
        pid-only, so same-process threads collided)."""
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        plan = JigsawPlan(a, block_tiles=(64,))
        jm = plan.format_for(64)
        path = tmp_path / "artifact.npz"

        errors: list[BaseException] = []

        def store_many():
            try:
                for _ in range(5):
                    plan._store(jm, path, save_jigsaw)
            except BaseException as exc:  # noqa: BLE001 - collect for assert
                errors.append(exc)

        threads = [threading.Thread(target=store_many) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors, f"concurrent _store raised: {errors!r}"
        assert plan.stats.store_failures == 0
        # No stray tmp files, and the artifact is whole.
        assert list(tmp_path.glob("*.tmp-*")) == []
        back = load_jigsaw(path)
        np.testing.assert_array_equal(back.to_dense(), jm.to_dense())

    def test_concurrent_plans_share_cache_dir(self, rng, tmp_path):
        """Distinct plans over one matrix racing on the same cache entry
        all end up with the correct format."""
        a = random_vector_sparse(64, 256, v=8, sparsity=0.9, rng=rng)
        plans = [JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path) for _ in range(6)]
        outputs: dict[int, np.ndarray] = {}
        errors: list[BaseException] = []

        def build(i):
            try:
                outputs[i] = plans[i].format_for(64).to_dense()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=build, args=(i,)) for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for out in outputs.values():
            np.testing.assert_array_equal(out, a)


class TestOneShotPassthrough:
    def test_jigsaw_spmm_forwards_cache_dir_and_workers(self, rng, tmp_path):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        b = rng.standard_normal((128, 32)).astype(np.float16)
        res = jigsaw_spmm(a, b, block_tiles=(64,), workers=1, cache_dir=tmp_path)
        np.testing.assert_allclose(
            res.c,
            a.astype(np.float32) @ b.astype(np.float32),
            rtol=1e-3,
            atol=1e-2,
        )
        # The one-shot path persisted its artifact ...
        assert list(tmp_path.glob("jigsaw-*.npz"))
        # ... which a later plan loads with zero reorder work.
        plan = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
        plan.format_for(64)
        assert plan.stats.reorder_runs == 0
        assert plan.stats.plan_cache_hits == 1
