"""Tests for the preprocessing engine: parallel reorder, cover cache,
persistent plan cache, and the observability counters."""

import sys
import threading

import numpy as np
import pytest

from repro.core import (
    JigsawPlan,
    PreprocessStats,
    TileConfig,
    clear_cover_cache,
    cover_cache_stats,
    find_cover,
    plan_cache_key,
    preprocess,
    reorder_matrix,
    resolve_workers,
    roundtrip_equal,
    validate_reorder,
)
from repro.core.reorder import PARALLEL_MIN_ELEMS
from tests.conftest import random_vector_sparse


def assert_same_reorder(r1, r2):
    assert len(r1.slabs) == len(r2.slabs)
    for s1, s2 in zip(r1.slabs, r2.slabs):
        assert s1.slab_index == s2.slab_index
        assert np.array_equal(s1.col_ids, s2.col_ids)
        assert np.array_equal(s1.tile_perms, s2.tile_perms)
        assert (s1.evictions, s1.split_groups) == (s2.evictions, s2.split_groups)


class TestParallelReorder:
    def test_parallel_bit_identical_to_serial(self, rng):
        a = random_vector_sparse(128, 256, v=4, sparsity=0.85, rng=rng)
        serial = reorder_matrix(a, TileConfig(block_tile=32), workers=1)
        parallel = reorder_matrix(a, TileConfig(block_tile=32), workers=2)
        assert parallel.workers_used == 2
        assert_same_reorder(serial, parallel)
        validate_reorder(a, parallel)

    def test_parallel_partial_trailing_slab(self, rng):
        a = random_vector_sparse(80, 128, v=2, sparsity=0.8, rng=rng)  # 80 = 2.5 slabs
        serial = reorder_matrix(a, TileConfig(block_tile=32), workers=1)
        parallel = reorder_matrix(a, TileConfig(block_tile=32), workers=3)
        assert_same_reorder(serial, parallel)
        validate_reorder(a, parallel)

    def test_pool_failure_falls_back_to_one_serial_pass(self, rng, monkeypatch):
        import concurrent.futures

        def no_pool(*args, **kwargs):
            raise OSError("no multiprocessing here")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        a = random_vector_sparse(128, 256, v=4, sparsity=0.85, rng=rng)
        serial = reorder_matrix(a, TileConfig(block_tile=32), workers=1)
        before = cover_cache_stats()
        fallback = reorder_matrix(a, TileConfig(block_tile=32), workers=2)
        after = cover_cache_stats()
        assert fallback.workers_used == 1
        assert_same_reorder(serial, fallback)
        assert fallback.cover_cache_hits == after.hits - before.hits
        assert fallback.cover_cache_misses == after.misses - before.misses

    def test_auto_policy_stays_serial_below_threshold(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        assert a.size < PARALLEL_MIN_ELEMS
        r = reorder_matrix(a, TileConfig(block_tile=32))
        assert r.workers_used == 1

    def test_resolve_workers_policy(self):
        # single slab: nothing to parallelize
        assert resolve_workers(8, 1 << 30, 1) == 1
        # explicit width, capped by slab count
        assert resolve_workers(8, 100, 4) == 4
        assert resolve_workers(2, 100, 4) == 2
        # auto: serial below the size threshold, parallel above
        assert resolve_workers(None, PARALLEL_MIN_ELEMS - 1, 64) == 1
        assert resolve_workers(None, PARALLEL_MIN_ELEMS, 64) >= 1
        # workers=1 forces serial
        assert resolve_workers(1, 1 << 30, 64) == 1

    def test_cover_cache_counters_aggregated(self, rng):
        a = random_vector_sparse(128, 256, v=8, sparsity=0.9, rng=rng)
        clear_cover_cache()
        r = reorder_matrix(a, TileConfig(block_tile=64), workers=1)
        stats = cover_cache_stats()
        assert r.cover_cache_hits + r.cover_cache_misses == stats.lookups
        assert r.cover_cache_misses == stats.misses


def _shuffled_24_tile(seed: int) -> np.ndarray:
    """A 16x16 tile with two nonzeros per row in every quad (so a cover
    exists and every row holds exactly 8), columns shuffled."""
    rng = np.random.default_rng(seed)
    tile = (rng.random((16, 4, 4)).argsort(axis=2) < 2).reshape(16, 16)
    return tile[:, rng.permutation(16)]


def _identity_24(mask: np.ndarray) -> bool:
    return bool(np.all(mask.reshape(16, 4, 4).sum(axis=2) <= 2))


class TestCoverCache:
    def test_hit_on_identical_pattern(self, rng):
        clear_cover_cache()
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, :8] = True  # quad 0 is over-dense -> not identity-2:4
        before = cover_cache_stats()
        first = find_cover(mask)
        second = find_cover(mask)
        after = cover_cache_stats()
        assert after.misses - before.misses == 1
        assert after.hits - before.hits == 1
        assert first is not None
        assert first == second

    def test_hit_on_permuted_pattern(self, rng):
        # Column permutations of a tile share one cache entry.
        clear_cover_cache()
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, :8] = True
        find_cover(mask)
        # Explicit permutation leaving quad 0 with three dense columns, so
        # the identity fast path cannot short-circuit past the cache.
        perm_cols = [0, 1, 2, 8, 3, 4, 5, 9, 6, 7, 10, 11, 12, 13, 14, 15]
        permuted = mask[:, perm_cols]
        before = cover_cache_stats()
        sol = find_cover(permuted)
        after = cover_cache_stats()
        assert after.hits - before.hits == 1
        assert sol is not None
        # The mapped-back solution must be a valid cover of the permuted tile.
        order = np.array(sol.order)
        tile = permuted[:, order]
        assert np.all(tile.reshape(16, 4, 4).sum(axis=2) <= 2)

    def test_cache_disabled_matches_cached(self, rng):
        for seed in range(6):
            r = np.random.default_rng(seed)
            mask = r.random((16, 16)) < 0.4
            clear_cover_cache()
            cached = find_cover(mask, use_cache=True)
            uncached = find_cover(mask, use_cache=False)
            assert cached == uncached

    def test_row_budget_reject_bypasses_cache(self):
        clear_cover_cache()
        mask = _shuffled_24_tile(0)
        mask[5, ~mask[5]] = np.arange(8) == 0  # row 5: exactly 9 nonzeros
        assert find_cover(mask) is None
        assert cover_cache_stats().lookups == 0

    def test_identity_fast_path_bypasses_cache(self):
        clear_cover_cache()
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, 0] = True  # trivially 2:4 in place
        sol = find_cover(mask)
        assert sol.order == tuple(range(16))
        assert cover_cache_stats().lookups == 0

    def test_counters_exact_under_threads(self):
        # Serving threads preprocess concurrently: every non-identity
        # lookup must land in exactly one counter.
        clear_cover_cache()
        masks = [_shuffled_24_tile(seed) for seed in range(8)]
        for mask in masks:
            # Never the identity path, nor a row-budget reject.
            assert not _identity_24(mask)
            assert find_cover(mask, use_cache=False) is not None
        barrier = threading.Barrier(4)

        def lookups():
            barrier.wait()
            for i in range(400):
                find_cover(masks[i % len(masks)])

        threads = [threading.Thread(target=lookups) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # interleave threads as often as possible
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        finally:
            sys.setswitchinterval(interval)
        assert cover_cache_stats().lookups == 4 * 400

    def test_clear_resets_counters(self):
        mask = np.zeros((16, 16), dtype=bool)
        mask[:, :8] = True
        find_cover(mask)
        clear_cover_cache()
        stats = cover_cache_stats()
        assert stats.hits == 0 and stats.misses == 0


class TestPreprocess:
    def test_preprocess_matches_build(self, rng):
        from repro.core import JigsawMatrix

        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        jm, stats = preprocess(a, TileConfig(block_tile=32))
        ref = JigsawMatrix.build(a, TileConfig(block_tile=32))
        assert roundtrip_equal(jm, ref)
        assert stats.reorder_seconds > 0
        assert stats.compress_seconds > 0
        assert stats.slabs == 2
        assert stats.plan_cache == "off"
        assert 0.0 <= stats.cover_cache_hit_rate <= 1.0

    def test_preprocess_stats_defaults(self):
        stats = PreprocessStats()
        assert stats.total_seconds == 0.0
        assert stats.cover_cache_hit_rate == 0.0


class TestPlanCache:
    def test_second_plan_does_zero_reorder_work(self, rng, tmp_path):
        a = random_vector_sparse(64, 256, v=8, sparsity=0.9, rng=rng)
        p1 = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
        jm1 = p1.format_for(64)
        assert p1.stats.reorder_runs == 1
        assert p1.stats.plan_cache_misses == 1

        p2 = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
        jm2 = p2.format_for(64)
        assert p2.stats.reorder_runs == 0  # zero reorder work
        assert p2.stats.plan_cache_hits == 1
        assert p2.stats.runs[-1].plan_cache == "hit"
        assert roundtrip_equal(jm1, jm2)
        np.testing.assert_array_equal(jm1.to_dense(), jm2.to_dense())

    def test_cache_distinguishes_settings(self, rng, tmp_path):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        p1 = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
        p1.format_for(64)
        # Different avoid_bank_conflicts must not alias the cached artifact.
        p2 = JigsawPlan(
            a, block_tiles=(64,), avoid_bank_conflicts=False, cache_dir=tmp_path
        )
        p2.format_for(64)
        assert p2.stats.plan_cache_hits == 0
        assert p2.stats.reorder_runs == 1
        # Different BLOCK_TILE is a separate entry too.
        p3 = JigsawPlan(a, block_tiles=(32,), cache_dir=tmp_path)
        p3.format_for(32)
        assert p3.stats.plan_cache_hits == 0

    def test_cache_distinguishes_matrices(self, rng, tmp_path):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        b = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        assert not np.array_equal(a, b)
        JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path).format_for(64)
        p2 = JigsawPlan(b, block_tiles=(64,), cache_dir=tmp_path)
        p2.format_for(64)
        assert p2.stats.plan_cache_hits == 0

    def test_corrupt_artifact_rebuilds(self, rng, tmp_path):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        p1 = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
        p1.format_for(64)
        for f in tmp_path.glob("*.npz"):
            f.write_bytes(b"not an npz")
        p2 = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
        jm = p2.format_for(64)
        assert p2.stats.reorder_runs == 1  # fell back to building
        np.testing.assert_array_equal(jm.to_dense(), a)

    def test_no_cache_dir_means_off(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        p = JigsawPlan(a, block_tiles=(64,))
        p.format_for(64)
        assert p.stats.plan_cache_hits == 0
        assert p.stats.plan_cache_misses == 0
        assert p.stats.runs[-1].plan_cache == "off"

    def test_plan_cache_key_sensitivity(self, rng):
        """The key must react to every TileConfig field (a pre-v3 key
        omitted ``mma_tile``, aliasing non-default-MMA_TILE plans)."""
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        cfg = TileConfig(block_tile=64)
        k1 = plan_cache_key(a, cfg, True)
        assert k1 == plan_cache_key(a.copy(), cfg, True)
        assert k1 != plan_cache_key(a, cfg, False)
        assert k1 != plan_cache_key(a, TileConfig(block_tile=32), True)
        assert k1 != plan_cache_key(a, TileConfig(block_tile=64, block_tile_n=128), True)
        assert k1 != plan_cache_key(a, TileConfig(block_tile=64, mma_tile=8), True)
        a2 = a.copy()
        a2[0, 0] += np.float16(1.0)
        assert k1 != plan_cache_key(a2, cfg, True)

    def test_plan_cache_key_versioned(self, rng, monkeypatch):
        """Bumping the artifact FORMAT_VERSION invalidates every old key."""
        from repro.core import serialization

        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        cfg = TileConfig(block_tile=64)
        k_now = plan_cache_key(a, cfg, True)
        monkeypatch.setattr(
            serialization, "FORMAT_VERSION", serialization.FORMAT_VERSION + 1
        )
        assert plan_cache_key(a, cfg, True) != k_now

    def test_plan_cache_key_pinned(self):
        """Keys of fixed seeded matrices never drift: an artifact cached
        by an earlier build of the same format version keeps hitting."""
        from repro.formats import venom_prune

        rng = np.random.default_rng(1234)
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        assert (
            plan_cache_key(a, TileConfig(block_tile=64), True)
            == "88d0beb6f6379b20f9a138f448299000"
        )
        dense = np.random.default_rng(1234).standard_normal((128, 128))
        va = venom_prune(dense.astype(np.float16), v=64, n=2, m=8)
        assert (
            plan_cache_key(va, TileConfig(), True, format_spec="vnm:64:2:8")
            == "b992bd1e91e83319a5f1eca4cb3d9c8b"
        )


class TestValidateSweep:
    """Randomized validate_reorder sweep over the (sparsity x v x shape)
    grid, exercising split-mode groups, partial trailing slabs, and the
    parallel-vs-serial bit-identity guarantee of the engine."""

    @pytest.mark.parametrize("v", [2, 4, 8])
    @pytest.mark.parametrize("sparsity", [0.6, 0.9])
    @pytest.mark.parametrize(
        "shape,block_tile",
        [
            ((48, 64), 32),   # partial trailing slab
            ((64, 128), 64),
            ((112, 96), 32),  # partial trailing slab, non-square
        ],
    )
    def test_sweep_valid_and_parallel_identical(self, v, sparsity, shape, block_tile):
        rng = np.random.default_rng(hash((v, sparsity, shape)) % (2**32))
        m, k = shape
        a = random_vector_sparse(m, k, v=v, sparsity=sparsity, rng=rng)
        cfg = TileConfig(block_tile=block_tile)
        serial = reorder_matrix(a, cfg, workers=1)
        validate_reorder(a, serial)
        parallel = reorder_matrix(a, cfg, workers=2)
        assert_same_reorder(serial, parallel)

    def test_sweep_hits_split_mode(self):
        # Dense interleaved halves defeat normal covers; with a tight
        # retry budget the slab must fall back to split groups and stay
        # valid — in serial and parallel alike.
        rng = np.random.default_rng(11)
        a = (rng.random((32, 64)) < 0.75).astype(np.float16)
        from repro.core import reorder_slab

        r = reorder_slab(a[:16], 0, max_evictions_per_column=1)
        assert r.split_groups >= 1
        serial = reorder_matrix(a, TileConfig(block_tile=16), workers=1)
        parallel = reorder_matrix(a, TileConfig(block_tile=16), workers=2)
        assert_same_reorder(serial, parallel)
        validate_reorder(a, serial)
