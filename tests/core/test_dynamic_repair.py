"""Dynamic sparsity: incremental format/plan repair is bit-identical to
a full rebuild, touches only dirty slabs, and version-qualifies every
cache artifact."""

import numpy as np
import pytest

from repro.core import (
    JigsawPlan,
    TileConfig,
    compile_plan,
    load_jigsaw,
    plan_cache_key,
    roundtrip_equal,
    run_compiled_kernel,
)
from repro.core.kernels import compute_output
from repro.core.tiles import BLOCK_TILE_SIZES
from repro.faults import FaultPlan
from tests.conftest import random_vector_sparse, saved_artifact


def _update(a, rng, rows):
    """An in-place-style update confined to the given rows; returns
    (rows, cols, values, a_new)."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = rng.integers(0, a.shape[1], size=rows.shape[0])
    values = (rng.standard_normal(rows.shape[0]) * 0.5).astype(np.float16)
    a_new = a.copy()
    a_new[rows, cols] = values
    return rows, cols, values, a_new


class TestPlanRepair:
    @pytest.fixture()
    def a(self, rng):
        return random_vector_sparse(256, 128, v=4, sparsity=0.9, rng=rng)

    def test_repaired_format_bit_identical_to_rebuild(self, a, rng):
        plan = JigsawPlan(a)
        plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        rows, cols, values, a_new = _update(a, rng, [70, 75, 100])
        repaired = plan.updated(rows, cols, values)
        rjm = repaired.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        # A rebuild at the same content version must be byte-equal.
        rebuilt = JigsawPlan(
            a_new, content_version=repaired.content_version
        ).format_for(JigsawPlan.FIXED_BLOCK_TILE)
        assert roundtrip_equal(rjm, rebuilt)
        np.testing.assert_array_equal(rjm.to_dense(), a_new)

    def test_repair_touches_only_dirty_slabs(self, rng):
        # 2048 rows / BLOCK_TILE 64 = 32 slabs; one dirty slab is ~3% of
        # tiles and must cost <25% of a rebuild's reorder work.
        a = random_vector_sparse(2048, 128, v=4, sparsity=0.9, rng=rng)
        plan = JigsawPlan(a)
        plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        rows, cols, values, _ = _update(a, rng, [3, 17, 60])
        repaired = plan.updated(rows, cols, values)
        run = repaired.stats.runs[-1]
        assert run.plan_cache == "repair"
        assert run.slabs == 32
        assert run.repaired_slabs == 1
        assert run.repaired_slabs / run.slabs < 0.25
        # Repairs never count as reorder runs (the zero-reorder cache
        # guarantee stays meaningful).
        assert repaired.stats.repairs == 1
        assert repaired.stats.reorder_runs == 0

    def test_repair_beats_a_full_rebuild_on_wall_time(self, rng):
        # One dirty slab of four: the best of three repairs must beat the
        # best of three rebuilds of the updated matrix (typically ~3x).
        from time import perf_counter

        a = random_vector_sparse(256, 256, v=4, sparsity=0.9, rng=rng)
        rows, cols, values, a_new = _update(a, rng, [3, 7, 11])
        repair_s, rebuild_s = [], []
        for _ in range(3):
            plan = JigsawPlan(a, workers=1)
            plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
            t0 = perf_counter()
            repaired = plan.updated(rows, cols, values)
            repair_s.append(perf_counter() - t0)
            t0 = perf_counter()
            JigsawPlan(
                a_new, workers=1, content_version=repaired.content_version
            ).format_for(JigsawPlan.FIXED_BLOCK_TILE)
            rebuild_s.append(perf_counter() - t0)
        assert repaired.stats.runs[-1].repaired_slabs == 1
        assert min(repair_s) < min(rebuild_s), (repair_s, rebuild_s)

    def test_repaired_plan_runs_bit_identical_to_fresh(self, a, rng):
        plan = JigsawPlan(a)
        plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        rows, cols, values, a_new = _update(a, rng, [5, 130])
        repaired = plan.updated(rows, cols, values)
        fresh = JigsawPlan(a_new)
        b = rng.standard_normal((128, 16)).astype(np.float16)
        for version in ("v3", "v4"):
            np.testing.assert_array_equal(
                repaired.run(b, version=version).c,
                fresh.run(b, version=version).c,
            )

    def test_updated_never_mutates_the_old_plan(self, a, rng):
        plan = JigsawPlan(a)
        jm = plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        b = rng.standard_normal((128, 8)).astype(np.float16)
        before = plan.run(b, version="v3").c
        rows, cols, values, _ = _update(a, rng, [0, 64, 128])
        plan.updated(rows, cols, values)
        # In-flight consumers of the old version stay bit-identical.
        assert plan.content_version == 0
        np.testing.assert_array_equal(jm.to_dense(), a)
        np.testing.assert_array_equal(plan.run(b, version="v3").c, before)

    def test_repaired_rejects_bad_arguments(self, a):
        jm = JigsawPlan(a).format_for(JigsawPlan.FIXED_BLOCK_TILE)
        with pytest.raises(ValueError, match="shape"):
            jm.repaired(np.zeros((8, 8), np.float16), {0})
        with pytest.raises(ValueError, match="out of range"):
            jm.repaired(a.copy(), {99})


class TestCompiledRepair:
    # 200 rows: a partial trailing strip, whose rows past m go to the
    # dump row of out_rows.
    @pytest.mark.parametrize("m", [256, 200])
    @pytest.mark.parametrize("bt", BLOCK_TILE_SIZES)
    def test_updated_repairs_attached_compiled_plan(self, rng, m, bt):
        a = random_vector_sparse(m, 128, v=4, sparsity=0.9, rng=rng)
        plan = JigsawPlan(a)
        plan.format_for(bt).compiled_plan()
        rows, cols, values, a_new = _update(a, rng, [5, m - 1])
        rjm = plan.updated(rows, cols, values).format_for(bt)
        assert rjm._compiled is not None
        rebuilt = JigsawPlan(a_new).format_for(bt)
        assert rjm._compiled.equals(compile_plan(rebuilt))
        b = rng.standard_normal((128, 8)).astype(np.float16)
        np.testing.assert_array_equal(
            run_compiled_kernel(rjm._compiled, b).c, compute_output(rebuilt, b)
        )


class TestVersionedArtifacts:
    def test_plan_cache_key_is_version_qualified(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        config = TileConfig(block_tile=64)
        k0 = plan_cache_key(a, config, True, content_version=0)
        k1 = plan_cache_key(a, config, True, content_version=1)
        assert k0 != k1
        assert k0 == plan_cache_key(a, config, True, content_version=0)

    def test_serialization_roundtrips_repaired_matrix(self, rng):
        a = random_vector_sparse(256, 128, v=4, sparsity=0.9, rng=rng)
        jm = JigsawPlan(a).format_for(JigsawPlan.FIXED_BLOCK_TILE)
        a_new = a.copy()
        a_new[70, 3] = np.float16(1.5)
        rjm = jm.repaired(a_new, {1})
        back = load_jigsaw(saved_artifact(rjm))
        assert back.content_version == 1
        assert roundtrip_equal(rjm, back)
        np.testing.assert_array_equal(back.to_dense(), a_new)

    def test_both_versions_artifacts_coexist_on_disk(self, rng, tmp_path):
        a = random_vector_sparse(256, 128, v=4, sparsity=0.9, rng=rng)
        plan = JigsawPlan(a, cache_dir=tmp_path)
        plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        (old_path,) = plan.artifact_paths()
        assert old_path.exists()
        rows = np.array([70])
        cols = np.array([3])
        repaired = plan.updated(rows, cols, np.array([1.5], np.float16))
        (new_path,) = repaired.artifact_paths()
        # The repaired artifact persists under a new version-qualified
        # key; the old version's file survives until garbage-collected.
        assert new_path != old_path
        assert new_path.exists() and old_path.exists()
        # A cold plan at the new version cache-hits the repaired artifact.
        cold = JigsawPlan(
            repaired._a,
            cache_dir=tmp_path,
            content_version=repaired.content_version,
        )
        cold.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        assert cold.stats.plan_cache_hits == 1
        assert cold.stats.reorder_runs == 0

    def test_failed_repair_store_is_counted_in_metrics(self, rng, tmp_path, metrics):
        a = random_vector_sparse(256, 128, v=4, sparsity=0.9, rng=rng)
        plan = JigsawPlan(a, cache_dir=tmp_path)
        plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
        plan.fault_plan = FaultPlan().add("plan.cache.store", probability=1.0)
        repaired = plan.updated(np.array([70]), np.array([3]), np.array([1.5], np.float16))
        assert repaired.stats.store_failures == 1
        assert not any(p.exists() for p in repaired.artifact_paths())
        events = metrics.get("repro_plan_artifact_events_total")
        assert events is not None and events.value(event="store_failure") == 1
