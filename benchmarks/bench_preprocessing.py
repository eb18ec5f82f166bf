"""Section 3.1 — one-time reorder preprocessing cost and its amortization.

The sparse weight matrix is stationary during inference, so Jigsaw's
reorder + compression runs once and is amortized over SpMM calls.  This
bench measures the wall-clock of the preprocessing itself (a real
pytest-benchmark measurement of this repo's implementation, not of the
simulated GPU) and verifies plan reuse across N.

It also exercises the preprocessing engine's three cost levers:

* the slab-parallel reorder (measured serial-vs-parallel speedup; the
  >1.5x acceptance bar applies on machines with >= 4 cores);
* the canonical tile-cover memo cache (hit rate must exceed 50% at
  sparsity >= 0.9, where patterns recur massively);
* the persistent plan cache (a second plan construction over the same
  matrix performs zero reorder work).
"""

import os
import time

import numpy as np
import pytest

from repro.analysis import render_preprocessing
from repro.analysis.artifacts import plan_reuse_inputs
from repro.core import (
    JigsawMatrix,
    JigsawPlan,
    TileConfig,
    clear_cover_cache,
    reorder_matrix,
)
from repro.data import expand_to_vector_sparse

from conftest import emit, run_artifact


@pytest.fixture(scope="module")
def matrix():
    return plan_reuse_inputs()[0]


def test_reorder_preprocessing_cost(benchmark, matrix):
    jm = benchmark(lambda: JigsawMatrix.build(matrix, TileConfig(block_tile=64)))
    assert jm.reorder_success


def test_plan_amortizes_over_runs(benchmark):
    a, b = plan_reuse_inputs()
    plan = JigsawPlan(a, block_tiles=(64,))
    plan.run(b, version="v3", want_output=False)  # warm the format cache

    result = benchmark(lambda: plan.run(b, version="v3", want_output=False))
    # The warm launch reports the clock the artifact prints.
    assert result.profile.duration_us == run_artifact("plan_reuse") > 0


def _same_reorder(r1, r2):
    assert len(r1.slabs) == len(r2.slabs)
    for s1, s2 in zip(r1.slabs, r2.slabs):
        assert np.array_equal(s1.col_ids, s2.col_ids)
        assert np.array_equal(s1.tile_perms, s2.tile_perms)
        assert (s1.evictions, s1.split_groups) == (s2.evictions, s2.split_groups)


def test_parallel_reorder_speedup():
    """Serial vs slab-parallel reorder: identical bits, measured speedup.

    The acceptance bar (>1.5x for 4096x4096 at 90% sparsity) only means
    anything with real cores to fan out over; single- or dual-core
    machines still verify bit-identity on a smaller matrix and report
    the measured times without asserting a ratio.
    """
    cores = os.cpu_count() or 1
    rng = np.random.default_rng(7)
    side = 4096 if cores >= 4 else 1024
    base = rng.random((side // 8, side)) >= 0.9
    a = expand_to_vector_sparse(base, 8, rng)
    config = TileConfig(block_tile=64)

    t0 = time.perf_counter()
    serial = reorder_matrix(a, config, workers=1)
    t_serial = time.perf_counter() - t0

    t0 = time.perf_counter()
    parallel = reorder_matrix(a, config, workers=cores)
    t_parallel = time.perf_counter() - t0

    _same_reorder(serial, parallel)
    speedup = t_serial / t_parallel if t_parallel > 0 else float("inf")
    emit(
        "Parallel preprocessing speedup",
        f"matrix {side}x{side}, 90% sparse, v=8\n"
        f"serial:   {t_serial * 1e3:8.1f} ms (workers=1)\n"
        f"parallel: {t_parallel * 1e3:8.1f} ms (workers={parallel.workers_used})\n"
        f"speedup:  {speedup:.2f}x on {cores} cores",
    )
    if cores >= 4 and parallel.workers_used > 1:
        assert speedup > 1.5, f"expected >1.5x on {cores} cores, got {speedup:.2f}x"


@pytest.mark.parametrize("sparsity", [0.90, 0.95])
def test_cover_cache_hit_rate(sparsity):
    """At sparsity >= 0.9 canonical tile patterns recur massively: the
    cover memo must convert >50% of non-trivial cover searches to hits."""
    rng = np.random.default_rng(13)
    base = rng.random((128, 1024)) >= sparsity
    a = expand_to_vector_sparse(base, 8, rng)
    clear_cover_cache()
    r = reorder_matrix(a, TileConfig(block_tile=64), workers=1)
    lookups = r.cover_cache_hits + r.cover_cache_misses
    hit_rate = r.cover_cache_hits / lookups if lookups else 0.0
    emit(
        "Cover-cache hit rate",
        f"matrix 1024x1024, {sparsity:.0%} sparse, v=8\n"
        f"lookups: {lookups}  hits: {r.cover_cache_hits}  "
        f"misses: {r.cover_cache_misses}\n"
        f"hit rate: {hit_rate:.1%}",
    )
    assert lookups > 0
    assert hit_rate > 0.5, f"hit rate {hit_rate:.1%} below the 50% bar"


def test_plan_cache_skips_preprocessing(tmp_path):
    """A second plan over the same matrix loads the persisted artifact
    and performs zero reorder work."""
    rng = np.random.default_rng(23)
    base = rng.random((64, 512)) >= 0.9
    a = expand_to_vector_sparse(base, 8, rng)

    cold = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
    jm_cold = cold.format_for(64)
    assert cold.stats.reorder_runs == 1
    assert cold.stats.plan_cache_misses == 1

    warm = JigsawPlan(a, block_tiles=(64,), cache_dir=tmp_path)
    jm_warm = warm.format_for(64)
    assert warm.stats.reorder_runs == 0
    assert warm.stats.plan_cache_hits == 1
    np.testing.assert_array_equal(jm_cold.to_dense(), jm_warm.to_dense())

    emit(
        "Plan cache",
        "cold (miss):\n"
        + render_preprocessing(cold.stats.runs[-1])
        + "\n\nwarm (hit):\n"
        + render_preprocessing(warm.stats.runs[-1]),
    )
