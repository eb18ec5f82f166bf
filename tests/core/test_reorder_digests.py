"""Reorder plans and compressed formats pinned by digest over a seeded
DLMC catalogue subset.

Each case reorders one vector-sparse matrix (the paper's construction:
a DLMC shape, a random base mask, every nonzero a v-tall vector) at
every BLOCK_TILE, with and without the bank-conflict preference, and
hashes the plans: slot column ids, per-tile permutations, eviction and
split-group counts.  Any change to which cover the search picks, which
column it evicts or when it splits moves a digest.  The pins were
computed before the cover search moved to mask tables, so they also
hold the table search to the sorted disjoint-pair search it replaced.

The format digests hash what compression makes of those plans at every
BLOCK_TILE: the kept values, their 2-bit positions, both metadata word
layouts and the dense reconstruction.  They were computed while the
format still stored both word layouts next to the positions, so they
hold the derived layouts to the stored ones they replaced.

The compiled digests hash the whole-plan lowering of the same formats:
every :class:`~repro.core.compiled.CompiledPlan` array with its dtype
and shape.  They were computed while each slab was still stored as its
own arrays and compiled in a per-slab loop, so they hold the flat
lowering to the one it replaced.
"""

import hashlib

import numpy as np
import pytest

from repro.core import JigsawMatrix, TileConfig, reorder_matrix, validate_reorder
from repro.core.compiled import compile_plan
from repro.core.tiles import MMA_TILE
from repro.data.workloads import Workload

BLOCK_TILES = (16, 32, 64)

#: (M, K, sparsity, v) -> (sha256 prefix over the six plans, evictions,
#: split groups).
PINNED = {
    (64, 576, 0.7, 2): ("fecab6d168eab74d", 344, 8),
    (64, 576, 0.7, 4): ("cf70fcfc6c06517f", 360, 12),
    (64, 576, 0.7, 8): ("1222a4fc223a3cd7", 886, 24),
    (64, 576, 0.9, 2): ("994256c31b24e613", 0, 0),
    (64, 576, 0.9, 4): ("10cedaefff144351", 14, 0),
    (64, 576, 0.9, 8): ("e8288aed5902cb6e", 138, 0),
    (128, 128, 0.7, 2): ("d7eee7bcd9a5ee9a", 122, 0),
    (128, 128, 0.7, 4): ("e8b9347a90e88590", 138, 0),
    (128, 128, 0.7, 8): ("2d820e8944dd71b5", 296, 0),
    (128, 128, 0.9, 2): ("d89490193849a3da", 0, 0),
    (128, 128, 0.9, 4): ("4f55a2371624c89a", 4, 0),
    (128, 128, 0.9, 8): ("7386a3aea52b6f4d", 44, 0),
    (256, 128, 0.7, 2): ("88a25e2278b136c2", 178, 0),
    (256, 128, 0.7, 4): ("69521a8e3dd08bfb", 202, 0),
    (256, 128, 0.7, 8): ("75101f9b0cf4bf22", 648, 0),
    (256, 128, 0.9, 2): ("59481f20ae97219a", 0, 0),
    (256, 128, 0.9, 4): ("cc06e2f0c05b7d08", 6, 0),
    (256, 128, 0.9, 8): ("218809f80c995d2e", 86, 0),
}


def plan_digest(a: np.ndarray) -> tuple[str, int, int]:
    h = hashlib.sha256()
    evictions = splits = 0
    for bt in BLOCK_TILES:
        for avoid in (True, False):
            result = reorder_matrix(
                a, TileConfig(block_tile=bt), avoid_bank_conflicts=avoid, workers=1
            )
            validate_reorder(a, result)
            for slab in result.slabs:
                h.update(slab.col_ids.tobytes())
                h.update(slab.tile_perms.tobytes())
                h.update(np.int64([slab.evictions, slab.split_groups]).tobytes())
                evictions += slab.evictions
                splits += slab.split_groups
    return h.hexdigest()[:16], evictions, splits


def case_matrix(m: int, k: int, sparsity: float, v: int) -> np.ndarray:
    if sparsity == 1.0:
        return np.zeros((m, k), dtype=np.float16)
    seed = m + k + v + round(sparsity * 100)
    return Workload("pin", m, k, 64, sparsity, v, seed=seed).materialize_lhs()


#: Format-only cases: a ragged M (a partial slab at every BLOCK_TILE),
#: an odd group count (a 5-group slab at every BLOCK_TILE) and an
#: all-zero matrix (sparsity 1.0).
FORMAT_ONLY_CASES = ((72, 160, 0.8, 4), (48, 48, 0.5, 2), (64, 96, 1.0, 4))

#: (M, K, sparsity, v) -> sha256 prefix over the three compressed formats.
FORMAT_PINNED = {
    (48, 48, 0.5, 2): "89d555c3c231b284",
    (64, 96, 1.0, 4): "e30b437e2f48bf3d",
    (64, 576, 0.7, 2): "f311bf7f4be8e4e2",
    (64, 576, 0.7, 4): "11629ef095c0334a",
    (64, 576, 0.7, 8): "cb03b370cab0fb6f",
    (64, 576, 0.9, 2): "6501a2e9155c9a66",
    (64, 576, 0.9, 4): "c3264c67239e07ea",
    (64, 576, 0.9, 8): "b1ebd6de04a93385",
    (72, 160, 0.8, 4): "6e2db93c8bddebf0",
    (128, 128, 0.7, 2): "b13a459e061903f9",
    (128, 128, 0.7, 4): "0c2aab46022c90da",
    (128, 128, 0.7, 8): "5749cecee0bc5562",
    (128, 128, 0.9, 2): "b19f5ea31e9374be",
    (128, 128, 0.9, 4): "03ca779b9b9e1ca2",
    (128, 128, 0.9, 8): "927d5c4c7256a7c2",
    (256, 128, 0.7, 2): "5e08aee607a9c0fb",
    (256, 128, 0.7, 4): "ccebd351fc548d46",
    (256, 128, 0.7, 8): "a20a8efeb8107765",
    (256, 128, 0.9, 2): "74d25f41f33e962d",
    (256, 128, 0.9, 4): "19aab92846eaa946",
    (256, 128, 0.9, 8): "55582c2942322fbd",
}


def format_digest(a: np.ndarray) -> str:
    h = hashlib.sha256()
    for bt in BLOCK_TILES:
        jm = JigsawMatrix.build(a, TileConfig(block_tile=bt), workers=1)
        for slab in jm.slabs:
            for arr in (
                slab.values,
                slab.positions,
                slab.meta_words,
                slab.meta_interleaved,
            ):
                h.update(str(arr.dtype).encode())
                h.update(np.int64(arr.shape).tobytes())
                h.update(np.ascontiguousarray(arr).tobytes())
        h.update(jm.to_dense().tobytes())
    return h.hexdigest()[:16]


#: (M, K, sparsity, v) -> sha256 prefix over the three compiled plans.
COMPILED_PINNED = {
    (48, 48, 0.5, 2): "f5da3172d99b3315",
    (64, 96, 1.0, 4): "ce2db59d1361a25e",
    (64, 576, 0.7, 2): "a859e31f8442d71b",
    (64, 576, 0.7, 4): "7f14a49ed6775709",
    (64, 576, 0.7, 8): "e518123e6e9c5028",
    (64, 576, 0.9, 2): "b1eb65015d5d7bd9",
    (64, 576, 0.9, 4): "f1d4c9938ef8559e",
    (64, 576, 0.9, 8): "c7bc2568c5f6f27f",
    (72, 160, 0.8, 4): "da00f3570f8a153e",
    (128, 128, 0.7, 2): "e4d5d2f7e86a7390",
    (128, 128, 0.7, 4): "6100c85a39c9518d",
    (128, 128, 0.7, 8): "dadcc31e91b7fc78",
    (128, 128, 0.9, 2): "956e953ae08d624a",
    (128, 128, 0.9, 4): "f3c19725791387e7",
    (128, 128, 0.9, 8): "be65d72246f74505",
    (256, 128, 0.7, 2): "6d4a52ff8ccf8cf4",
    (256, 128, 0.7, 4): "a483456b7abdd5bc",
    (256, 128, 0.7, 8): "beffc8069d51bd3e",
    (256, 128, 0.9, 2): "177eb6336d698d58",
    (256, 128, 0.9, 4): "58354862d9d74d83",
    (256, 128, 0.9, 8): "742967fe23fbe8f0",
}

#: Every CompiledPlan array the digest covers.
COMPILED_ARRAYS = (
    "w",
    "b_rows",
    "strip_idx",
    "g_starts",
    "out_rows",
    "slab_strips",
    "slab_ops",
    "slab_gather",
)


def compiled_digest(a: np.ndarray) -> str:
    h = hashlib.sha256()
    for bt in BLOCK_TILES:
        cp = compile_plan(JigsawMatrix.build(a, TileConfig(block_tile=bt), workers=1))
        for name in COMPILED_ARRAYS:
            arr = getattr(cp, name)
            h.update(str(arr.dtype).encode())
            h.update(np.int64(arr.shape).tobytes())
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()[:16]


@pytest.mark.parametrize(
    "case", sorted(PINNED), ids=lambda c: "{}x{}-s{}-v{}".format(*c)
)
def test_reorder_matches_pinned_digest(case):
    assert plan_digest(case_matrix(*case)) == PINNED[case]


def test_pins_exercise_eviction_and_split_mode():
    # Without evictions and split groups the pins would only cover the
    # identity and greedy paths.
    assert sum(e for _, e, _ in PINNED.values()) > 0
    assert sum(s for _, _, s in PINNED.values()) > 0


@pytest.mark.parametrize(
    "case", sorted(FORMAT_PINNED), ids=lambda c: "{}x{}-s{}-v{}".format(*c)
)
def test_format_matches_pinned_digest(case):
    assert format_digest(case_matrix(*case)) == FORMAT_PINNED[case]


def test_format_pins_cover_ragged_odd_and_empty():
    ragged, odd, empty = FORMAT_ONLY_CASES
    assert set(FORMAT_PINNED) == set(PINNED) | set(FORMAT_ONLY_CASES)
    assert set(COMPILED_PINNED) == set(FORMAT_PINNED)
    assert ragged[0] % MMA_TILE
    for bt in BLOCK_TILES:
        jm = JigsawMatrix.build(case_matrix(*odd), TileConfig(block_tile=bt))
        assert any(slab.n_groups % 2 for slab in jm.slabs)
    assert not case_matrix(*empty).any()


@pytest.mark.parametrize(
    "case", sorted(FORMAT_PINNED), ids=lambda c: "{}x{}-s{}-v{}".format(*c)
)
def test_compiled_plan_matches_pinned_digest(case):
    assert compiled_digest(case_matrix(*case)) == COMPILED_PINNED[case]
