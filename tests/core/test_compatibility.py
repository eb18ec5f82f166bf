"""Tests for the compatible-column-group search."""

from functools import cache
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.compatibility import (
    CoverSolution,
    _bilateral_cover,
    _greedy_cover,
    find_compatible_quads,
    find_cover,
    least_compatible_column,
    quads_to_masks,
)


def tile_from_columns(cols_nnz_rows):
    """Build a (16, 16) mask from {col: [rows with nonzeros]}."""
    nz = np.zeros((16, 16), dtype=bool)
    for c, rows in cols_nnz_rows.items():
        nz[rows, c] = True
    return nz


def cover_is_valid(nz, cover):
    """Check a cover's order makes every aligned quad 2:4-compatible."""
    order = list(cover.order)
    assert sorted(order) == list(range(16)), "cover must be a permutation"
    permuted = nz[:, order]
    counts = permuted.reshape(nz.shape[0], 4, 4).sum(axis=2)
    return bool(np.all(counts <= 2))


QUADS = np.array(list(combinations(range(16), 4)))


def cover_exists(nz) -> bool:
    """Exhaustive oracle: can the 16 columns split into four compatible
    quads?  Depth-first, always placing the lowest unused column, whose
    quad must then start with it."""
    starting = [[] for _ in range(16)]
    for quad in QUADS[np.all(nz[:, QUADS].sum(axis=2) <= 2, axis=0)].tolist():
        starting[quad[0]].append(sum(1 << c for c in quad))

    @cache
    def fill(used: int) -> bool:
        if used == 0xFFFF:
            return True
        low = (~used & (used + 1)).bit_length() - 1
        return any(not q & used and fill(used | q) for q in starting[low])

    return fill(0)


def oracle_tiles():
    """Seeded random tiles around the feasibility edge, plus adversarial
    ones at the row budget."""
    rng = np.random.default_rng(24)
    for _ in range(120):
        yield rng.random((16, 16)) < rng.uniform(0.25, 0.5)
    for v in (2, 4, 8):
        for _ in range(20):
            base = rng.random((16 // v, 16)) < rng.uniform(0.3, 0.5)
            yield np.repeat(base, v, axis=0)
    for _ in range(30):
        # Two nonzeros per row in every quad: each row exactly at 8.
        tile = (rng.random((16, 4, 4)).argsort(axis=2) < 2).reshape(16, 16)
        tile = tile[:, rng.permutation(16)]
        yield tile
        # One more nonzero in one row: 9, over the budget.
        over = tile.copy()
        row = rng.integers(16)
        over[row, rng.choice(np.flatnonzero(~over[row]))] = True
        yield over
        # Swap a nonzero across two columns within one row: still 8 per
        # row, but the planted cover is usually broken.
        moved = tile.copy()
        on = rng.choice(np.flatnonzero(moved[row]))
        off = rng.choice(np.flatnonzero(~moved[row]))
        moved[row, [on, off]] = moved[row, [off, on]]
        yield moved
    dense = np.zeros((16, 16), dtype=bool)
    dense[:, :8] = True
    yield dense
    dense = dense.copy()
    dense[:, 8] = True
    yield dense


class TestFeasibilityOracle:
    def test_search_agrees_with_exhaustive_search(self):
        seen = {"feasible": 0, "infeasible_within_budget": 0, "greedy_missed": 0,
                "row_at_budget": 0, "row_over_budget": 0}
        for nz in oracle_tiles():
            exists = cover_exists(nz)
            row_max = nz.sum(axis=1).max()
            seen["feasible"] += exists
            seen["infeasible_within_budget"] += not exists and row_max <= 8
            seen["row_at_budget"] += row_max == 8
            seen["row_over_budget"] += row_max > 8
            for prefer in (True, False):
                cover = find_cover(nz, prefer_conflict_free=prefer, use_cache=False)
                assert (cover is not None) == exists
                if cover is not None:
                    assert cover_is_valid(nz, cover)
            if _greedy_cover(nz) is None:
                # Where greedy placement misses, the exact search decides.
                seen["greedy_missed"] += 1
                for prefer in (True, False):
                    assert (_bilateral_cover(nz, prefer) is not None) == exists
        # Both answers, both sides of the row budget and the exact search
        # itself (including its None within the budget) are exercised.
        assert min(seen.values()) >= 20, seen


class TestCompatibleQuads:
    def test_empty_tile_all_quads_compatible(self):
        nz = np.zeros((16, 16), dtype=bool)
        assert len(find_compatible_quads(nz)) == 1820  # C(16, 4)

    def test_full_tile_no_quads(self):
        nz = np.ones((16, 16), dtype=bool)
        assert len(find_compatible_quads(nz)) == 0

    def test_exact_definition(self):
        # Columns 0,1,2 share a nonzero row: any quad with all three fails.
        nz = tile_from_columns({0: [0], 1: [0], 2: [0]})
        quads = find_compatible_quads(nz)
        bad = [q for q in quads.tolist() if {0, 1, 2} <= set(q)]
        assert not bad
        # Quads with at most two of them are fine.
        assert any({0, 1} <= set(q) and 2 not in q for q in quads.tolist())

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError):
            find_compatible_quads(np.zeros((16, 8), dtype=bool))

    def test_masks(self):
        quads = np.array([[0, 1, 2, 3], [12, 13, 14, 15]])
        masks = quads_to_masks(quads)
        assert masks[0] == 0xF
        assert masks[1] == 0xF000


class TestFindCover:
    def test_identity_fast_path(self):
        nz = np.zeros((16, 16), dtype=bool)
        nz[:, 0] = True  # a single dense column: identity already 2:4
        cover = find_cover(nz)
        assert cover is not None
        assert cover.order == tuple(range(16))

    def test_reorder_needed_case(self):
        # Paper Figure 5-style: three columns colliding in one quad.
        nz = tile_from_columns(
            {0: list(range(16)), 1: list(range(16)), 2: list(range(16))}
        )
        cover = find_cover(nz)
        assert cover is not None
        assert cover_is_valid(nz, cover)
        # The three dense columns must land in different quads... or at
        # most two share one.
        order = list(cover.order)
        for q in range(4):
            quad = order[q * 4 : (q + 1) * 4]
            assert sum(c in (0, 1, 2) for c in quad) <= 2

    def test_impossible_tile(self):
        # Nine fully-dense columns: some quad must hold >= 3 of them.
        nz = np.zeros((16, 16), dtype=bool)
        nz[:, :9] = True
        assert find_cover(nz) is None

    def test_eight_dense_columns_possible(self):
        # Exactly 8 dense columns: 2 per quad works.
        nz = np.zeros((16, 16), dtype=bool)
        nz[:, :8] = True
        cover = find_cover(nz)
        assert cover is not None
        assert cover_is_valid(nz, cover)

    def test_greedy_and_bilateral_agree_on_feasibility(self):
        rng = np.random.default_rng(9)
        greedy_missed = 0
        for _ in range(60):
            nz = rng.random((16, 16)) < 0.3
            g = _greedy_cover(nz)
            b = _bilateral_cover(nz, prefer_conflict_free=False)
            if g is not None:
                assert cover_is_valid(nz, g)
                # exact search must also find one
                assert b is not None
            if g is None and b is not None:
                greedy_missed += 1
            if b is not None:
                assert cover_is_valid(nz, b)
        # greedy may miss some feasible tiles; find_cover covers the gap.

    def test_find_cover_none_means_truly_infeasible(self):
        rng = np.random.default_rng(10)
        for _ in range(40):
            nz = rng.random((16, 16)) < 0.45
            cover = find_cover(nz)
            exact = _bilateral_cover(nz, prefer_conflict_free=False)
            assert (cover is None) == (exact is None)
            if cover is not None:
                assert cover_is_valid(nz, cover)

    @given(st.floats(0.05, 0.5), st.integers(0, 2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_cover_validity_property(self, density, seed):
        rng = np.random.default_rng(seed)
        nz = rng.random((16, 16)) < density
        cover = find_cover(nz)
        if cover is not None:
            assert cover_is_valid(nz, cover)


class TestBankConflictPreference:
    def test_collision_counting(self):
        sol = CoverSolution(
            quads=((0, 8, 1, 2), (3, 4, 5, 6), (7, 9, 10, 11), (12, 13, 14, 15))
        )
        # First half holds 0 and 8; second half holds 7 and 15 -> two
        # same-bank pairs.
        assert sol.bank_collisions() == 2

    def test_identity_is_conflict_free(self):
        sol = CoverSolution(
            quads=((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))
        )
        assert sol.bank_collisions() == 0

    def test_preference_reduces_collisions(self):
        rng = np.random.default_rng(11)
        pref_total, nopref_total = 0, 0
        for _ in range(40):
            nz = rng.random((16, 16)) < 0.25
            c_pref = find_cover(nz, prefer_conflict_free=True)
            c_nopref = find_cover(nz, prefer_conflict_free=False)
            if c_pref is not None:
                pref_total += c_pref.bank_collisions()
            if c_nopref is not None:
                nopref_total += c_nopref.bank_collisions()
        assert pref_total <= nopref_total


class TestEviction:
    def test_least_compatible_is_the_obstructor(self):
        # Column 0 collides with everything; others are empty.
        nz = np.zeros((16, 16), dtype=bool)
        nz[:, 0] = True
        nz[:, 1] = True
        nz[:, 2] = True
        # 0,1,2 all dense: each appears in fewer quads than sparse columns.
        victim = least_compatible_column(nz)
        assert victim in (0, 1, 2)

    def test_zero_columns_never_evicted(self):
        nz = np.zeros((16, 16), dtype=bool)
        nz[0, 5] = True
        assert least_compatible_column(nz) == 5

    def test_all_zero_tile_rejected(self):
        with pytest.raises(ValueError):
            least_compatible_column(np.zeros((16, 16), dtype=bool))

    def test_matches_the_per_quad_loop(self):
        # The per-quad tally and sorted() tie-break the vectorized
        # version replaced: same victim on every seeded tile, so reorders
        # stay bit-identical.
        def reference(nz):
            freq = np.zeros(16, dtype=np.int64)
            for quad in find_compatible_quads(nz):
                freq[quad] += 1
            nnz = nz.sum(axis=0)
            candidates = np.flatnonzero(nnz > 0)
            return int(sorted(candidates, key=lambda c: (freq[c], -nnz[c]))[0])

        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(2000):
            nz = rng.random((16, 16)) < rng.random()
            nz[:, rng.integers(16, size=rng.integers(0, 8))] = False
            if nz.any():
                assert least_compatible_column(nz) == reference(nz)
                checked += 1
        assert checked > 1500
