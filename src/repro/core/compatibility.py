"""Compatible-column-group search (the inner engine of Algorithm 1).

A *compatible column group* is a set of four columns of an MMA_TILE such
that no row has more than two nonzeros across them — i.e. placing those
four columns consecutively satisfies the SpTC 2:4 pattern.  Algorithm 1
enumerates all 4-column groups, merges disjoint pairs into 8-column
groups ("bilateral search"), and looks for two disjoint 8-column groups
covering all 16 columns.

The implementation layers three strategies, cheapest first:

1. **identity fast path** — at high sparsity most tiles already satisfy
   2:4 in their current order;
2. **greedy placement** — columns (heaviest first) drop into the first
   quad whose per-row budget they fit; catches almost all remaining tiles
   in linear time;
3. **vectorized bilateral search** — the paper's exact algorithm, with
   column sets as 16-bit masks so the disjoint-pair merge and the
   complement lookup are single numpy operations.

The search also implements the bank-conflict preference of Section 3.4.1:
under the padded B-tile layout, shared-memory rows ``r`` and ``r + 8``
collide in banks, so covers whose 8-column halves avoid columns congruent
modulo 8 are preferred.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

_COMBO_CACHE: dict[int, np.ndarray] = {}
_FULL_MASK = np.uint32(0xFFFF)

#: Entries kept in the tile-cover memo before a wholesale reset.  The key
#: is ~33 bytes and the value a handful of small tuples, so the bound is
#: generous; it only exists to keep adversarial inputs from growing the
#: dict without limit.
COVER_CACHE_MAX_ENTRIES = 1 << 16

_MISSING = object()


@dataclass
class CoverCacheStats:
    """Hit/miss counters of the tile-cover memo cache."""

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


_COVER_CACHE: dict[bytes, "CoverSolution | None"] = {}
_COVER_STATS = CoverCacheStats()
#: Guards the counters: serving threads can preprocess concurrently, and
#: ``+= 1`` on a shared attribute is not atomic.
_COVER_STATS_LOCK = threading.Lock()


def cover_cache_stats() -> CoverCacheStats:
    """A snapshot of the cover-cache hit/miss counters."""
    with _COVER_STATS_LOCK:
        return replace(_COVER_STATS)


def clear_cover_cache() -> None:
    """Drop all memoized covers and reset the counters."""
    with _COVER_STATS_LOCK:
        _COVER_CACHE.clear()
        _COVER_STATS.hits = 0
        _COVER_STATS.misses = 0


def _canonical_columns(nz_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stable column order by pattern bytes, and the reordered tile.

    Cover existence and the solver's choices depend only on the multiset
    of column patterns (per-row constraints are symmetric), so solving on
    the canonical tile and mapping the result back through ``sigma`` is
    exact — and it turns the memo key into a column-order-independent
    invariant, which is what makes patterns recur massively.
    """
    sigma = np.array(
        sorted(range(nz_mask.shape[1]), key=lambda c: nz_mask[:, c].tobytes()),
        dtype=np.int64,
    )
    return sigma, nz_mask[:, sigma]


def _cover_cache_key(canon_mask: np.ndarray, prefer_conflict_free: bool) -> bytes:
    # The solver is also invariant under row permutation (every check is
    # a reduction over rows), so the key sorts the packed row patterns:
    # tiles differing only by row and/or column order share one entry.
    packed = np.packbits(canon_mask, axis=1)
    flag = b"\x01" if prefer_conflict_free else b"\x00"
    return flag + b"".join(sorted(bytes(r) for r in packed))


def _combos4(ncols: int) -> np.ndarray:
    """All 4-column combinations of ``ncols`` columns, cached."""
    if ncols not in _COMBO_CACHE:
        _COMBO_CACHE[ncols] = np.array(
            list(combinations(range(ncols), 4)), dtype=np.int64
        )
    return _COMBO_CACHE[ncols]


def find_compatible_quads(nz_mask: np.ndarray) -> np.ndarray:
    """All compatible 4-column groups of a tile.

    ``nz_mask`` is (rows, 16) boolean.  Returns (g, 4) column indices —
    every combination whose per-row nonzero count never exceeds 2
    (Algorithm 1, lines 2-8).
    """
    rows, ncols = nz_mask.shape
    if ncols != 16:
        raise ValueError(f"MMA_TILE must have 16 columns, got {ncols}")
    combos = _combos4(ncols)
    counts = nz_mask[:, combos].sum(axis=2, dtype=np.int16)  # (rows, ncombos)
    ok = np.all(counts <= 2, axis=0)
    return combos[ok]


def quads_to_masks(quads: np.ndarray) -> np.ndarray:
    """Bit-mask (uint32) representation of column quads."""
    masks = np.zeros(len(quads), dtype=np.uint32)
    for j in range(quads.shape[1]):
        masks |= np.uint32(1) << quads[:, j].astype(np.uint32)
    return masks


#: 8-bit popcount lookup table.
_POP8 = np.array([bin(i).count("1") for i in range(256)], dtype=np.int8)


def _mask_collisions(mask8: int) -> int:
    """Same-bank column pairs inside one 8-column half (bit i vs bit i+8)."""
    return int(_POP8[(mask8 & 0xFF) & (mask8 >> 8)])


def _mask_collisions_vec(masks8: np.ndarray) -> np.ndarray:
    """Vectorized :func:`_mask_collisions` over an array of 8-col masks."""
    return _POP8[(masks8 & 0xFF) & (masks8 >> 8)]


@dataclass(frozen=True)
class CoverSolution:
    """A successful 16-column cover: four ordered compatible quads.

    ``order`` concatenates the quads; placing the tile's columns in this
    order makes every aligned 4-column group 2:4-compatible.
    """

    quads: tuple[tuple[int, ...], ...]

    @property
    def order(self) -> tuple[int, ...]:
        return tuple(c for quad in self.quads for c in quad)

    def bank_collisions(self) -> int:
        """Same-bank column pairs within each 8-column half.

        Under the padded B-tile layout, shared-memory rows r and r+8
        collide in banks; an ldmatrix stage loads one 8-column half, so
        columns congruent mod 8 inside a half conflict (paper Figure 7b).
        """
        total = 0
        for half in (self.order[:8], self.order[8:]):
            residues = [c % 8 for c in half]
            total += len(residues) - len(set(residues))
        return total


_IDENTITY = CoverSolution(
    quads=((0, 1, 2, 3), (4, 5, 6, 7), (8, 9, 10, 11), (12, 13, 14, 15))
)


def _greedy_cover(nz_mask: np.ndarray) -> CoverSolution | None:
    """Greedy quad construction: heaviest columns first, first-fit quads."""
    rows = nz_mask.shape[0]
    order = np.argsort(-nz_mask.sum(axis=0), kind="stable")
    quad_counts = np.zeros((4, rows), dtype=np.int16)  # per-quad per-row nnz
    quad_cols: list[list[int]] = [[], [], [], []]
    for c in order:
        col = nz_mask[:, c].astype(np.int16)
        placed = False
        for q in range(4):
            if len(quad_cols[q]) == 4:
                continue
            if np.all(quad_counts[q] + col <= 2):
                quad_counts[q] += col
                quad_cols[q].append(int(c))
                placed = True
                break
        if not placed:
            return None
    return CoverSolution(quads=tuple(tuple(q) for q in quad_cols))


def _best_half_pairing(sol: CoverSolution) -> CoverSolution:
    """Re-pair the four quads into halves to minimize bank collisions."""
    q = sol.quads
    pairings = (
        ((0, 1), (2, 3)),
        ((0, 2), (1, 3)),
        ((0, 3), (1, 2)),
    )
    best, best_coll = sol, sol.bank_collisions()
    for (a, b), (c, d) in pairings:
        cand = CoverSolution(quads=(q[a], q[b], q[c], q[d]))
        coll = cand.bank_collisions()
        if coll < best_coll:
            best, best_coll = cand, coll
            if coll == 0:
                break
    return best


def _bilateral_cover(
    nz_mask: np.ndarray, prefer_conflict_free: bool
) -> CoverSolution | None:
    """Vectorized bilateral search (Algorithm 1, lines 9-17)."""
    quads = find_compatible_quads(nz_mask)
    if len(quads) < 4:
        return None
    masks = quads_to_masks(quads)
    # All disjoint quad pairs -> 8-column group masks.
    disjoint = (masks[:, None] & masks[None, :]) == 0
    ii, jj = np.nonzero(disjoint)
    keep = ii < jj
    ii, jj = ii[keep], jj[keep]
    if len(ii) == 0:
        return None
    masks8 = masks[ii] | masks[jj]
    u8, first_idx = np.unique(masks8, return_index=True)
    comp = _FULL_MASK ^ u8
    pos = np.searchsorted(u8, comp)
    pos_clipped = np.minimum(pos, len(u8) - 1)
    match = u8[pos_clipped] == comp
    if not np.any(match):
        return None
    cand = np.flatnonzero(match)
    if prefer_conflict_free and len(cand) > 1:
        colls = _mask_collisions_vec(u8[cand]) + _mask_collisions_vec(comp[cand])
        cand = cand[np.argsort(colls, kind="stable")]
    t = int(cand[0])
    r1, r2 = int(first_idx[t]), int(first_idx[pos_clipped[t]])
    return CoverSolution(
        quads=(
            tuple(quads[ii[r1]]),
            tuple(quads[jj[r1]]),
            tuple(quads[ii[r2]]),
            tuple(quads[jj[r2]]),
        )
    )


def find_cover(
    nz_mask: np.ndarray, prefer_conflict_free: bool = True, use_cache: bool = True
) -> CoverSolution | None:
    """Find a 16-column cover by compatible quads, or None if impossible.

    The greedy and bilateral strategies find a cover whenever one exists
    is *not* guaranteed for greedy alone, so greedy failure falls through
    to the exact bilateral search; a None return therefore means no
    partition into compatible quads exists.

    Non-identity tiles are solved in *canonical* form — columns stably
    sorted by pattern, which is exact because the cover problem only
    depends on the multiset of column patterns — and the canonical
    solution is memoized on the row- and column-order-independent key
    (:func:`cover_cache_stats` exposes the counters).  At high sparsity
    canonical patterns recur massively across strips and slabs, so the
    hot path is a dict hit.  Caching never changes results: the cached
    value is exactly what the solver returns for that canonical tile,
    and the mapping back to original slots is deterministic.
    """
    rows, ncols = nz_mask.shape
    if ncols != 16:
        raise ValueError("find_cover expects a 16-column tile")
    # Identity fast path on the original slot order (pre-canonical): at
    # high sparsity most tiles already satisfy 2:4 in place, and identity
    # halves are conflict-free by construction.
    counts = nz_mask.reshape(rows, 4, 4).sum(axis=2)
    if np.all(counts <= 2):
        if not prefer_conflict_free or _IDENTITY.bank_collisions() == 0:
            return _IDENTITY
    sigma, canon = _canonical_columns(nz_mask)
    if use_cache:
        key = _cover_cache_key(canon, prefer_conflict_free)
        cached = _COVER_CACHE.get(key, _MISSING)
        hit = cached is not _MISSING
        with _COVER_STATS_LOCK:
            if hit:
                _COVER_STATS.hits += 1
            else:
                _COVER_STATS.misses += 1
        if hit:
            canon_solution = cached  # type: ignore[assignment]
        else:
            canon_solution = _solve_cover(canon, prefer_conflict_free)
            if len(_COVER_CACHE) >= COVER_CACHE_MAX_ENTRIES:
                _COVER_CACHE.clear()
            _COVER_CACHE[key] = canon_solution
    else:
        canon_solution = _solve_cover(canon, prefer_conflict_free)
    if canon_solution is None:
        return None
    solution = CoverSolution(
        quads=tuple(
            tuple(int(sigma[c]) for c in quad) for quad in canon_solution.quads
        )
    )
    if prefer_conflict_free:
        # The bank-conflict preference lives in original slot space (it
        # scores slot residues mod 8), so repair after mapping back.
        solution = _best_half_pairing(solution)
    return solution


def _solve_cover(
    nz_mask: np.ndarray, prefer_conflict_free: bool
) -> CoverSolution | None:
    """The layered search (greedy, then exact bilateral) on one tile."""
    rows = nz_mask.shape[0]
    counts = nz_mask.reshape(rows, 4, 4).sum(axis=2)
    if np.all(counts <= 2):
        return _IDENTITY
    greedy = _greedy_cover(nz_mask)
    if greedy is not None:
        # Conflict preference is a cheap local repair (re-pairing quads
        # into halves) applied by the caller in original slot space.
        return greedy
    return _bilateral_cover(nz_mask, prefer_conflict_free)


def least_compatible_column(nz_mask: np.ndarray) -> int:
    """The column appearing in the fewest compatible quads (retry victim).

    Paper Section 3.2: on reorder failure, "move the column that appears
    least frequently in all compatible column groups with 4 columns to
    the end".  Ties break toward the column with the most nonzeros (it
    obstructs the most groups); zero columns are never evicted.
    """
    freq = np.bincount(find_compatible_quads(nz_mask).ravel(), minlength=16)
    nnz = nz_mask.sum(axis=0)
    # Exclude all-zero columns: they are universally compatible padding.
    candidates = np.flatnonzero(nnz > 0)
    if len(candidates) == 0:
        raise ValueError("tile has no nonzero columns; nothing to evict")
    # (frequency asc, nnz desc); lexsort is stable, so ties keep the
    # lowest column.
    order = np.lexsort((-nnz[candidates], freq[candidates]))
    return int(candidates[order[0]])
