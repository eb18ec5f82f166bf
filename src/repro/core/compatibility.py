"""Compatible-column-group search (the inner engine of Algorithm 1).

A *compatible column group* is a set of four columns of an MMA_TILE such
that no row has more than two nonzeros across them — i.e. placing those
four columns consecutively satisfies the SpTC 2:4 pattern.  Algorithm 1
enumerates all 4-column groups, merges disjoint pairs into 8-column
groups ("bilateral search"), and looks for two disjoint 8-column groups
covering all 16 columns.

:func:`find_cover` runs four stages, cheapest first:

1. **identity** — at high sparsity most tiles already satisfy 2:4 in
   their current order;
2. **row budget** — four quads hold at most two nonzeros of a row each,
   so a row with more than 8 nonzeros rules out every partition; such
   tiles are rejected exactly, with no search;
3. **greedy placement** — columns (heaviest first) drop into the first
   quad whose per-row budget they fit; catches almost all remaining
   tiles in linear time;
4. **table search** — the paper's exact bilateral search over fixed
   tables: the 12,870 8-column masks, each with its 35 splits into two
   quads.  A tile contributes only its compatible-quad flags, computed
   from 16-bit row masks with a popcount table; an 8-column mask is
   achievable when one of its splits has both quads compatible, and the
   cover is the first achievable mask (in priority order) whose
   complement is achievable too.

The search also implements the bank-conflict preference of Section 3.4.1:
under the padded B-tile layout, shared-memory rows ``r`` and ``r + 8``
collide in banks, so covers whose 8-column halves avoid columns congruent
modulo 8 are preferred.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

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


#: Per-row nonzero budget of a 16-column tile: four quads of at most two.
ROW_BUDGET = 8

#: 8-column masks whose splits the bilateral search tests per numpy pass.
_SCAN_CHUNK = 512


@dataclass(frozen=True)
class _MaskTables:
    """Tile-independent tables of the bilateral search, over 16 columns.

    Quads are ranked in ``itertools.combinations`` order.  The 8-column
    masks are indexed in ascending order, so mask ``i``'s complement is
    mask ``len - 1 - i``, and the first half holds exactly the masks that
    do not contain column 15.
    """

    pop16: np.ndarray  # (65536,) uint8 popcount of every 16-bit value
    combos: np.ndarray  # (1820, 4) int64 quad columns, by rank
    combo_masks: np.ndarray  # (1820,) uint16 quad column masks, by rank
    #: (12870, 35) uint16 per mask and split: the rank of the quad that
    #: holds the mask's lowest column, and of the other quad.
    split_lo: np.ndarray
    split_hi: np.ndarray
    by_mask: np.ndarray  # (6435,) first-half mask indices, ascending mask
    by_collisions: np.ndarray  # the same, stably sorted by bank collisions


@functools.cache
def _tables() -> _MaskTables:
    pop16 = np.zeros(1, dtype=np.uint8)
    for _ in range(16):
        pop16 = np.concatenate([pop16, pop16 + 1])
    combos = np.array(list(combinations(range(16), 4)), dtype=np.int64)
    combo_masks = quads_to_masks(combos).astype(np.uint16)
    rank = np.zeros(1 << 16, dtype=np.uint16)
    rank[combo_masks] = np.arange(len(combos), dtype=np.uint16)

    masks8 = np.flatnonzero(pop16 == 8).astype(np.uint16)
    bits = (masks8[:, None] >> np.arange(16, dtype=np.uint16)) & 1
    cols = np.nonzero(bits)[1].astype(np.uint16).reshape(-1, 8)  # ascending
    # The 35 four-of-eight picks holding the mask's lowest column, in
    # combinations order: ascending rank of that (lower-ranked) quad.
    picks = np.array(list(combinations(range(8), 4))[:35], dtype=np.intp)
    lo_masks = np.bitwise_or.reduce(np.uint16(1) << cols[:, picks], axis=2)
    hi_masks = masks8[:, None] ^ lo_masks

    half = np.arange(len(masks8) // 2, dtype=np.uint16)
    h, rest = masks8[half], ~masks8[half]
    # Same-bank pairs inside each 8-column half: bit i together with bit i+8.
    collisions = pop16[h & (h >> 8)] + pop16[rest & (rest >> 8)]
    return _MaskTables(
        pop16=pop16,
        combos=combos,
        combo_masks=combo_masks,
        split_lo=rank[lo_masks],
        split_hi=rank[hi_masks],
        by_mask=half,
        by_collisions=half[np.argsort(collisions, kind="stable")],
    )


def _compatible_flags(nz_mask: np.ndarray) -> np.ndarray:
    """(1820,) bool: which ranked quads keep every row within 2 nonzeros."""
    t = _tables()
    packed = np.packbits(nz_mask, axis=1, bitorder="little")
    rows = np.ascontiguousarray(packed).view("<u2").ravel()
    rows = np.unique(rows[t.pop16[rows] > 2])  # lighter rows fit any quad
    return np.all(t.pop16[rows[:, None] & t.combo_masks] <= 2, axis=0)


def find_compatible_quads(nz_mask: np.ndarray) -> np.ndarray:
    """All compatible 4-column groups of a tile.

    ``nz_mask`` is (rows, 16) boolean.  Returns (g, 4) column indices —
    every combination whose per-row nonzero count never exceeds 2
    (Algorithm 1, lines 2-8).
    """
    ncols = nz_mask.shape[1]
    if ncols != 16:
        raise ValueError(f"MMA_TILE must have 16 columns, got {ncols}")
    return _tables().combos[_compatible_flags(nz_mask)]


def quads_to_masks(quads: np.ndarray) -> np.ndarray:
    """Bit-mask (uint32) representation of column quads."""
    masks = np.zeros(len(quads), dtype=np.uint32)
    for j in range(quads.shape[1]):
        masks |= np.uint32(1) << quads[:, j].astype(np.uint32)
    return masks


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
    """Table-driven bilateral search (Algorithm 1, lines 9-17).

    An 8-column mask is achievable when one of its 35 splits into two
    quads has both quads compatible; a cover is an achievable mask whose
    complement is achievable too.  Masks are scanned in priority order —
    ascending mask, or ascending (bank collisions, mask) under the
    conflict preference — over the half without column 15, since a mask
    and its complement tie on collisions and the smaller one comes first.
    The first hit is taken, each half as its first valid split in quad
    rank order: the same cover as merging every disjoint compatible pair
    and sorting the unique 8-column masks.
    """
    ok = _compatible_flags(nz_mask)
    if np.count_nonzero(ok) < 4:
        return None
    t = _tables()
    last = len(t.split_lo) - 1
    order = t.by_collisions if prefer_conflict_free else t.by_mask
    for start in range(0, len(order), _SCAN_CHUNK):
        idx = order[start : start + _SCAN_CHUNK]
        lo_ok = ok[t.split_lo[idx]] & ok[t.split_hi[idx]]
        keep = lo_ok.any(axis=1)
        idx, lo_ok = idx[keep], lo_ok[keep]
        comp = last - idx.astype(np.intp)
        hi_ok = ok[t.split_lo[comp]] & ok[t.split_hi[comp]]
        hit = np.flatnonzero(hi_ok.any(axis=1))
        if len(hit):
            k = hit[0]
            i, s1 = idx[k], np.argmax(lo_ok[k])
            c, s2 = comp[k], np.argmax(hi_ok[k])
            lo, hi = t.split_lo, t.split_hi
            ranks = (lo[i, s1], hi[i, s1], lo[c, s2], hi[c, s2])
            return CoverSolution(
                quads=tuple(tuple(t.combos[r].tolist()) for r in ranks)
            )
    return None


def find_cover(
    nz_mask: np.ndarray, prefer_conflict_free: bool = True, use_cache: bool = True
) -> CoverSolution | None:
    """Find a 16-column cover by compatible quads, or None if impossible.

    Runs the four stages of the module docstring.  Greedy placement
    alone can miss a cover, so its failure falls through to the exact
    table search; a None return therefore means no partition into
    compatible quads exists.

    Tiles past the identity and row-budget stages are solved in
    *canonical* form — columns stably sorted by pattern, which is exact
    because the cover problem only depends on the multiset of column
    patterns — and the canonical solution is memoized on the row- and
    column-order-independent key (:func:`cover_cache_stats` counts these
    lookups; identity tiles and row-budget rejects make none).  At high
    sparsity canonical patterns recur massively across strips and slabs,
    so the hot path is a dict hit.  Caching never changes results: the
    cached value is exactly what the solver returns for that canonical
    tile, and the mapping back to original slots is deterministic.
    """
    rows, ncols = nz_mask.shape
    if ncols != 16:
        raise ValueError("find_cover expects a 16-column tile")
    # Identity fast path on the original slot order (pre-canonical): at
    # high sparsity most tiles already satisfy 2:4 in place, and identity
    # halves are conflict-free by construction.
    counts = nz_mask.reshape(rows, 4, 4).sum(axis=2)
    if np.all(counts <= 2):
        return _IDENTITY
    # Row budget: four quads hold at most 2 nonzeros of a row each, so a
    # row with more than 8 rules out every partition.  Such tiles skip
    # the canonical form, the cache and the search.
    if counts.sum(axis=1).max() > ROW_BUDGET:
        return None
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
    """The searching stages (greedy, then the exact table search) on one
    canonical tile."""
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
