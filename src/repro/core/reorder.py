"""Multi-granularity sparsity reorder (paper Section 3.2, Algorithm 1).

The reorder works per *slab* — a BLOCK_TILE-tall row strip of the sparse
matrix A:

1. **BLOCK_TILE granularity**: columns that are all-zero across the slab
   move to the end and are never computed (the SpTC skips them wholesale).
2. **MMA_TILE granularity**: the surviving columns are processed in groups
   of 16; within each group, each 16-row strip of the slab searches for a
   column permutation making every aligned quad 2:4-compatible
   (Algorithm 1's bilateral search over compatible column groups).
3. **Reorder retry**: when some strip of a group has no valid cover, the
   column participating in the fewest compatible quads is *evicted* —
   appended to the end of the slab's work list, where the growing pool of
   padding slots gives it another chance (paper Figure 5 c-d).
4. **Guaranteed fallback**: a column evicted too many times forces *split
   mode* — its group is emitted at 50% occupancy (two real columns per
   quad), which satisfies 2:4 unconditionally.  Split mode preserves
   correctness but inflates K; the paper's *success* criterion is exactly
   that K does not grow ("without severe reorder retry", Section 4.3).

Each slab's outcome is a :class:`SlabReorder`, which is what the process
pool returns.  A :class:`ReorderResult` holds every slab's arrays once,
flat over all slabs, plus one per-slab table; its ``slabs`` are
zero-copy :class:`SlabReorder` views for per-slab readers.
"""

from __future__ import annotations

import os
from collections import deque
from dataclasses import dataclass

import numpy as np

from .compatibility import (
    cover_cache_stats,
    find_cover,
    least_compatible_column,
)
from .tiles import MMA_TILE, TileConfig

#: Retry budget per column before split mode engages.
MAX_EVICTIONS_PER_COLUMN = 3

#: Below this many matrix elements the process-pool spin-up costs more
#: than the slab parallelism saves, so ``workers=None`` stays serial.
PARALLEL_MIN_ELEMS = 1 << 20

#: Slot layout used by split mode: two real columns per quad.
_SPLIT_SLOTS = (0, 1, 4, 5, 8, 9, 12, 13)

_IDENTITY_PERM = np.arange(MMA_TILE, dtype=np.int8)


@dataclass
class SlabReorder:
    """Reorder outcome for one BLOCK_TILE row slab.

    ``col_ids``: original column id per reordered slot, ``-1`` marking the
    zero-padding slots; length ``n_groups * 16``.  This array is the
    slab's part of the storage format's ``col_idx_array``.

    ``tile_perms``: per strip and group, the within-group permutation
    (``block_col_idx_array``): slot ``j`` of the reordered tile holds the
    group's pre-reorder slot ``tile_perms[s, g, j]``.
    """

    slab_index: int
    num_rows: int
    col_ids: np.ndarray
    tile_perms: np.ndarray
    evictions: int = 0
    split_groups: int = 0

    @property
    def n_groups(self) -> int:
        return len(self.col_ids) // MMA_TILE

    @property
    def n_strips(self) -> int:
        return self.tile_perms.shape[0]

    def group_col_ids(self, g: int) -> np.ndarray:
        """Original column ids of group ``g``'s slots (pre-permutation)."""
        return self.col_ids[g * MMA_TILE : (g + 1) * MMA_TILE]


def concat_rows(parts: list[np.ndarray], row_shape: tuple, dtype) -> np.ndarray:
    """``parts`` reshaped to rows of ``row_shape`` and concatenated; the
    empty seed keeps the result typed when there are no parts."""
    return np.concatenate(
        [np.zeros((0, *row_shape), dtype=dtype)]
        + [p.reshape(-1, *row_shape) for p in parts]
    )


@dataclass
class ReorderResult:
    """Reorder outcome for a whole matrix, flat over all slabs.

    ``col_ids`` (``(sum groups * 16,)`` int32) and ``tile_perms``
    (``(T, 16)`` int8, tiles in (slab, strip, group) order) hold every
    slab's arrays back to back.  ``table`` (``(n_slabs, 4)`` int64) holds
    per slab ``n_strips``, ``n_groups``, ``evictions`` and ``split_groups``;
    a slab's index is its row, and its offsets are cumulative sums.
    """

    shape: tuple[int, int]
    config: TileConfig
    table: np.ndarray
    col_ids: np.ndarray
    tile_perms: np.ndarray
    #: Observability (not persisted): cover-cache traffic attributable to
    #: this reorder and the worker-pool width that produced it.
    cover_cache_hits: int = 0
    cover_cache_misses: int = 0
    workers_used: int = 1

    @classmethod
    def assemble(
        cls, shape: tuple, config: TileConfig, slabs: list[SlabReorder], **observed
    ) -> "ReorderResult":
        """One flat result from per-slab outcomes, in slab order."""
        table = [[s.n_strips, s.n_groups, s.evictions, s.split_groups] for s in slabs]
        return cls(
            shape,
            config,
            table=np.array(table, dtype=np.int64).reshape(-1, 4),
            col_ids=concat_rows([s.col_ids for s in slabs], (), np.int32),
            tile_perms=concat_rows([s.tile_perms for s in slabs], (MMA_TILE,), np.int8),
            **observed,
        )

    @property
    def n_strips(self) -> np.ndarray:
        """(n_slabs,) 16-row strips per slab."""
        return self.table[:, 0]

    @property
    def n_groups(self) -> np.ndarray:
        """(n_slabs,) 16-column groups per slab."""
        return self.table[:, 1]

    def tile_splits(self) -> np.ndarray:
        """Where each slab after the first starts in the flat tile arrays."""
        return np.cumsum(self.n_strips * self.n_groups)[:-1]

    @property
    def slabs(self) -> tuple[SlabReorder, ...]:
        """Zero-copy per-slab views of the flat arrays."""
        col_ids = np.split(self.col_ids, MMA_TILE * np.cumsum(self.n_groups)[:-1])
        perms = np.split(self.tile_perms, self.tile_splits())
        return tuple(
            SlabReorder(i, MMA_TILE * s, c, p.reshape(s, g, MMA_TILE), e, sg)
            for i, ((s, g, e, sg), c, p) in enumerate(
                zip(self.table.tolist(), col_ids, perms)
            )
        )

    def tile_index(self) -> tuple[np.ndarray, ...]:
        """Where every tile sits, from the table alone: its global strip
        ``(T,)``, its group within the slab ``(T,)``, the first matrix row
        of every strip ``(S,)``, and the original column id of each
        reordered slot ``(T, 16)`` in the order the tile computes them
        (``-1`` marks padding; one gather through ``tile_perms``)."""
        strip_slab = np.repeat(np.arange(len(self.table)), self.n_strips)
        tile_strip = np.repeat(np.arange(len(strip_slab)), self.n_groups[strip_slab])
        # A rank within a run of a sorted index is its distance from the
        # run's first element.
        tile_group = np.arange(len(tile_strip)) - tile_strip.searchsorted(tile_strip)
        strip_rank = np.arange(len(strip_slab)) - strip_slab.searchsorted(strip_slab)
        strip_row = self.config.block_tile * strip_slab + MMA_TILE * strip_rank
        first_group = np.cumsum(self.n_groups) - self.n_groups
        group = first_group[strip_slab[tile_strip]] + tile_group
        columns = self.col_ids.reshape(-1, MMA_TILE)[group[:, None], self.tile_perms]
        return tile_strip, tile_group, strip_row, columns

    @property
    def success(self) -> bool:
        """Paper's success criterion: reordered K within the original K."""
        return bool(np.all(self.n_groups <= -(-self.shape[1] // MMA_TILE)))

    @property
    def total_evictions(self) -> int:
        return int(self.table[:, 2].sum())

    @property
    def total_groups(self) -> int:
        return int(self.n_groups.sum())

    @property
    def skipped_column_fraction(self) -> float:
        """Fraction of (slab, column) work eliminated by the reorder."""
        total = len(self.table) * self.shape[1]
        return 1.0 - int((self.col_ids >= 0).sum()) / total if total else 0.0


def _zero_padded_strips(slab: np.ndarray) -> np.ndarray:
    """A slab as (strips, 16, K + 1), with a zero column appended last so
    that slot id ``-1`` (padding) reads zeros."""
    rows, k = slab.shape
    pad = np.zeros((rows, 1), dtype=slab.dtype)
    return np.concatenate([slab, pad], axis=1).reshape(-1, MMA_TILE, k + 1)


def gather_tiles(slab: np.ndarray, slab_r: SlabReorder) -> np.ndarray:
    """(strips, groups, 16, 16) tiles of ``slab`` in reordered slot order:
    one fancy-index gather of each slot's original column (padding reads
    the appended zero column)."""
    strips = _zero_padded_strips(slab)
    groups = slab_r.col_ids.reshape(-1, MMA_TILE)
    columns = groups[np.arange(len(groups))[:, None], slab_r.tile_perms]
    return strips[
        np.arange(len(strips))[:, None, None, None],
        np.arange(MMA_TILE)[:, None],
        columns[:, :, None, :],
    ]


def _pad_group(cols: list[int]) -> list[int]:
    return cols + [-1] * (MMA_TILE - len(cols))


def reorder_slab(
    slab: np.ndarray,
    slab_index: int,
    avoid_bank_conflicts: bool = True,
    max_evictions_per_column: int = MAX_EVICTIONS_PER_COLUMN,
) -> SlabReorder:
    """Apply the multi-granularity reorder to one slab.

    ``slab`` is the (H, K) dense view of the slab; H must be a multiple of
    16.  Returns a :class:`SlabReorder` that always yields a valid 2:4
    layout (split-mode fallback guarantees it).
    """
    rows, k = slab.shape
    if rows % MMA_TILE:
        raise ValueError(f"slab height {rows} not a multiple of {MMA_TILE}")
    strips = rows // MMA_TILE
    slab_nz = slab != 0
    strips_nz = _zero_padded_strips(slab_nz)

    # --- BLOCK_TILE granularity: drop all-zero columns -----------------------
    nonzero_cols = np.flatnonzero(np.any(slab_nz, axis=0))
    work: deque[int] = deque(int(c) for c in nonzero_cols)

    eviction_counts: dict[int, int] = {}
    col_ids: list[int] = []
    perms: list[np.ndarray] = []  # each (strips, 16)
    evictions = 0
    split_groups = 0

    # --- MMA_TILE granularity with retry -------------------------------------
    while work:
        group: list[int] = []
        while work and len(group) < MMA_TILE:
            group.append(work.popleft())

        force_split = any(
            eviction_counts.get(c, 0) >= max_evictions_per_column for c in group
        )
        while not force_split:
            padded = _pad_group(group)
            group_nz = strips_nz[:, :, padded]  # (strips, 16, 16)
            strip_perms = np.empty((strips, MMA_TILE), dtype=np.int8)
            failing: tuple[int, np.ndarray] | None = None
            for s in range(strips):
                tile_nz = group_nz[s]
                cover = find_cover(tile_nz, prefer_conflict_free=avoid_bank_conflicts)
                if cover is None:
                    failing = (s, tile_nz)
                    break
                strip_perms[s] = np.asarray(cover.order, dtype=np.int8)
            if failing is None:
                col_ids.extend(padded)
                perms.append(strip_perms)
                break
            # Reorder retry: evict the least compatible column of the
            # failing strip's tile and push it to the end of the slab.
            _, tile_nz = failing
            victim_slot = least_compatible_column(tile_nz)
            victim = group.pop(victim_slot)
            evictions += 1
            eviction_counts[victim] = eviction_counts.get(victim, 0) + 1
            # Re-evaluate the split condition after every eviction: once a
            # column exhausts its retry budget, re-queueing it only defers
            # the inevitable (and lets the rest of the group keep burning
            # evictions).  Restore the victim and emit this group in split
            # mode now, keeping the total retry cost within the budget.
            if eviction_counts[victim] >= max_evictions_per_column:
                group.insert(victim_slot, victim)
                force_split = True
                continue
            work.append(victim)
            if not group:
                break  # everything evicted; group dissolves
        else:
            # Split mode: place up to 8 columns, two per quad; push the rest back.
            placed, rest = group[:8], group[8:]
            for c in reversed(rest):
                work.appendleft(c)
            padded = [-1] * MMA_TILE
            for j, c in zip(_SPLIT_SLOTS, placed):
                padded[j] = c
            col_ids.extend(padded)
            perms.append(np.tile(_IDENTITY_PERM, (strips, 1)))
            split_groups += 1

    if perms:
        tile_perms = np.stack(perms, axis=1)  # (strips, groups, 16)
    else:
        tile_perms = np.zeros((strips, 0, MMA_TILE), dtype=np.int8)
    return SlabReorder(
        slab_index=slab_index,
        num_rows=rows,
        col_ids=np.asarray(col_ids, dtype=np.int32),
        tile_perms=tile_perms,
        evictions=evictions,
        split_groups=split_groups,
    )


def padded_slab(a: np.ndarray, slab_index: int, block_tile: int) -> np.ndarray:
    """BLOCK_TILE row slab ``slab_index`` of ``a``; a trailing partial slab
    is zero-padded to a multiple of MMA_TILE rows."""
    r0 = slab_index * block_tile
    slab = a[r0 : r0 + block_tile]
    pad = -slab.shape[0] % MMA_TILE
    if pad:
        slab = np.vstack([slab, np.zeros((pad, a.shape[1]), dtype=a.dtype)])
    return slab


def resolve_workers(workers: int | None, n_elems: int, n_slabs: int) -> int:
    """Worker-pool width for a reorder: explicit request, or a size-gated
    auto policy (``workers=None``/``0``) that stays serial below
    :data:`PARALLEL_MIN_ELEMS` or when there is nothing to parallelize."""
    if n_slabs <= 1:
        return 1
    if workers is None or workers == 0:
        if n_elems < PARALLEL_MIN_ELEMS:
            return 1
        return max(1, min(os.cpu_count() or 1, n_slabs))
    return max(1, min(int(workers), n_slabs))


def _reorder_slab_task(
    payload: tuple[np.ndarray, int, bool],
) -> tuple[SlabReorder, int, int]:
    """Reorder one slab and report this process's cover-cache delta, so
    the parent can aggregate hit rates over pool workers."""
    slab, slab_index, avoid_bank_conflicts = payload
    before = cover_cache_stats()
    r = reorder_slab(slab, slab_index, avoid_bank_conflicts=avoid_bank_conflicts)
    after = cover_cache_stats()
    return r, after.hits - before.hits, after.misses - before.misses


def reorder_matrix(
    a: np.ndarray,
    config: TileConfig | None = None,
    avoid_bank_conflicts: bool = True,
    workers: int | None = None,
) -> ReorderResult:
    """Multi-granularity reorder of a full (M, K) sparse matrix.

    Rows are padded (virtually) to a multiple of BLOCK_TILE: a trailing
    partial slab is reordered as a shorter slab.

    Slabs are independent, so with ``workers`` > 1 (or ``workers=None``
    and a matrix above :data:`PARALLEL_MIN_ELEMS`) they fan out over a
    ``concurrent.futures`` process pool.  The parallel path is
    bit-identical to the serial one: slab order is preserved and
    :func:`reorder_slab` is deterministic.
    """
    config = config or TileConfig()
    h = config.block_tile
    payloads = [
        (padded_slab(a, si, h), si, avoid_bank_conflicts)
        for si in range(-(-a.shape[0] // h))
    ]
    n_workers = resolve_workers(workers, a.size, len(payloads))
    done = None
    if n_workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunksize = max(1, len(payloads) // (n_workers * 4))
        try:
            with ProcessPoolExecutor(max_workers=n_workers) as pool:
                done = list(pool.map(_reorder_slab_task, payloads, chunksize=chunksize))
        except OSError:
            # Sandboxes without working multiprocessing primitives fall
            # back to the serial path rather than failing the reorder.
            n_workers = 1
    if done is None:
        done = [_reorder_slab_task(p) for p in payloads]
    return ReorderResult.assemble(
        a.shape,
        config,
        [r for r, _, _ in done],
        cover_cache_hits=sum(hits for _, hits, _ in done),
        cover_cache_misses=sum(misses for _, _, misses in done),
        workers_used=n_workers,
    )


def validate_reorder(a: np.ndarray, result: ReorderResult) -> None:
    """Assert the reorder invariants on a concrete matrix.

    * every slot's column id refers to a real column (or -1 padding);
    * each nonzero column of each slab appears in exactly one slot;
    * every strip x group tile, with its permutation applied, satisfies 2:4.

    Raises AssertionError with a diagnostic on violation.
    """
    h = result.config.block_tile
    for slab_r in result.slabs:
        nz = padded_slab(a, slab_r.slab_index, h) != 0
        nonzero_cols = set(np.flatnonzero(np.any(nz, axis=0)).tolist())
        used = [c for c in slab_r.col_ids.tolist() if c >= 0]
        assert len(used) == len(set(used)), f"slab {slab_r.slab_index}: duplicate slots"
        assert set(used) == nonzero_cols, (
            f"slab {slab_r.slab_index}: slots cover {len(set(used))} columns, "
            f"expected {len(nonzero_cols)}"
        )
        tiles = gather_tiles(nz, slab_r)
        counts = tiles.reshape(*tiles.shape[:-1], 4, 4).sum(axis=-1)
        bad = np.argwhere(np.any(counts > 2, axis=(2, 3)))
        assert not len(bad), (
            "slab {} strip {} group {}: 2:4 violated".format(slab_r.slab_index, *bad[0])
        )
