"""The reorder-aware storage format (paper Section 3.3).

A :class:`JigsawMatrix` stores the three index levels plus compressed
values, each once and flat over all slabs, like the paper's whole-matrix
arrays; a per-slab table (:attr:`ReorderResult.table`) gives each slab's
offsets:

* ``col_idx_array`` — the original column id of every reordered slot,
  slab after slab (zero columns dropped; ``-1`` marks padding slots);
* ``block_col_idx_array`` — per tile, the within-group column
  permutation chosen by the MMA_TILE reorder;
* ``sptc_col_idx_array`` — the 2-bit SpTC metadata: the in-quad position
  of every kept value, stored once.  Both word layouts the kernels load
  (one mma.sp's 16 words back to back, and the v3 interleaved layout of
  two ops' 32 words permuted for one ldmatrix) are derived from it;
* compressed values per tile: a 16x8 fp16 block, stored contiguously in
  the Z-shaped swizzle order.

Tiles are in (slab, strip, group) order.  Per-slab readers (the tile
kernels' timing model, the examples) read :attr:`JigsawMatrix.slabs`:
zero-copy :class:`JigsawSlab` views shaped ``(strips, groups, 16, 8)``.

One ``mma.sp.m16n8k32`` consumes two adjacent 16-column groups, so the
format pairs groups into *ops*; an odd trailing group pairs with a
virtual all-zero group.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.formats.nm import compress_nm
from repro.gpu.scheduler import ProfileMemo
from .compiled import expand_tile
from .formatspec import FormatSpec
from .metadata import interleave_metadata, tile_metadata_words
from .reorder import (
    ReorderResult,
    SlabReorder,
    concat_rows,
    gather_tiles,
    padded_slab,
    reorder_matrix,
    reorder_slab,
)
from .swizzle import swizzle_block, unswizzle_block
from .tiles import MMA_TILE, TileConfig


#: In-quad positions of an absent group's all-zero values: legal for the
#: hardware (strictly increasing per quad).
_PAD_POSITIONS = np.array([0, 1] * 4, dtype=np.uint8)


@dataclass
class JigsawSlab:
    """Zero-copy view of one BLOCK_TILE row slab of a :class:`JigsawMatrix`.

    ``positions`` is the only stored copy of the SpTC metadata; the naive
    and interleaved word layouts are computed from it on access.
    """

    reorder: SlabReorder
    # (strips, groups, 16, 8) fp16 — kept values per strip x group tile.
    values: np.ndarray
    # (strips, groups, 16, 8) uint8 — in-group positions of kept values.
    positions: np.ndarray

    @property
    def n_groups(self) -> int:
        return self.values.shape[1]

    @property
    def n_strips(self) -> int:
        return self.values.shape[0]

    @property
    def n_ops(self) -> int:
        """mma.sp operations per strip per 8-wide N tile: groups pair into
        ops, and a slab without groups still counts one padded op."""
        return max(1, -(-self.n_groups // 2))

    @property
    def meta_words(self) -> np.ndarray:
        """(strips, ops, 16) uint32 — naive per-op metadata words.

        An odd trailing group pairs with an all-zero group at legal
        positions.
        """
        strips, groups = self.positions.shape[:2]
        pos = np.empty((strips, 2 * self.n_ops, MMA_TILE, 8), dtype=np.uint8)
        pos[...] = _PAD_POSITIONS
        pos[:, :groups] = self.positions
        # Row i of an op's 16x16 positions: group 2*op's 8, then 2*op+1's.
        ops = pos.reshape(strips, self.n_ops, 2, MMA_TILE, 8).swapaxes(2, 3)
        return tile_metadata_words(ops.reshape(strips, self.n_ops, MMA_TILE, MMA_TILE))

    @property
    def meta_interleaved(self) -> np.ndarray:
        """(strips, ceil(ops/2), 32) uint32 — v3 interleaved layout; an odd
        trailing op pairs with zero words."""
        words = self.meta_words
        strips, n_ops = words.shape[:2]
        pairs = np.zeros((strips, 2 * -(-n_ops // 2), MMA_TILE), dtype=np.uint32)
        pairs[:, :n_ops] = words
        return interleave_metadata(pairs[:, 0::2], pairs[:, 1::2])

    def swizzled_values(self, strip: int, group: int) -> np.ndarray:
        """The (128,) Z-swizzled contiguous storage of one value block."""
        return swizzle_block(self.values[strip, group])


@dataclass
class JigsawMatrix:
    """A sparse matrix in the reorder-aware storage format."""

    shape: tuple[int, int]
    config: TileConfig
    reorder: ReorderResult
    #: (T, 16, 8) fp16 — kept values per tile, row-aligned with
    #: ``reorder.tile_perms``.
    values: np.ndarray
    #: (T, 16, 8) uint8 — in-group positions of the kept values.
    positions: np.ndarray
    #: Reorder setting the format was built with; persisted by the
    #: serialization header (v2) so artifacts built with different
    #: settings can never be confused.
    avoid_bank_conflicts: bool = True
    #: Storage format of the plan dimension this matrix was built under
    #: (see :mod:`repro.core.formatspec`).  A ``JigsawMatrix`` itself is
    #: always rigid 2:4 storage; the spec records which format family
    #: the owning plan was configured for, persisted in the artifact
    #: header so artifacts from different format dimensions never alias.
    format_spec: FormatSpec = field(default_factory=FormatSpec)
    #: Monotonic dynamic-sparsity version: 0 for a fresh build, bumped by
    #: every :meth:`repaired` copy.  Folded into the plan
    #: cache key and persisted in the artifact header, so repaired artifacts
    #: never alias their pre-update ancestors on disk.
    content_version: int = 0
    #: Lazily-built whole-plan lowering (see :mod:`repro.core.compiled`);
    #: derived from the format, so artifacts do not persist it.
    _compiled: object | None = field(default=None, repr=False, compare=False)
    _compile_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )
    #: Simulated tile-launch profiles by ``(n, spec, device)`` (see
    #: :func:`~repro.core.kernels.base.jigsaw_profile`).
    _profiles: ProfileMemo = field(
        default_factory=ProfileMemo, repr=False, compare=False
    )

    def compiled_plan(self):
        """The (cached) :class:`~repro.core.compiled.CompiledPlan`.

        Compiles on first use, once: concurrent first callers (a serving
        executor's pool) share one plan and so one profile memo.
        """
        if self._compiled is None:
            with self._compile_lock:
                if self._compiled is None:
                    from .compiled import compile_plan

                    self._compiled = compile_plan(self)
        return self._compiled

    # -- construction -----------------------------------------------------------

    @classmethod
    def build(
        cls,
        a: np.ndarray,
        config: TileConfig | None = None,
        avoid_bank_conflicts: bool = True,
        workers: int | None = None,
    ) -> "JigsawMatrix":
        """Reorder and compress a sparse fp16 matrix.

        This is the one-time preprocessing the paper amortizes over
        inference runs (Section 3.1); the returned object is reusable
        across any number of SpMMs.  ``workers`` is forwarded to
        :func:`~repro.core.reorder.reorder_matrix`'s slab pool.
        """
        config = config or TileConfig()
        reorder = reorder_matrix(
            a, config, avoid_bank_conflicts=avoid_bank_conflicts, workers=workers
        )
        return cls.from_reorder(a, reorder, avoid_bank_conflicts=avoid_bank_conflicts)

    @classmethod
    def from_reorder(
        cls,
        a: np.ndarray,
        reorder: ReorderResult,
        avoid_bank_conflicts: bool = True,
    ) -> "JigsawMatrix":
        """Compress ``a`` against an already-computed reorder decision."""
        h = reorder.config.block_tile
        return cls._assemble(
            reorder,
            [_compress_slab(padded_slab(a, r.slab_index, h), r) for r in reorder.slabs],
            avoid_bank_conflicts=avoid_bank_conflicts,
        )

    @classmethod
    def _assemble(cls, reorder: ReorderResult, tiles: list, **fields) -> "JigsawMatrix":
        """A matrix from its reorder and each slab's (values, positions)
        tiles, in slab order: one concatenation per field."""
        return cls(
            shape=reorder.shape,
            config=reorder.config,
            reorder=reorder,
            values=concat_rows([v for v, _ in tiles], (MMA_TILE, 8), np.float16),
            positions=concat_rows([p for _, p in tiles], (MMA_TILE, 8), np.uint8),
            **fields,
        )

    # -- dynamic sparsity -------------------------------------------------------

    def repaired(
        self, a_new: np.ndarray, dirty_slabs: "set[int] | list[int]"
    ) -> "JigsawMatrix":
        """Incrementally repaired copy against updated matrix content.

        ``a_new`` is the post-update dense matrix (same shape/dtype
        semantics as the original build input); ``dirty_slabs`` names the
        BLOCK_TILE row slabs whose content changed.  Only dirty slabs are
        re-reordered and re-compressed; the clean slabs' rows are copied
        from ``self`` into the new flat arrays.  That is exact because
        :func:`~repro.core.reorder.reorder_slab` is deterministic and
        slabs are independent: the result is bit-identical to a full
        ``JigsawMatrix.build(a_new, ...)`` rebuild.

        ``self`` is never mutated, so in-flight consumers of the old
        version keep computing bit-identical results.  The copy's
        :attr:`content_version` is ``self.content_version + 1``.  If
        ``self`` was compiled, the copy is compiled too, through
        :meth:`compiled_plan` (a full batched lowering costs about what
        patching the old plan's arrays did).
        """
        if a_new.shape != self.shape:
            raise ValueError(
                f"update shape {a_new.shape} != matrix shape {self.shape}"
            )
        dirty = {int(s) for s in dirty_slabs}
        if any(s < 0 or s >= len(self.reorder.table) for s in dirty):
            raise ValueError(f"dirty slab index out of range: {sorted(dirty)}")
        h = self.config.block_tile
        old = self.slabs
        slab_reorders = [s.reorder for s in old]
        tiles = [(s.values, s.positions) for s in old]
        for si in sorted(dirty):
            slab = padded_slab(a_new, si, h)
            slab_reorders[si] = reorder_slab(
                slab, si, avoid_bank_conflicts=self.avoid_bank_conflicts
            )
            tiles[si] = _compress_slab(slab, slab_reorders[si])
        new = self._assemble(
            ReorderResult.assemble(self.shape, self.config, slab_reorders),
            tiles,
            avoid_bank_conflicts=self.avoid_bank_conflicts,
            format_spec=self.format_spec,
            content_version=self.content_version + 1,
        )
        if self._compiled is not None:
            new.compiled_plan()
        return new

    @property
    def slabs(self) -> tuple[JigsawSlab, ...]:
        """Zero-copy per-slab views of the flat arrays, shaped
        ``(strips, groups, 16, 8)``; built on each access."""
        splits = self.reorder.tile_splits()
        return tuple(
            JigsawSlab(r, *(x.reshape(*r.tile_perms.shape, 8) for x in (v, p)))
            for r, v, p in zip(
                self.reorder.slabs,
                np.split(self.values, splits),
                np.split(self.positions, splits),
            )
        )

    # -- reconstruction -----------------------------------------------------------

    def to_dense(self) -> np.ndarray:
        """Exact reconstruction of the original matrix.

        One scatter of every expanded tile back through the slot map its
        compression gathered with; padding slots land in an extra column
        that is dropped.
        """
        m, k = self.shape
        tile_strip, _, strip_row, columns = self.reorder.tile_index()
        # Every strip starts below row m, so its rows end before m + 16.
        out = np.zeros((m + MMA_TILE, k + 1), dtype=np.float16)
        rows = strip_row[tile_strip, None, None] + np.arange(MMA_TILE)[:, None]
        out[rows, columns[:, None, :]] = expand_tile(self.values, self.positions)
        return out[:m, :k]

    # -- accounting ------------------------------------------------------------

    @property
    def reorder_success(self) -> bool:
        return self.reorder.success

    def storage_bytes(self) -> dict[str, int]:
        """Bytes per component of the format, from array shapes alone: the
        serving registry re-charges every plan after each batch."""
        r = self.reorder
        values = self.values.nbytes
        col_idx = r.col_ids.nbytes
        # 4-byte indices, matching the paper's model.
        block_col_idx = len(self.values) * MMA_TILE * 4
        # 16 uint32 words per op per strip; a slab without groups still
        # counts one padded op.
        ops = np.maximum(1, -(-r.n_groups // 2))
        sptc = int((r.n_strips * ops).sum()) * MMA_TILE * 4
        return {
            "values": values,
            "col_idx_array": col_idx,
            "block_col_idx_array": block_col_idx,
            "sptc_col_idx_array": sptc,
            "total": values + col_idx + block_col_idx + sptc,
        }

    def dense_bytes(self) -> int:
        """Bytes of the dense fp16 representation cuBLAS would use."""
        return self.shape[0] * self.shape[1] * 2

    def validate(self) -> None:
        """Check the format's structural invariants; raise ValueError on
        corruption.

        Covers what a loader should verify before trusting serialized
        data: a slab table that fits the matrix shape, index and tile
        arrays shaped like the table says, metadata positions legal
        (2-bit, strictly increasing per quad), permutations actual
        permutations, and column ids in range and unique per slab.
        """
        m, k = self.shape
        r = self.reorder
        h = self.config.block_tile
        strips = -(-np.minimum(h, m - h * np.arange(-(-m // h))) // MMA_TILE)
        table_ok = r.table.shape == (len(strips), 4) and np.all(r.table >= 0)
        if not (table_ok and np.array_equal(r.n_strips, strips)):
            raise ValueError("slab table misshapen for the matrix shape")
        t = int(r.n_strips @ r.n_groups)
        expected = ((MMA_TILE * r.total_groups,), (t, MMA_TILE), (t, MMA_TILE, 8))
        shapes = (r.col_ids.shape, r.tile_perms.shape, self.values.shape)
        if shapes != expected or self.positions.shape != expected[2]:
            raise ValueError("index or tile arrays misshapen")
        if np.any((r.col_ids < -1) | (r.col_ids >= k)):
            raise ValueError("column id out of range")
        # Sorting on (slab, column) puts any duplicate next to its twin.
        slab_of = np.repeat(np.arange(len(strips)), MMA_TILE * r.n_groups)
        used = r.col_ids >= 0
        keys = np.sort(slab_of[used] * k + r.col_ids[used])
        if np.any(keys[1:] == keys[:-1]):
            raise ValueError("duplicate column ids in a slab")
        if not np.all(np.sort(r.tile_perms, axis=-1) == np.arange(MMA_TILE)):
            raise ValueError("tile_perms not permutations")
        if np.any(self.positions > 3):
            raise ValueError("metadata positions exceed 2 bits")
        pairs = self.positions.reshape(*self.positions.shape[:-1], 4, 2)
        if not np.all(pairs[..., 0] < pairs[..., 1]):
            raise ValueError("metadata positions not strictly increasing")


def _compress_slab(
    slab: np.ndarray, slab_r: SlabReorder
) -> tuple[np.ndarray, np.ndarray]:
    """Compress one slab against its reorder decision: one gather of every
    (strip, group) tile, one 2:4 compression over their stacked rows.
    Returns the (tiles * 16, 8) values and positions."""
    tiles = gather_tiles(slab, slab_r).reshape(-1, MMA_TILE)
    values, positions = compress_nm(tiles, 2, 4)
    return values.astype(np.float16, copy=False), positions


__all__ = ["JigsawMatrix", "JigsawSlab", "unswizzle_block"]
