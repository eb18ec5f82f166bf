"""Compiled whole-plan execution: flat index arrays + one batched matmul.

The tile-by-tile kernels walk Python loops per (slab, strip, group) on
every launch — fine for fidelity benches, but the throughput ceiling of
the serving tier.  Real SpMM stacks lower a sparse plan into a handful
of large gather + batched-GEMM array ops once, then replay them (the
``gather_mm`` lowering DGL uses; FlashSparse's swap-and-gather layout).
:func:`compile_plan` performs that lowering for a
:class:`~repro.core.format.JigsawMatrix`:

* every (strip, group) tile's compressed 2:4 values are expanded into a
  dense ``(16, 16)`` operand (:func:`expand_tile`) — the hardware
  selector's gather baked into the matrix, so ``E @ B_tile`` reproduces
  the selector semantics exactly;
* the reorder's compressed column ids become one flat ``(T, 16)`` B-row
  gather index (padding slots point at an appended all-zero row);
* tiles are sorted by ``(group, strip)`` so the per-strip accumulation
  replays in the tile route's group order — float addition order is
  preserved, which is what makes the route **bit-identical** to
  :func:`~repro.core.kernels.base.compute_output`;
* output rows become one flat ``(S, 16)`` scatter index (rows past ``m``
  point at a dump row that is dropped).

Steady-state execution (:func:`run_compiled_kernel`) is then: one B
gather, one batched ``np.matmul`` over all tiles, a per-group scatter-add
into strip accumulators, and one row scatter into C.  No per-tile Python.

The lowering is array operations too, with no loop over slabs: the
format already holds its tiles flat in (slab, strip, group) order, the
per-slab table gives every tile's strip, group and output rows through
``np.repeat``, and one gather gives its columns; then one stable sort
and one batched :func:`expand_tile`.  A format never changes after it is built, so an
update compiles its :meth:`~repro.core.format.JigsawMatrix.repaired`
format from scratch, which costs about what patching the old arrays did.

The accounted half mirrors what the lowering buys on the simulated
device.  The device artifact still streams the *compressed* tiles
(values + interleaved metadata, same bytes as the tile route) — the
f32 expansion above is only the host simulation's way of vectorizing
the functional math, not extra DRAM traffic.  What the static schedule
removes per main-loop iteration: the ``col_idx_array`` load and its
branch (indices ride one precomputed contiguous stream), the address
arithmetic for the indirect gather, the B-fragment bank conflicts
(rows are staged in gather order, so ``ldmatrix`` reads are
conflict-free), and half the short-scoreboard exposure (the fixed
schedule lets fragments double-buffer in registers one op ahead).  The
grid shape is unchanged — one block per (slab, N-tile), like the
tile-by-tile kernels — so the savings are per-block, not a serialized
whole-plan chain.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.gpu.asynccopy import PipelineConfig, estimate_block_stalls
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.instructions import Op
from repro.gpu.profiler import KernelProfile
from repro.gpu.scheduler import BlockWork, KernelTrace, ProfileMemo

from .tiles import MMA_TILE

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (format -> compiled)
    from .format import JigsawMatrix

#: The compiled route's main loop: deepened pipeline, no indirect
#: dependency (every index is a precomputed flat array).
COMPILED_PIPELINE = PipelineConfig(
    stages=3, uses_async_copy=True, indirect_dependency_exposed=False
)

#: Serially-dependent cycles per op in the compiled main loop: just the
#: gather -> mma chain, no per-op metadata decode or index wait (the
#: tile route pays 80, or 200 with the indirect dependency exposed).
COMPILED_PER_OP_SERIAL_CYCLES = 40.0


def expand_tile(values: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Dense ``(..., 16, 16)`` expansion ``E`` of compressed 2:4 tiles.

    ``E[..., i, quad*4 + pos] = value`` — exactly the column the hardware
    selector would read, so ``E @ B_tile`` equals the selector's
    gather-multiply.  Positions are strictly increasing per quad, so the
    scatter indices are unique per row.  Leading dimensions batch tiles:
    :func:`compile_plan` expands a whole plan in one call, and
    :func:`~repro.core.kernels.base.compute_output` one tile at a time.
    """
    vals = np.asarray(values, dtype=np.float32)  # (..., 16, 8)
    pos = np.asarray(positions, dtype=np.int64)  # (..., 16, 8)
    quad = np.repeat(np.arange(4, dtype=np.int64), 2)
    e = np.zeros(vals.shape[:-1] + (MMA_TILE,), dtype=np.float32)
    np.put_along_axis(e, quad * 4 + pos, vals, axis=-1)
    return e


@dataclass
class CompiledPlan:
    """Flat per-plan arrays for whole-plan execution.

    ``T`` tiles (one per resident (strip, group)), ``S`` strips, ``G``
    group ordinals.  Tiles are stored sorted by ``(group, strip)``;
    ``g_starts`` delimits each group ordinal's contiguous tile range.
    """

    m: int
    k: int
    #: (T, 16, 16) float32 — expanded tile operands in (group, strip) order.
    w: np.ndarray
    #: (T, 16) int64 — B source row per tile stage row; padding slots
    #: point at row ``k`` (the appended all-zero pad row).
    b_rows: np.ndarray
    #: (T,) int64 — owning strip of each tile.
    strip_idx: np.ndarray
    #: (G + 1,) int64 — tile range [g_starts[g], g_starts[g+1]) per group.
    g_starts: np.ndarray
    #: (S, 16) int64 — output row per strip row; rows past ``m`` point at
    #: the dump row ``m``, which is dropped after the scatter.
    out_rows: np.ndarray

    # -- accounted-work shape (precomputed; no per-op loops at run time) --
    #: Rows covered per block (the format's BLOCK_TILE).
    block_tile: int
    #: N-columns covered per launched block (the format's BLOCK_TILE_N).
    block_tile_n: int
    threads_per_block: int
    smem_bytes_per_block: int
    #: (n_slabs,) strips per slab block (grid shape matches tile-by-tile).
    slab_strips: np.ndarray
    #: (n_slabs,) paired-group main-loop iterations per slab block.
    slab_ops: np.ndarray
    #: (n_slabs,) real B rows gathered per slab block (one 128 B row each).
    slab_gather: np.ndarray

    #: Per-(n, device) profile memo.  Keyed on the whole frozen
    #: ``DeviceSpec``: a ``with_`` variant keeps its base's name.
    _profiles: ProfileMemo = field(
        default_factory=ProfileMemo, repr=False, compare=False
    )

    @property
    def n_tiles(self) -> int:
        return self.w.shape[0]

    @property
    def n_strips(self) -> int:
        return self.out_rows.shape[0]

    @property
    def n_group_ordinals(self) -> int:
        return len(self.g_starts) - 1

    def equals(self, other: "CompiledPlan") -> bool:
        """Array-level equality (update and roundtrip checks)."""
        return (
            self.m == other.m
            and self.k == other.k
            and all(
                np.array_equal(getattr(self, name), getattr(other, name))
                for name in ("w", "b_rows", "strip_idx", "g_starts", "out_rows")
            )
        )


def compile_plan(jm: "JigsawMatrix") -> CompiledPlan:
    """Lower a :class:`JigsawMatrix` into flat whole-plan arrays.

    The format's tiles are already flat in (slab, strip, group) order;
    one stable sort puts them in (group, strip) order and one
    :func:`expand_tile` call expands every tile.  Strip, group, column
    and output-row indices come from the slab table.
    """
    m, k = jm.shape
    r = jm.reorder
    strip, group, strip_row, columns = r.tile_index()
    # (group, strip) order: the per-strip accumulation then replays the
    # tile route's ascending-group addition order exactly.
    order = np.lexsort((strip, group))
    group = group[order]
    col = columns[order].astype(np.int64)
    n_groups = int(group[-1]) + 1 if len(group) else 0
    slot_slab = np.repeat(np.arange(len(r.table)), MMA_TILE * r.n_groups)
    return CompiledPlan(
        m=m,
        k=k,
        w=expand_tile(jm.values[order], jm.positions[order]),
        b_rows=np.where(col >= 0, col, k),
        strip_idx=strip[order],
        g_starts=np.searchsorted(group, np.arange(n_groups + 1, dtype=np.int64)),
        out_rows=np.minimum(strip_row[:, None] + np.arange(MMA_TILE), m),
        block_tile=jm.config.block_tile,
        block_tile_n=jm.config.block_tile_n,
        threads_per_block=jm.config.threads_per_block,
        smem_bytes_per_block=jm.config.smem_bytes,
        slab_strips=r.n_strips.copy(),
        # A slab with no groups issues no ops.
        slab_ops=-(-r.n_groups // 2),
        # Real B rows per slab: its slots that are not padding.
        slab_gather=np.bincount(slot_slab[r.col_ids >= 0], minlength=len(r.table)),
    )


def compiled_output(cp: CompiledPlan, b: np.ndarray) -> np.ndarray:
    """Functional whole-plan SpMM: gathers + one batched matmul (fp32 out).

    Bit-identical to :func:`~repro.core.kernels.base.compute_output` on
    the format the plan was compiled from: same expanded operands, same
    gathered B rows, same per-strip group addition order, same scatter
    onto a zero-initialized C.
    """
    if b.shape[0] != cp.k:
        raise ValueError(f"B has {b.shape[0]} rows; A has {cp.k} columns")
    n = b.shape[1]
    if n == 0 or cp.n_strips == 0:
        return np.zeros((cp.m, n), dtype=np.float32)
    bf = b.astype(np.float32)
    # Row k is the all-zero pad row padding slots gather from.
    bf_pad = np.concatenate([bf, np.zeros((1, n), dtype=np.float32)], axis=0)
    bt = bf_pad[cp.b_rows]  # (T, 16, n)
    prod = np.matmul(cp.w, bt)  # (T, 16, n) — one BLAS gemm per tile slice
    acc = np.zeros((cp.n_strips, MMA_TILE, n), dtype=np.float32)
    for g in range(cp.n_group_ordinals):
        sl = slice(cp.g_starts[g], cp.g_starts[g + 1])
        # Strip indices are unique within one group ordinal, so the
        # fancy-indexed += is a true accumulate in ascending-group order.
        acc[cp.strip_idx[sl]] += prod[sl]
    c_pad = np.zeros((cp.m + 1, n), dtype=np.float32)
    # Output rows are unique below m (strips never overlap); only the
    # dump row m repeats, and it is dropped.
    c_pad[cp.out_rows.reshape(-1)] += acc.reshape(-1, n)
    return c_pad[: cp.m]


def _compiled_trace(cp: CompiledPlan, n: int, device: DeviceSpec) -> KernelTrace:
    """Accounted work of one compiled whole-plan launch (no per-op loops).

    One block per (slab, N-tile), exactly the tile route's grid; each
    block carries the tile route's compressed-stream and mma traffic,
    minus what the static schedule removes (see module docstring).
    """
    n_blocks = max(1, -(-n // cp.block_tile_n))
    bt_bytes = cp.block_tile_n * 2
    warps_per_strip = cp.block_tile_n // 32
    n_slices_per_warp = 32 // 8

    total_stream = 0
    trace = KernelTrace(
        kernel_name="jigsaw_compiled",
        threads_per_block=cp.threads_per_block,
        smem_bytes_per_block=cp.smem_bytes_per_block,
        regs_per_thread=64,
        footprint_bytes=0.0,
    )
    for strips, n_ops, rows in zip(cp.slab_strips, cp.slab_ops, cp.slab_gather):
        strips, n_ops, rows = int(strips), int(n_ops), int(rows)
        work = BlockWork()
        mix = work.mix

        # B gather: one 128 B row per real column, via cp.async — same
        # useful bytes as the tile route, no per-op col_idx load before
        # it (the flat b_rows stream below replaces col_idx_array).
        gather_bytes = rows * bt_bytes
        if gather_bytes:
            mix.emit(Op.CP_ASYNC, gather_bytes / (16 * 32))
        # Compressed operand streams: values + interleaved metadata
        # (identical bytes to the tile route) plus the flat gather
        # indices (32 int32 per op), all contiguous.
        a_bytes = strips * n_ops * 2 * MMA_TILE * 8 * 2
        meta_bytes = strips * n_ops * 16 * 4
        idx_bytes = n_ops * 32 * 4
        stream_bytes = a_bytes + meta_bytes + idx_bytes
        if stream_bytes:
            mix.emit(Op.CP_ASYNC, stream_bytes / (16 * 32))
        total_stream += stream_bytes

        if n_ops:
            mix.emit(Op.CP_ASYNC_WAIT, n_ops)
            mix.emit(Op.BAR_SYNC, n_ops)
            # Address arithmetic collapses to one stream-pointer bump
            # (the tile route pays 8 IADD + a BRANCH per iteration).
            mix.emit(Op.IADD, 2 * n_ops)

            # Fragment traffic: same ldmatrix count as the tile route,
            # but B rows are staged in gather order — conflict-free.
            b_frag = strips * n_ops * n_slices_per_warp * warps_per_strip
            a_frag = strips * n_ops * warps_per_strip
            mix.emit(Op.LDMATRIX_X4, b_frag + a_frag)
            pairs = -(-n_ops // 2)
            meta_frag = strips * pairs * warps_per_strip
            mix.emit(Op.LDMATRIX_X1, meta_frag)
            smem_tx = (b_frag + a_frag) * 4 + meta_frag * 4
            work.smem.accesses += smem_tx
            work.smem.transactions += smem_tx

            mix.emit(
                Op.MMA_SP_M16N8K32_F16,
                strips * n_ops * warps_per_strip * n_slices_per_warp,
            )

        c_bytes = cp.block_tile * bt_bytes
        mix.emit(Op.STG, c_bytes / (16 * 32))

        gmem = work.gmem
        gmem.load_sectors = (gather_bytes + stream_bytes) // 32
        gmem.load_requests = rows + strips * n_ops + n_ops
        gmem.useful_load_bytes = gather_bytes + stream_bytes
        gmem.store_sectors = c_bytes // 32
        gmem.store_requests = cp.block_tile
        gmem.useful_store_bytes = c_bytes

        # Short-scoreboard exposure at half the tile route's weight: the
        # static schedule register-double-buffers fragments one op ahead.
        frag_loads_per_iter = (
            0.5 * strips * (n_slices_per_warp + 1 + 0.5) if n_ops else 0.0
        )
        work.stalls = estimate_block_stalls(
            COMPILED_PIPELINE, n_ops, frag_loads_per_iter, device
        )
        work.critical_path_cycles = (
            COMPILED_PIPELINE.stages * device.dram_latency_cycles * 0.5
            + n_ops * COMPILED_PER_OP_SERIAL_CYCLES
        )
        work.weight = n_blocks
        trace.add_block(work)

    trace.footprint_bytes = float(total_stream + cp.k * n * 2 + cp.m * n * 2)
    return trace


def compiled_profile(
    cp: CompiledPlan, n: int, device: DeviceSpec = A100
) -> KernelProfile:
    """The (cached) simulated profile of one compiled launch at width ``n``."""
    return cp._profiles.profile(
        (n, device), lambda: _compiled_trace(cp, n, device), device
    )


def run_compiled_kernel(
    cp: CompiledPlan,
    b: np.ndarray,
    device: DeviceSpec = A100,
    want_output: bool = True,
):
    """Execute one compiled whole-plan launch: ``C = A @ B``."""
    from .kernels.base import JigsawRunResult  # local: kernels imports us

    profile = compiled_profile(cp, b.shape[1], device)
    c = compiled_output(cp, b) if want_output else None
    return JigsawRunResult(c=c, profile=profile)


__all__ = [
    "CompiledPlan",
    "compile_plan",
    "compiled_output",
    "compiled_profile",
    "run_compiled_kernel",
    "expand_tile",
]
