"""Shared machinery of the Jigsaw SpMM kernels (v0..v4).

A kernel run has two independent halves:

* **functional** — the output C, computed from the compressed
  representation (numerically identical to ``decompress(A) @ B``; exact
  per-tile ``mma.sp`` execution is available for verification via
  ``exact=True``);
* **accounted** — a :class:`~repro.gpu.scheduler.KernelTrace` built from
  the actual per-block behaviour: the B-tile gather's sector traffic, the
  per-tile ``ldmatrix`` bank transactions under the version's layout, the
  metadata-load pattern, the instruction mix, and the pipeline's exposed
  stalls.  ``simulate_launch`` then produces the Nsight-style profile,
  which :func:`jigsaw_profile` memoizes per (format, width, spec, device).

Kernel versions differ *only* in their :class:`JigsawKernelSpec`:

=====  ========  ========  ==================  =====================
ver    B padding pipeline  metadata layout      BLOCK_TILE
=====  ========  ========  ==================  =====================
v0     no        2-stage   naive (half-warp)    fixed 64
v1     yes       2-stage   naive                fixed 64
v2     yes       3-stage   naive                fixed 64
v3     yes       3-stage   interleaved          fixed 64
v4     yes       3-stage   interleaved          tuned {16, 32, 64}
=====  ========  ========  ==================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.asynccopy import PipelineConfig, estimate_block_stalls
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.instructions import Op
from repro.gpu.profiler import KernelProfile
from repro.gpu.scheduler import BlockWork, KernelTrace
from repro.gpu.shared import SharedMemoryModel, SmemLayout
from repro.gpu.tensorcore import JIGSAW_SPTC_SHAPE, mma_sp

from ..compiled import expand_tile
from ..format import JigsawMatrix, JigsawSlab
from ..metadata import interleaved_load_addresses, naive_load_addresses
from ..tiles import MMA_TILE

#: fp16 padding appended to each B-tile row by the bank-conflict
#: elimination (4 banks = 8 halves; paper Section 3.4.1).
B_TILE_PAD_ELEMS = 8


@dataclass(frozen=True)
class JigsawKernelSpec:
    """What distinguishes one kernel version from another."""

    name: str
    pad_b_tile: bool
    pipeline: PipelineConfig
    interleaved_metadata: bool
    #: SpTC instruction shape: "k32" (mma.sp.m16n8k32, the paper's choice
    #: — dense-MMA latency at double the effective k) or "k16"
    #: (mma.sp.m16n8k16, which halves throughput; paper Section 2.2).
    sptc_shape: str = "k32"

    def __post_init__(self) -> None:
        if self.sptc_shape not in ("k32", "k16"):
            raise ValueError(f"unknown SpTC shape {self.sptc_shape!r}")

    @property
    def version(self) -> str:
        return self.name


@dataclass
class JigsawRunResult:
    """Output of one simulated kernel launch."""

    c: np.ndarray | None
    profile: KernelProfile


def compute_output(jm: JigsawMatrix, b: np.ndarray) -> np.ndarray:
    """Functional SpMM from the compressed representation (fp32 out).

    Works tile by tile, in storage order: each tile's expanded operand
    (:func:`~repro.core.compiled.expand_tile` — the hardware selector's
    gather baked into a dense 16x16) multiplies the B rows its reordered
    slots select, into its strip's accumulator in ascending group order.
    The compiled whole-plan route (:mod:`repro.core.compiled`) replays
    these exact per-tile GEMMs as one batched matmul, which is what makes
    the two routes bit-identical.
    """
    m, k = jm.shape
    if b.shape[0] != k:
        raise ValueError(f"B has {b.shape[0]} rows; A has {k} columns")
    n = b.shape[1]
    # Row k is the all-zero row that padding slots (-1) gather.
    bf = np.concatenate([b.astype(np.float32), np.zeros((1, n), dtype=np.float32)])
    tile_strip, _, strip_row, columns = jm.reorder.tile_index()
    acc = np.zeros((len(strip_row), MMA_TILE, n), dtype=np.float32)
    for t, s in enumerate(tile_strip.tolist()):
        acc[s] += expand_tile(jm.values[t], jm.positions[t]) @ bf[columns[t]]
    c = np.zeros((m + MMA_TILE, n), dtype=np.float32)
    c[strip_row[:, None] + np.arange(MMA_TILE)] += acc
    return c[:m]


def compute_output_exact(jm: JigsawMatrix, b: np.ndarray) -> np.ndarray:
    """Per-instruction functional path: every op runs through ``mma_sp``.

    Slow; used by tests to prove the fast path and the hardware selector
    semantics agree.  A strip pairs its tiles into ops, padding with
    all-zero tiles (a strip without tiles still runs one op).
    """
    m, k = jm.shape
    n = b.shape[1]
    if n % 8:
        raise ValueError("exact path requires N to be a multiple of 8")
    c = np.zeros((m, n), dtype=np.float32)
    # Row k is the all-zero row that padding slots (-1) gather.
    bf = np.concatenate([b.astype(np.float16), np.zeros((1, n), dtype=np.float16)])
    tile_strip, _, strip_row, columns = jm.reorder.tile_index()
    for s, sr0 in enumerate(strip_row.tolist()):
        rows_here = min(MMA_TILE, m - sr0)
        tiles = np.flatnonzero(tile_strip == s)
        for op in range(max(1, -(-len(tiles) // 2))):
            a_comp = np.zeros((16, 16), dtype=np.float16)
            btile = np.zeros((32, n), dtype=np.float16)
            meta = np.tile(np.uint8([0, 1]), (16, 8))
            for half, t in enumerate(tiles[2 * op : 2 * op + 2]):
                a_comp[:, half * 8 : (half + 1) * 8] = jm.values[t]
                meta[:, half * 8 : (half + 1) * 8] = jm.positions[t]
                btile[half * 16 : (half + 1) * 16] = bf[columns[t]]
            for nc in range(0, n, 8):
                acc = c[sr0 : sr0 + 16, nc : nc + 8]
                if rows_here < 16:
                    acc = np.vstack([acc, np.zeros((16 - rows_here, 8), np.float32)])
                b_nc = btile[:, nc : nc + 8]
                out = mma_sp(a_comp, meta, b_nc, acc, JIGSAW_SPTC_SHAPE)
                c[sr0 : sr0 + rows_here, nc : nc + 8] = out[:rows_here]
    return c


def _account_block(
    jm: JigsawMatrix,
    slab: JigsawSlab,
    n: int,
    spec: JigsawKernelSpec,
    device: DeviceSpec,
) -> BlockWork:
    """Detailed event accounting for one representative thread block."""
    cfg = jm.config
    strips = slab.n_strips
    n_ops = slab.n_ops if slab.n_groups else 0
    bt_n = cfg.block_tile_n
    warps_per_strip = bt_n // 32

    work = BlockWork()
    mix = work.mix
    smem = SharedMemoryModel(device)
    from repro.gpu.memory import GlobalMemoryModel

    gmem = GlobalMemoryModel(device)

    pad = B_TILE_PAD_ELEMS if spec.pad_b_tile else 0
    b_layout = SmemLayout(rows=32, cols=bt_n, elem_bytes=2, pad_elems=pad)
    n_slices_per_warp = 32 // 8  # mma.sp n=8 slices per warp's 32 N-columns

    # ---- per-iteration loads -------------------------------------------------
    # 32 B-row ids per op, in slot order; an odd trailing group pairs
    # with padding slots.
    op_col_ids = np.full(2 * n_ops * MMA_TILE, -1, dtype=np.int32)
    op_col_ids[: slab.reorder.col_ids.size] = slab.reorder.col_ids
    for col_ids in op_col_ids.reshape(n_ops, 2 * MMA_TILE):
        # col_idx_array load: 32 int32, contiguous.
        mix.emit(Op.LDG, 1)
        gmem.load(np.arange(32) * 4, 4)

        # B tile gather: one 128B row per real column, via cp.async.
        real_rows = col_ids[col_ids >= 0]
        if len(real_rows):
            gmem.load_rowmajor_tile(
                base=0,
                row_ids=real_rows,
                row_stride_bytes=n * 2,
                row_bytes=bt_n * 2,
            )
            mix.emit(Op.CP_ASYNC, len(real_rows) * (bt_n * 2) / (16 * 32))

        # A compressed values + metadata: contiguous streams.
        a_bytes = strips * 2 * MMA_TILE * 8 * 2  # two groups of 16x8 fp16
        meta_bytes = strips * 16 * 4
        gmem.stats.load_sectors += (a_bytes + meta_bytes) // 32
        gmem.stats.load_requests += strips
        gmem.stats.useful_load_bytes += a_bytes + meta_bytes
        mix.emit(Op.CP_ASYNC, (a_bytes + meta_bytes) / (16 * 32))

        mix.emit(Op.CP_ASYNC_WAIT, 1)
        mix.emit(Op.BAR_SYNC, 1)
        mix.emit(Op.IADD, 8)  # address arithmetic per iteration
        mix.emit(Op.BRANCH, 1)

    # ---- per-tile fragment traffic -------------------------------------------
    # B fragments: per (strip, op, n-slice) one ldmatrix.x4 over the
    # permuted rows — the bank-conflict crux.  Stage rows of op = the two
    # groups' permutations, the second offset by 16.
    if slab.n_groups > 0:
        # An odd trailing group pairs with an identity permutation.
        perms = np.tile(np.arange(16, dtype=np.int64), (strips, 2 * n_ops, 1))
        perms[:, : slab.n_groups] = slab.reorder.tile_perms
        rows_op = perms.reshape(strips, n_ops, 2, 16) + np.array([[0], [16]])
        stages = rows_op.reshape(strips, n_ops, 4, 8)
        # Identical conflict pattern for each n-slice (column offset only
        # shifts all banks equally), so account once and scale.
        smem.ldmatrix_batch(b_layout, stages, 0)
        scale = n_slices_per_warp * warps_per_strip
        smem.stats = smem.stats.scaled(scale)
        mix.emit(Op.LDMATRIX_X4, strips * n_ops * n_slices_per_warp * warps_per_strip)

        # A fragments: Z-swizzled contiguous storage -> conflict-free
        # ldmatrix.x4 (one per strip per op per warp).
        a_frag = strips * n_ops * warps_per_strip
        mix.emit(Op.LDMATRIX_X4, a_frag)
        smem.stats.accesses += a_frag * 4
        smem.stats.transactions += a_frag * 4

    # ---- metadata register loads ----------------------------------------------
    meta_layout_base = 0
    if spec.interleaved_metadata:
        # One full-warp conflict-free load feeds two mma.sp ops.
        pairs = -(-n_ops // 2)
        for _ in range(strips * pairs * warps_per_strip):
            smem.access(interleaved_load_addresses(meta_layout_base), 4)
        mix.emit(Op.LDMATRIX_X1, strips * pairs * warps_per_strip)
    else:
        # Naive: per op, a half-warp strided load plus the branch that
        # skips the idle lanes (paper Figure 9).
        for _ in range(strips * n_ops * warps_per_strip):
            smem.access(naive_load_addresses(meta_layout_base, 0), 4)
        mix.emit(Op.LDS, strips * n_ops * warps_per_strip)
        mix.emit(Op.BRANCH, strips * n_ops * warps_per_strip)

    # ---- tensor-core math -------------------------------------------------------
    mma_count = strips * n_ops * warps_per_strip * (32 // 8)
    if spec.sptc_shape == "k32":
        mix.emit(Op.MMA_SP_M16N8K32_F16, mma_count)
    else:
        # m16n8k16 covers half the k per instruction at the same issue
        # cost: twice the instructions, half the throughput (the paper's
        # Section 2.2 reason for rejecting this shape).
        mix.emit(Op.MMA_SP_M16N8K16_F16, mma_count * 2)

    # ---- C write-back --------------------------------------------------------------
    c_rows = cfg.block_tile
    c_bytes = c_rows * bt_n * 2
    mix.emit(Op.STG, c_bytes / (16 * 32))
    gmem.stats.store_sectors += c_bytes // 32
    gmem.stats.store_requests += c_rows
    gmem.stats.useful_store_bytes += c_bytes

    # ---- pipeline stalls ----------------------------------------------------------
    # Fragment loads per iteration feed the short-scoreboard estimate; the
    # interleaved metadata layout halves the metadata component (one load
    # per two ops instead of one per op).
    meta_loads = 0.5 if spec.interleaved_metadata else 1.0
    frag_loads_per_iter = (
        strips * (n_slices_per_warp + 1 + meta_loads) if slab.n_groups else 0.0
    )
    work.stalls = estimate_block_stalls(
        spec.pipeline, n_ops, frag_loads_per_iter, device
    )

    # Per-block critical path: half the pipeline fill (the other half
    # overlaps the epilogue of the previous resident block), then the
    # per-op serial chain.  An in-stage indirect dependency (v0/v1: the B
    # gather waits on col_idx_array) leaves part of the DRAM round trip
    # serial per iteration; the deepened pipeline (v2+) reduces it to the
    # ldmatrix -> mma chain.
    per_op_serial = 200.0 if spec.pipeline.indirect_dependency_exposed else 80.0
    work.critical_path_cycles = (
        spec.pipeline.stages * device.dram_latency_cycles * 0.5
        + n_ops * per_op_serial
    )

    work.smem = smem.stats
    work.gmem = gmem.stats
    return work


def _jigsaw_trace(
    jm: JigsawMatrix, n: int, spec: JigsawKernelSpec, device: DeviceSpec
) -> KernelTrace:
    """Accounted work of one tile launch at width ``n``: one block per
    (slab, N-tile), each from :func:`_account_block`."""
    m, k = jm.shape
    cfg = jm.config
    n_blocks = max(1, -(-n // cfg.block_tile_n))

    sizes = jm.storage_bytes()
    a_comp_bytes = (
        sizes["values"] + sizes["sptc_col_idx_array"] + sizes["col_idx_array"]
    )
    trace = KernelTrace(
        kernel_name=f"jigsaw_{spec.name}_bt{cfg.block_tile}",
        threads_per_block=cfg.threads_per_block,
        smem_bytes_per_block=cfg.smem_bytes,
        regs_per_thread=64,
        footprint_bytes=float(a_comp_bytes + k * n * 2 + m * n * 2),
    )
    for slab in jm.slabs:
        work = _account_block(jm, slab, n, spec, device)
        work.weight = n_blocks
        trace.add_block(work)
    return trace


def jigsaw_profile(
    jm: JigsawMatrix,
    n: int,
    spec: JigsawKernelSpec,
    device: DeviceSpec = A100,
) -> KernelProfile:
    """The (cached) simulated profile of one tile launch at width ``n``.

    The accounted half reads the format's structure, never B's values, so
    the profile is a function of ``(format, n, spec, device)`` and is
    memoized on ``jm``.  The key holds the whole frozen
    :class:`~repro.gpu.device.DeviceSpec`: a variant made with
    ``DeviceSpec.with_`` keeps its base's name.  A format is immutable
    once built, so the memo never goes stale: an update makes a new
    :meth:`~repro.core.format.JigsawMatrix.repaired` object with an
    empty memo.
    """
    return jm._profiles.profile(
        (n, spec, device), lambda: _jigsaw_trace(jm, n, spec, device), device
    )


def run_jigsaw_kernel(
    jm: JigsawMatrix,
    b: np.ndarray,
    spec: JigsawKernelSpec,
    device: DeviceSpec = A100,
    want_output: bool = True,
    exact: bool = False,
) -> JigsawRunResult:
    """Simulate one Jigsaw SpMM launch: ``C = A @ B``.

    The profile comes from :func:`jigsaw_profile`; the output from the
    per-tile reference :func:`compute_output`.  ``want_output=False``
    skips the functional half (benches that only need timing);
    ``exact=True`` routes every operation through the per-instruction
    ``mma_sp`` model (slow; tests only).
    """
    k = jm.shape[1]
    if b.shape[0] != k:
        raise ValueError(f"B has {b.shape[0]} rows; A has {k} columns")
    profile = jigsaw_profile(jm, b.shape[1], spec, device)
    c: np.ndarray | None = None
    if want_output:
        c = compute_output_exact(jm, b) if exact else compute_output(jm, b)
    return JigsawRunResult(c=c, profile=profile)
