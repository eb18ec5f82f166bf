"""V:N:M plan path: detection, compressed storage, simulated kernel.

The format zoo's second member (after rigid 2:4).  A VENOM-pruned
matrix (see :mod:`repro.formats.venom`) keeps ``N`` of every ``M``
columns with the four candidate columns shared across a V-row panel —
sparsity ``1 - N/M``.  Such a matrix *also* satisfies plain 2:4
row-wise (at most N <= 2 nonzeros per M >= 4 columns bounds every
aligned quad), so the existing jigsaw/compiled routes serve it — but
they stream ``k/2`` kept columns of mostly-zero 2:4 payload, while
V:N:M storage streams only ``k * N/M`` kept columns with the
column-selection metadata amortized over V rows.  For a 2:16 matrix
that is a 4x smaller operand stream; whether that wins end-to-end is
exactly what the serve-tier cost model measures per matrix
(``jigsaw@vnm`` vs the 2:4 routes — no pinning).

Functional math and accounted timing are decoupled, the repo-wide
idiom: :func:`vnm_output` computes ``C = A @ B`` exactly (the format's
scatter-back is lossless for fp16-representable values, so the result
is bit-identical to the fp32 dense reference), while :func:`_vnm_trace`
models what a real Spatha-style kernel with *plan-time* pre-staged
gather indices would cost.  Unlike the VENOM baseline
(:mod:`repro.baselines.venom`), whose column-choice chase is an
in-stage exposed indirection, a plan has already flattened the choices
into contiguous streams — the same static-schedule savings the
compiled route enjoys (3-stage pipeline, no indirect dependency,
40 serially-dependent cycles per op).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np

from repro.formats.venom import VenomMatrix, satisfies_vnm
from repro.gpu.asynccopy import estimate_block_stalls
from repro.gpu.device import A100, DeviceSpec
from repro.gpu.instructions import Op
from repro.gpu.profiler import KernelProfile
from repro.gpu.scheduler import BlockWork, KernelTrace, ProfileMemo

from .compiled import COMPILED_PER_OP_SERIAL_CYCLES, COMPILED_PIPELINE
from .formatspec import FormatSpec

#: Grid shape: rows of C per thread block and N-columns per block.
VNM_ROWS_PER_BLOCK = 128
VNM_TILE_N = 64

#: (V, M) candidates format auto-detection probes, best-first: larger V
#: amortizes column metadata over more rows, larger M encodes higher
#: sparsity.  M = 4 is deliberately absent — vnm:V:N:4 selects all four
#: columns of every group and stores exactly what plain 2:4 stores, so
#: generic 2:4 matrices must *not* detect as V:N:M.
DETECT_V_CANDIDATES = (128, 64, 32)
DETECT_M_CANDIDATES = (16, 8)


def detect_vnm_spec(
    a: np.ndarray,
    v_candidates: tuple[int, ...] = DETECT_V_CANDIDATES,
    m_candidates: tuple[int, ...] = DETECT_M_CANDIDATES,
) -> FormatSpec | None:
    """The best V:N:M spec ``a`` satisfies losslessly, or None.

    Probes ``m`` descending (highest encoded sparsity first), then
    ``n`` ascending (fewest kept columns first), then ``v`` descending
    (best metadata amortization first), returning the first lossless
    fit.  A matrix that fits no candidate — in particular any matrix
    that is merely 2:4 — returns None and keeps its default format.
    """
    rows, cols = a.shape
    if rows == 0 or cols == 0:
        return None
    for m in m_candidates:
        if cols % m:
            continue
        for n in (1, 2):
            for v in v_candidates:
                if rows % v:
                    continue
                if satisfies_vnm(a, v, n, m):
                    return FormatSpec.vnm(v=v, n=n, m=m)
    return None


@dataclass
class VnmPlan:
    """A served V:N:M plan: compressed storage + cached execution state.

    Wraps the format-level :class:`VenomMatrix` with what serving needs:
    the originating :class:`FormatSpec`, a lazily cached fp32 dense
    expansion (built once, then every launch is one BLAS gemm), and a
    per-(n, device) profile cache shared by executor pool threads.
    """

    matrix: VenomMatrix
    spec: FormatSpec

    _dense_f32: np.ndarray | None = field(default=None, repr=False, compare=False)
    _profiles: ProfileMemo = field(
        default_factory=ProfileMemo, repr=False, compare=False
    )
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @classmethod
    def from_dense(cls, a: np.ndarray, spec: FormatSpec) -> "VnmPlan":
        """Compress ``a`` (must satisfy ``spec`` losslessly)."""
        if spec.kind != "vnm":
            raise ValueError(f"VnmPlan needs a vnm spec, got {spec}")
        vm = VenomMatrix.from_dense(a, v=spec.v, n=spec.n, m=spec.m)
        return cls(matrix=vm, spec=spec)

    @property
    def shape(self) -> tuple[int, int]:
        return self.matrix.shape

    def dense_f32(self) -> np.ndarray:
        """The cached fp32 dense expansion (exact for fp16 payloads)."""
        d = self._dense_f32
        if d is None:
            d = self.matrix.to_dense().astype(np.float32)
            with self._lock:
                if self._dense_f32 is None:
                    self._dense_f32 = d
                d = self._dense_f32
        return d

    def storage_bytes(self) -> dict[str, int]:
        """Byte accounting mirroring ``JigsawMatrix.storage_bytes``.

        Only the compressed arrays count as resident — the fp32 dense
        expansion is simulation scaffolding (the device artifact streams
        the compressed format), so it is excluded, exactly as the
        compiled route excludes its expanded ``w`` operands.
        """
        vm = self.matrix
        meta_bits = vm.positions.size * 2
        col_bits = vm.col_choices.size * max(2, int(np.ceil(np.log2(vm.m))))
        values = int(vm.values.nbytes)
        positions = (meta_bits + 7) // 8
        col_choices = (col_bits + 7) // 8
        return {
            "values": values,
            "positions": positions,
            "col_choices": col_choices,
            "total": values + positions + col_choices,
        }

    def arrays(self) -> dict[str, np.ndarray]:
        """The persistable payload (see :mod:`repro.core.serialization`)."""
        return {
            "values": self.matrix.values,
            "positions": self.matrix.positions,
            "col_choices": self.matrix.col_choices,
        }

    def equals(self, other: "VnmPlan") -> bool:
        """Array-level equality (serialization roundtrip checks)."""
        return (
            self.shape == other.shape
            and self.spec == other.spec
            and all(
                np.array_equal(arr, other.arrays()[name])
                for name, arr in self.arrays().items()
            )
        )

    def validate(self) -> None:
        """Cheap internal-consistency checks (load-time sanity)."""
        rows, cols = self.shape
        vm = self.matrix
        if (vm.v, vm.n, vm.m) != (self.spec.v, self.spec.n, self.spec.m):
            raise ValueError("VenomMatrix parameters disagree with FormatSpec")
        if rows % vm.v or cols % vm.m:
            raise ValueError("shape not compatible with V:N:M tiling")
        groups = cols // vm.m
        if vm.values.shape != (rows, groups * vm.n):
            raise ValueError("values shape inconsistent with V:N:M parameters")
        if vm.positions.shape != vm.values.shape:
            raise ValueError("positions shape disagrees with values")
        if vm.col_choices.shape != (rows // vm.v, groups, 4):
            raise ValueError("col_choices shape inconsistent with tiling")
        if vm.positions.size and vm.positions.max() > 3:
            raise ValueError("positions must be in-quad (2-bit)")
        if vm.col_choices.size and vm.col_choices.max() >= vm.m:
            raise ValueError("column choice out of group range")


def vnm_output(vp: VnmPlan, b: np.ndarray) -> np.ndarray:
    """Functional V:N:M SpMM: ``C = A @ B`` in fp32.

    The compressed format scatters back losslessly (values are stored
    verbatim in fp16; positions and column choices are exact indices),
    so for fp16-representable A this equals the fp32 dense reference
    ``A @ B`` bit-for-bit.
    """
    if b.shape[0] != vp.shape[1]:
        raise ValueError(f"B has {b.shape[0]} rows; A has {vp.shape[1]} columns")
    return vp.dense_f32() @ b.astype(np.float32)


def _vnm_trace(vp: VnmPlan, n: int, device: DeviceSpec) -> KernelTrace:
    """Accounted work of one V:N:M launch with pre-staged gather indices.

    One block per (row-block, N-tile).  Relative to the 2:4 routes the
    operand stream scales with the *kept* columns (``k * N/M`` instead
    of ``k/2``) and the column-choice metadata is amortized over V rows;
    relative to the VENOM baseline the indirection is gone — choices
    were flattened into contiguous streams at plan time, so the loop
    runs the compiled route's static schedule.
    """
    m_rows, k = vp.shape
    vm = vp.matrix
    groups = k // vm.m
    kept_cols = groups * vm.n

    rows_per_block = max(16, min(64, max(m_rows, 16)))
    panels_per_block = max(1, rows_per_block // vm.v)
    ntile = min(VNM_TILE_N, n) if n else VNM_TILE_N
    n_blocks = max(1, -(-m_rows // rows_per_block)) * max(1, -(-n // VNM_TILE_N))

    # B rows gathered per block: the exact union of the column choices
    # of the panels the block spans, known at plan time from
    # ``col_choices``.  With V >= the block height that is 4 rows per
    # group; smaller V merges choices, but only the *true* union is
    # fetched — whereas the 2:4 routes' slab extraction additionally
    # streams 2:4-padded values for every merged column.
    cc = vm.col_choices
    num_panels = cc.shape[0]
    if num_panels and groups:
        gathered = 0
        for w0 in range(0, num_panels, panels_per_block):
            win = cc[w0 : w0 + panels_per_block]  # (p, groups, 4)
            merged = np.sort(win.transpose(1, 0, 2).reshape(groups, -1), axis=1)
            gathered += int(
                (1 + (np.diff(merged, axis=1) != 0).sum(axis=1)).sum()
            )
        b_rows_per_block = gathered / -(-num_panels // panels_per_block)
    else:
        b_rows_per_block = 0.0

    # The kept columns compress 2:4 -> mma.sp over k_eff = 2 * kept.
    k_eff = 2 * kept_cols
    iters = max(1, k_eff // 32) if kept_cols else 0

    trace = KernelTrace(
        kernel_name=f"jigsaw_vnm_v{vm.v}_{vm.n}to{vm.m}",
        threads_per_block=128,
        smem_bytes_per_block=24 * 1024,
        regs_per_thread=80,
        footprint_bytes=0.0,
    )
    work = BlockWork(weight=n_blocks)
    mix = work.mix

    # Operand streams, all contiguous (plan-time flattening): compressed
    # values + 2-bit in-quad positions, per-panel column choices, and
    # the gathered B rows (4 selected columns per group, re-gathered per
    # panel the block spans — the format's reuse boundary).
    a_bytes = rows_per_block * kept_cols * 2
    pos_bytes = (rows_per_block * kept_cols * 2 + 7) // 8
    choice_bytes = (groups * 4 * max(2, int(np.ceil(np.log2(vm.m)))) + 7) // 8
    meta_bytes = pos_bytes + choice_bytes * panels_per_block
    b_bytes = int(b_rows_per_block * ntile * 2)
    stream_bytes = a_bytes + meta_bytes + b_bytes
    if stream_bytes:
        mix.emit(Op.CP_ASYNC, stream_bytes / (16 * 32))

    strips = max(1, rows_per_block // 16)
    warps_per_strip = VNM_TILE_N // 32
    n_slices_per_warp = 32 // 8
    if iters:
        mix.emit(Op.CP_ASYNC_WAIT, iters)
        mix.emit(Op.BAR_SYNC, iters)
        # Stream-pointer bumps only — no per-op column-choice decode.
        mix.emit(Op.IADD, 2 * iters)
        # Fragments staged in gather order: conflict-free ldmatrix, the
        # same per-iteration fragment shape as the compiled route.
        b_frag = strips * iters * n_slices_per_warp * warps_per_strip
        a_frag = strips * iters * warps_per_strip
        mix.emit(Op.LDMATRIX_X4, b_frag + a_frag)
        pairs = -(-iters // 2)
        meta_frag = strips * pairs * warps_per_strip
        mix.emit(Op.LDMATRIX_X1, meta_frag)
        smem_tx = (b_frag + a_frag) * 4 + meta_frag * 4
        work.smem.accesses += smem_tx
        work.smem.transactions += smem_tx
        mix.emit(
            Op.MMA_SP_M16N8K32_F16,
            strips * iters * warps_per_strip * n_slices_per_warp,
        )

    c_bytes = rows_per_block * ntile * 2
    mix.emit(Op.STG, c_bytes / (16 * 32))

    gmem = work.gmem
    gmem.load_sectors = stream_bytes // 32 + 1
    gmem.load_requests = kept_cols // 8 + groups * panels_per_block + 1
    gmem.useful_load_bytes = stream_bytes
    gmem.store_sectors = c_bytes // 32
    gmem.store_requests = rows_per_block
    gmem.useful_store_bytes = c_bytes

    # The compiled route's static schedule: register double-buffering one
    # op ahead, no in-stage indirection, the gather -> mma chain only per
    # op (the VENOM *baseline* pays 120 serial cycles per op for its
    # per-panel metadata chase, which a plan pre-stages).
    frag_loads_per_iter = (
        0.5 * strips * (n_slices_per_warp + 1 + 0.5) if iters else 0.0
    )
    work.stalls = estimate_block_stalls(
        COMPILED_PIPELINE, iters, frag_loads_per_iter, device
    )
    work.critical_path_cycles = (
        COMPILED_PIPELINE.stages * device.dram_latency_cycles * 0.5
        + iters * COMPILED_PER_OP_SERIAL_CYCLES
    )
    trace.add_block(work)

    sb = vp.storage_bytes()["total"]
    trace.footprint_bytes = float(sb + k * n * 2 + m_rows * n * 2)
    return trace


def vnm_profile(vp: VnmPlan, n: int, device: DeviceSpec = A100) -> KernelProfile:
    """The (cached) simulated profile of one V:N:M launch at width ``n``."""
    return vp._profiles.profile((n, device), lambda: _vnm_trace(vp, n, device), device)


def run_vnm_kernel(
    vp: VnmPlan,
    b: np.ndarray,
    device: DeviceSpec = A100,
    want_output: bool = True,
):
    """Execute one V:N:M launch: ``C = A @ B``."""
    from .kernels.base import JigsawRunResult  # local: kernels imports core

    profile = vnm_profile(vp, b.shape[1], device)
    c = vnm_output(vp, b) if want_output else None
    return JigsawRunResult(c=c, profile=profile)


__all__ = [
    "DETECT_M_CANDIDATES",
    "DETECT_V_CANDIDATES",
    "VnmPlan",
    "detect_vnm_spec",
    "run_vnm_kernel",
    "vnm_output",
    "vnm_profile",
]
