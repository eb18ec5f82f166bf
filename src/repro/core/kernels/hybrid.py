"""Hybrid-granularity kernel — the paper's Section 4.7 *future work*.

Below ~80% sparsity the 2:4 reorder runs out of zero columns to absorb
retries and SpTC utilization drops; the paper sketches the fix:

    "For denser data tile, we can use dense tensor cores, which does not
    require metadata generation and still achieves performance
    acceleration.  [...] we can accelerate the sparser data tiles using
    CUDA cores.  We leave the above improvements of Jigsaw for future
    work."

This module implements that sketch.  Per BLOCK_TILE slab, columns are
routed by slab-column density:

* **dense route** (density > ``dense_threshold``): computed with dense
  ``mma.m16n8k16`` — no 2:4 constraint, no metadata, no reorder;
* **sparse route** (density < ``sparse_threshold``): the handful of
  stragglers run on CUDA cores, Sputnik-style;
* **SpTC route** (everything between): the normal Jigsaw path — zero
  columns skipped, MMA_TILE reorder, ``mma.sp``.

The three routes share the B tile in shared memory and execute as one
kernel (different warps take different routes), so the accounting below
builds a single trace.  This is clearly marked as reproducing the
paper's *sketch*, not its evaluated system.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.gpu.device import A100, DeviceSpec
from repro.gpu.instructions import Op
from repro.gpu.scheduler import KernelTrace, simulate_launch

from ..format import JigsawMatrix
from ..tiles import TileConfig
from .base import JigsawRunResult
from .versions import V3


@dataclass
class RouteDecision:
    """Column routing of one slab."""

    slab_index: int
    dense_cols: np.ndarray   # slab-column ids taking the dense-TC route
    sptc_cols: np.ndarray    # ids taking the 2:4 SpTC route
    sparse_cols: np.ndarray  # ids taking the CUDA-core route

    @property
    def counts(self) -> tuple[int, int, int]:
        return len(self.dense_cols), len(self.sptc_cols), len(self.sparse_cols)


@dataclass
class HybridPlan:
    """Routing + per-route compressed data for one matrix."""

    shape: tuple[int, int]
    config: TileConfig
    dense_threshold: float
    sparse_threshold: float
    routes: list[RouteDecision] = field(default_factory=list)
    #: Jigsaw format of the SpTC-routed columns (zeros elsewhere).
    sptc_format: JigsawMatrix | None = None
    #: Dense-routed columns, per slab: {slab: (cols, values (H, len(cols)))}.
    dense_parts: dict[int, tuple[np.ndarray, np.ndarray]] = field(default_factory=dict)
    #: Sparse-routed nonzeros, per slab: {slab: (rows, cols, values)}.
    sparse_parts: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = field(
        default_factory=dict
    )

    def route_fractions(self) -> tuple[float, float, float]:
        """(dense, sptc, cuda-core) fraction of routed nonzero columns."""
        d = sum(len(r.dense_cols) for r in self.routes)
        s = sum(len(r.sptc_cols) for r in self.routes)
        c = sum(len(r.sparse_cols) for r in self.routes)
        total = max(1, d + s + c)
        return d / total, s / total, c / total


def build_hybrid_plan(
    a: np.ndarray,
    config: TileConfig | None = None,
    dense_threshold: float = 0.5,
    sparse_threshold: float = 0.0625,
) -> HybridPlan:
    """Route each slab's columns by density and compress each route.

    ``dense_threshold``: above this per-slab column density the 2:4
    pattern cannot hold anyway (more than two nonzeros per four rows on
    average), so the column goes to dense tensor cores.
    ``sparse_threshold``: below this density a column wastes an SpTC
    operand slot (the paper's "low resource utilization") and runs on
    CUDA cores instead.
    """
    if not 0 <= sparse_threshold <= dense_threshold <= 1:
        raise ValueError("thresholds must satisfy 0 <= sparse <= dense <= 1")
    config = config or TileConfig()
    m, k = a.shape
    h = config.block_tile
    plan = HybridPlan(
        shape=(m, k),
        config=config,
        dense_threshold=dense_threshold,
        sparse_threshold=sparse_threshold,
    )
    sptc_only = np.zeros_like(a)
    for si, r0 in enumerate(range(0, m, h)):
        slab = a[r0 : min(r0 + h, m)]
        density = (slab != 0).mean(axis=0)
        nz = density > 0
        dense_cols = np.flatnonzero(density > dense_threshold)
        sparse_cols = np.flatnonzero(nz & (density <= sparse_threshold))
        sptc_cols = np.flatnonzero(
            (density > sparse_threshold) & (density <= dense_threshold)
        )
        plan.routes.append(
            RouteDecision(
                slab_index=si,
                dense_cols=dense_cols.astype(np.int32),
                sptc_cols=sptc_cols.astype(np.int32),
                sparse_cols=sparse_cols.astype(np.int32),
            )
        )
        if len(dense_cols):
            plan.dense_parts[si] = (
                dense_cols.astype(np.int32),
                slab[:, dense_cols].astype(np.float16),
            )
        if len(sparse_cols):
            rows, cols_local = np.nonzero(slab[:, sparse_cols])
            plan.sparse_parts[si] = (
                rows.astype(np.int32),
                sparse_cols[cols_local].astype(np.int32),
                slab[rows, sparse_cols[cols_local]].astype(np.float16),
            )
        sptc_only[r0 : r0 + slab.shape[0], sptc_cols] = slab[:, sptc_cols]
    plan.sptc_format = JigsawMatrix.build(sptc_only, config)
    return plan


def run_hybrid_kernel(
    plan: HybridPlan,
    b: np.ndarray,
    device: DeviceSpec = A100,
    want_output: bool = True,
) -> JigsawRunResult:
    """Simulate the hybrid kernel: one launch, three per-warp routes."""
    m, k = plan.shape
    if b.shape[0] != k:
        raise ValueError(f"B has {b.shape[0]} rows; A has {k} columns")
    n = b.shape[1]
    cfg = plan.config
    n_blocks = -(-n // cfg.block_tile_n)
    assert plan.sptc_format is not None

    # --- accounting: extend the SpTC trace with the other two routes ------
    from .base import _account_block

    trace = KernelTrace(
        kernel_name=f"jigsaw_hybrid_bt{cfg.block_tile}",
        threads_per_block=cfg.threads_per_block,
        smem_bytes_per_block=cfg.smem_bytes,
        regs_per_thread=64,
        footprint_bytes=float(m * k // 4 + k * n * 2 + m * n * 2),
    )
    sptc = plan.sptc_format
    strips_per_slab = sptc.reorder.n_strips.tolist()
    for strips, slab, route in zip(strips_per_slab, sptc.slabs, plan.routes):
        work = _account_block(sptc, slab, n, V3, device)
        warps_per_strip = cfg.block_tile_n // 32

        # Dense route: mma.m16n8k16 over the dense columns, no metadata.
        n_dense = len(route.dense_cols)
        if n_dense:
            dense_kiters = -(-n_dense // 16)
            dense_mma = strips * warps_per_strip * dense_kiters * (32 // 8) * 2
            work.mix.emit(Op.MMA_M16N8K16_F16, dense_mma)
            work.mix.emit(Op.LDMATRIX_X4, dense_mma / 2)
            work.smem.accesses += int(dense_mma / 2) * 4
            work.smem.transactions += int(dense_mma / 2) * 4
            bytes_dense = n_dense * cfg.block_tile_n * 2
            work.gmem.load_sectors += bytes_dense // 32
            work.gmem.useful_load_bytes += bytes_dense
            work.mix.emit(Op.CP_ASYNC, bytes_dense / (16 * 32))

        # CUDA-core route: hfma2 per nonzero across the N tile.
        if route.slab_index in plan.sparse_parts:
            rows, cols, vals = plan.sparse_parts[route.slab_index]
            nnz = len(vals)
            work.mix.emit(Op.HFMA2, nnz * cfg.block_tile_n / 64)
            work.mix.emit(Op.LDG, nnz * 6 / (16 * 32) + 1)
            work.l1_gather_bytes += nnz * cfg.block_tile_n * 2
            work.mix.emit(Op.IADD, nnz / 4)

        work.weight = n_blocks
        trace.add_block(work)

    profile = simulate_launch(trace, device)

    c: np.ndarray | None = None
    if want_output:
        c = _hybrid_output(plan, b)
    return JigsawRunResult(c=c, profile=profile)


def _hybrid_output(plan: HybridPlan, b: np.ndarray) -> np.ndarray:
    """Functional output: the three routes' partial sums."""
    from .base import compute_output

    assert plan.sptc_format is not None
    m, _ = plan.shape
    n = b.shape[1]
    h = plan.config.block_tile
    c = compute_output(plan.sptc_format, b)
    bf = b.astype(np.float32)
    for si, (cols, values) in plan.dense_parts.items():
        r0 = si * h
        rows_here = min(h, m - r0)
        c[r0 : r0 + rows_here] += (
            values[:rows_here].astype(np.float32) @ bf[cols]
        )
    for si, (rows, cols, vals) in plan.sparse_parts.items():
        r0 = si * h
        contrib = vals.astype(np.float32)[:, None] * bf[cols]
        np.add.at(c, r0 + rows.astype(np.int64), contrib)
    return c


def hybrid_spmm(
    a: np.ndarray,
    b: np.ndarray,
    config: TileConfig | None = None,
    device: DeviceSpec = A100,
    dense_threshold: float = 0.5,
    sparse_threshold: float = 0.0625,
    want_output: bool = True,
) -> JigsawRunResult:
    """One-shot hybrid SpMM (Section 4.7 extension)."""
    plan = build_hybrid_plan(
        a, config, dense_threshold=dense_threshold, sparse_threshold=sparse_threshold
    )
    return run_hybrid_kernel(plan, b, device, want_output=want_output)
