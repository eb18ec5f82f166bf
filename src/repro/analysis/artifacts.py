"""The paper's artifacts: one table builds and renders every result block.

``ARTIFACTS`` lists, in file order, every simulated-clock block of
``benchmarks/RESULTS.txt``: the paper's Figures 1 and 10-12, Tables 2-3,
Section 4.6's storage models, and the ablations and extensions around
them.  Each entry is ``(key, title, build, render)``: ``build(grid)``
returns the result object, ``render(result)`` its text table.  Three
consumers loop over it: ``render_results`` (and ``python -m repro
reproduce``, which writes the file), the ``benchmarks/bench_*.py``
paper-shape assertions, and the tier-1 pin of the paper's clock.

Every size knob lives in one :class:`Grid`.  ``REDUCED`` (the default)
finishes in minutes and is what ``RESULTS.txt`` records; ``FULL`` sweeps
the paper's complete grids and is chosen by ``REPRO_FULL_GRID=1``.
Nothing here reads the host clock, so a regeneration is byte-identical.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from typing import Any, Callable, NamedTuple

import numpy as np

from repro.baselines import cublas_hgemm
from repro.core import JigsawMatrix, JigsawPlan, SparseLinear, TileConfig, reorder_matrix
from repro.core.kernels import V3, V3_K16, build_hybrid_plan, hybrid_spmm, run_jigsaw_kernel
from repro.core.reorder import reorder_slab
from repro.data import SHAPE_CATALOGUE, DlmcDataset, expand_to_vector_sparse, vector_prune
from repro.formats import venom_prune
from repro.gpu import COSTS, Op
from repro.gpu.device import A100, DeviceSpec

from .campaign import render_campaign, run_campaign
from .figures import build_fig1, build_fig10, build_fig11, build_fig12
from .overhead import measured_overhead, paper_overhead_model
from .report import (
    render_fig1,
    render_fig10,
    render_fig11,
    render_fig12,
    render_overhead,
    render_table,
    render_table2,
    render_table3,
)
from .sensitivity import render_sensitivity, run_sensitivity
from .tables import build_table2, build_table3


@dataclass(frozen=True)
class Grid:
    """Every size knob of every artifact, and the device they run on.

    ``device`` and ``fig10_seed`` let a test rebuild a slice of the file:
    the fourth Fig. 10 series alone, or the Fig. 12 probe on a perturbed
    clock."""

    device: DeviceSpec = A100
    #: Table 2, Table 3 and Fig. 11 sweep these.
    sparsities: tuple[float, ...] = (0.80, 0.90, 0.95, 0.98)
    vector_widths: tuple[int, ...] = (2, 4, 8)
    fig1_methods: tuple[str, ...] = ("random",)
    fig10_sparsities: tuple[float, ...] = (0.80, 0.95)
    fig10_vector_widths: tuple[int, ...] = (2, 8)
    fig10_n_values: tuple[int, ...] = (256, 512, 1024)
    fig10_shapes: tuple[tuple[int, int], ...] = ((1024, 1024),)
    #: Fig. 10 series i draws its matrix from fig10_seed + i.
    fig10_seed: int = 1234
    fig11_shapes: tuple[tuple[int, int], ...] = (
        (64, 64), (128, 128), (256, 256), (128, 1152), (256, 512),
    )
    fig11_max_matrices: int | None = 8
    fig12_shapes: tuple[tuple[int, int], ...] = ((512, 512), (1024, 1024))
    fig12_n_values: tuple[int, ...] = (256, 512, 1024)
    table2_n_values: tuple[int, ...] = (256, 1024)
    table2_shapes: tuple[tuple[int, int], ...] = ((512, 512), (1024, 1024))
    campaign_sparsities: tuple[float, ...] = (0.8, 0.95)
    campaign_shapes: tuple[tuple[int, int], ...] = (
        (64, 64), (128, 128), (128, 1152), (256, 512),
    )
    campaign_vector_widths: tuple[int, ...] = (2, 8)
    campaign_block_tiles: tuple[int, ...] = (16, 64)
    #: Square edge of the hybrid sweep and the conflict-preference ablation.
    ablation_size: int = 512
    retry_trials: int = 6
    sptc_size: int = 1024
    encoder_tokens: int = 256


REDUCED = Grid()
FULL = replace(
    REDUCED,
    fig1_methods=("random", "magnitude"),
    fig10_sparsities=(0.80, 0.90, 0.95, 0.98),
    fig10_vector_widths=(2, 4, 8),
    fig10_n_values=(256, 512, 1024, 2048, 4096),
    fig10_shapes=((1024, 1024), (2048, 2048)),
    fig11_shapes=SHAPE_CATALOGUE,
    fig11_max_matrices=None,
    fig12_shapes=((512, 512), (1024, 1024), (2048, 2048)),
    fig12_n_values=(256, 512, 1024, 2048),
    table2_n_values=(256, 512, 1024, 2048, 4096),
    table2_shapes=((512, 512), (1024, 1024), (2048, 2048)),
    campaign_sparsities=(0.8, 0.9, 0.95, 0.98),
    campaign_shapes=SHAPE_CATALOGUE,
    campaign_vector_widths=(2, 4, 8),
    campaign_block_tiles=(16, 32, 64),
    ablation_size=1024,
    retry_trials=12,
    sptc_size=2048,
    encoder_tokens=1024,
)


def current_grid() -> Grid:
    """``FULL`` under ``REPRO_FULL_GRID=1``, else ``REDUCED``."""
    return FULL if os.environ.get("REPRO_FULL_GRID", "0") == "1" else REDUCED


# Each builder below takes the grid and returns the result its benches
# assert on; its renderer follows it.  Builders of figures and tables
# with their own result types live in figures.py, tables.py, campaign.py.


def _campaign(g: Grid):
    ds = DlmcDataset(("random",), g.campaign_sparsities, g.campaign_shapes)
    return run_campaign(ds, g.campaign_vector_widths, g.campaign_block_tiles)


def _fig1(g: Grid):
    # Conformance probability falls exponentially with matrix area, so
    # this figure must use the real DLMC shape catalogue (masks only —
    # cheap even for 4096-wide layers).
    sparsities = (0.5, 0.7, 0.8, 0.9, 0.95, 0.98)
    ds = DlmcDataset(methods=g.fig1_methods, sparsities=sparsities)
    return build_fig1(sparsities=sparsities, vector_widths=(2, 4, 8), dataset=ds)


def _fig10(g: Grid):
    return build_fig10(
        g.fig10_sparsities, g.fig10_vector_widths, g.fig10_n_values, g.fig10_shapes,
        device=g.device, seed=g.fig10_seed,
    )


def _cublas_anomaly(g: Grid) -> dict[int, float]:
    """The M=K=2048 outlier: cuBLAS Duration (us) per N around N=512."""
    a = np.zeros((2048, 2048), np.float16)
    return {
        n: cublas_hgemm(a, np.zeros((2048, n), np.float16), g.device, want_output=False)
        .profile.duration_us
        for n in (256, 512, 1024)
    }


def _render_cublas_anomaly(d: dict[int, float]) -> str:
    return render_table(["N", "us"], [[str(n), f"{us:.1f}"] for n, us in d.items()])


def _fig11(g: Grid):
    ds = DlmcDataset(("random",), g.sparsities, g.fig11_shapes)
    return build_fig11(
        g.sparsities, g.vector_widths, (16, 32, 64), ds, max_matrices=g.fig11_max_matrices
    )


def _failures_by_k(g: Grid) -> list[tuple[int, int, int]]:
    """(K, failures, trials) of the reorder at 80% sparsity, v=2, BT=16."""
    rng = np.random.default_rng(17)
    outcomes = []
    for k in (64, 128, 512, 1024):
        trials = 4 if k >= 512 else 6
        fails = 0
        for _ in range(trials):
            mat = expand_to_vector_sparse(rng.random((64, k)) >= 0.8, 2, rng)
            fails += int(not reorder_matrix(mat, TileConfig(block_tile=16)).success)
        outcomes.append((k, fails, trials))
    return outcomes


def _render_failures_by_k(outcomes: list[tuple[int, int, int]]) -> str:
    rows = [[str(k), str(f), str(t)] for k, f, t in outcomes]
    return render_table(["K", "failures", "trials"], rows)


def _hybrid_sweep(g: Grid) -> list[tuple]:
    """(sparsity, cuBLAS us, pure-SpTC us, hybrid us, route fractions)."""
    rng = np.random.default_rng(4)
    size, dev, config = g.ablation_size, g.device, TileConfig(block_tile=32)
    b = rng.standard_normal((size, size)).astype(np.float16)
    rows = []
    for sparsity in (0.4, 0.55, 0.7, 0.8, 0.9, 0.95, 0.98):
        a = expand_to_vector_sparse(rng.random((size // 4, size)) >= sparsity, 4, rng)
        cu = cublas_hgemm(a, b, dev, want_output=False).profile.duration_us
        plan = JigsawPlan(a, block_tiles=(32, 64))
        pure = plan.run(b, device=dev, want_output=False).profile.duration_us
        hyb = hybrid_spmm(a, b, config, dev, want_output=False).profile.duration_us
        rows.append((sparsity, cu, pure, hyb, build_hybrid_plan(a, config).route_fractions()))
    return rows


def _render_hybrid(rows: list[tuple]) -> str:
    return render_table(
        ["sparsity", "cublas us", "jigsaw us", "hybrid us", "hybrid/cu", "routes d/s/c"],
        [
            [f"{sp:.0%}", f"{cu:.1f}", f"{pure:.1f}", f"{hyb:.1f}", f"{cu / hyb:.2f}x",
             f"{d:.2f}/{s:.2f}/{c:.2f}"]
            for sp, cu, pure, hyb, (d, s, c) in rows
        ],
    )


def _microbench(g: Grid) -> list[tuple[str, int, float, float, float]]:
    """(instruction, effective MACs, issue cycles, latency cycles,
    MAC/cycle/SM); effective MACs count the zeros a sparse shape skips."""
    rows = []
    for op, macs in (
        (Op.MMA_M8N8K16_F16, 8 * 8 * 16),
        (Op.MMA_M16N8K16_F16, 16 * 8 * 16),
        (Op.MMA_M16N8K32_F16, 16 * 8 * 32),
        (Op.MMA_SP_M16N8K16_F16, 16 * 8 * 16),
        (Op.MMA_SP_M16N8K32_F16, 16 * 8 * 32),
        (Op.HFMA2, 64),
    ):
        cost = COSTS[op]
        per_sm = macs / cost.issue_cycles * g.device.warp_schedulers_per_sm
        rows.append((op.value, macs, cost.issue_cycles, cost.latency_cycles, per_sm))
    return rows


def _render_microbench(rows: list[tuple]) -> str:
    return render_table(
        ["instruction", "effective MACs", "issue cyc", "latency cyc", "MAC/cyc/SM"],
        [[name, str(m), f"{i:.0f}", f"{lat:.0f}", f"{t:.0f}"] for name, m, i, lat, t in rows],
    )


def _overhead_measured(g: Grid) -> dict:
    rng = np.random.default_rng(7)
    mat = expand_to_vector_sparse(rng.random((64, 512)) >= 0.9, 8, rng)
    return {
        bt: measured_overhead(JigsawMatrix.build(mat, TileConfig(block_tile=bt)))
        for bt in (16, 32, 64)
    }


def plan_reuse_inputs() -> tuple[np.ndarray, np.ndarray]:
    """The plan-reuse problem: a 512x512, 90%-sparse, v=8 A and a 256-wide B."""
    rng = np.random.default_rng(3)
    a = expand_to_vector_sparse(rng.random((64, 512)) >= 0.9, 8, rng)
    b = np.random.default_rng(5).standard_normal((512, 256)).astype(np.float16)
    return a, b


def _plan_reuse(g: Grid) -> float:
    a, b = plan_reuse_inputs()
    plan = JigsawPlan(a, block_tiles=(64,))
    return plan.run(b, version="v3", device=g.device, want_output=False).profile.duration_us


def _conflict_preference(g: Grid) -> dict:
    """v3 profile with the conflict-avoiding cover preference on/off."""
    rng = np.random.default_rng(21)
    size = g.ablation_size
    a = expand_to_vector_sparse(rng.random((size // 2, size)) >= 0.85, 2, rng)
    b = rng.standard_normal((size, size)).astype(np.float16)
    out = {}
    for avoid in (True, False):
        jm = JigsawMatrix.build(a, TileConfig(block_tile=64), avoid_bank_conflicts=avoid)
        out[avoid] = run_jigsaw_kernel(jm, b, V3, g.device, want_output=False).profile
    return out


def _render_conflict_preference(profiles: dict) -> str:
    rows = [
        ["on" if avoid else "off", f"{p.duration_us:.2f}", str(p.smem_bank_conflicts)]
        for avoid, p in profiles.items()
    ]
    return render_table(["preference", "duration_us", "bank_conflicts"], rows)


def _retry_budget(g: Grid) -> dict[int, float]:
    """Clean-success rate of hard 32x64 slabs per eviction budget."""
    rng = np.random.default_rng(22)
    rates = {}
    for budget in (0, 1, 3):
        successes = 0
        for _ in range(g.retry_trials):
            # Hard: dense tiles, few zero columns.
            mat = expand_to_vector_sparse(rng.random((32, 64)) >= 0.7, 2, rng)
            slab = reorder_slab(mat[:32], 0, max_evictions_per_column=max(1, budget))
            successes += int(slab.n_groups <= 64 // 16 and slab.split_groups == 0)
        rates[budget] = successes / g.retry_trials
    return rates


def _sptc_shape(g: Grid) -> dict:
    """v3 profiles with mma.sp.m16n8k32 vs m16n8k16 on 50%-dense 2:4 data."""
    rng = np.random.default_rng(6)
    size = g.sptc_size
    a = venom_prune(rng.standard_normal((size, size)).astype(np.float16), v=32)
    b = rng.standard_normal((size, size)).astype(np.float16)
    jm = JigsawMatrix.build(a, TileConfig(block_tile=64))
    return {
        spec.sptc_shape: run_jigsaw_kernel(jm, b, spec, g.device, want_output=False).profile
        for spec in (V3, V3_K16)
    }


def _render_sptc_shape(profiles: dict) -> str:
    rows = []
    for shape, p in profiles.items():
        mix = p.instruction_mix
        mma = mix.count(Op.MMA_SP_M16N8K32_F16) + mix.count(Op.MMA_SP_M16N8K16_F16)
        rows.append(
            [shape, f"{p.duration_us:.2f}", f"{mma:.0f}", f"{p.compute_limited_cycles:.0f}"]
        )
    return render_table(["shape", "duration_us", "mma.sp count", "tc pipe cycles"], rows)


#: BERT-base-like encoder layer: name -> weight shape (hidden 768, FFN 3072).
HIDDEN, FFN = 768, 3072
ENCODER_SHAPES = {
    "qkv_proj": (3 * HIDDEN, HIDDEN),
    "attn_out": (HIDDEN, HIDDEN),
    "ffn_up": (FFN, HIDDEN),
    "ffn_down": (HIDDEN, FFN),
}


def encoder_weights(rng: np.random.Generator) -> dict[str, np.ndarray]:
    """The encoder's four weights, vector-pruned at 90%, v=8."""
    weights = {}
    for name, (rows, cols) in ENCODER_SHAPES.items():
        dense = (rng.standard_normal((rows, cols)) * 0.02).astype(np.float16)
        weights[name] = vector_prune(dense, v=8, sparsity=0.90).astype(np.float16)
    return weights


def _encoder_layer(g: Grid) -> list[tuple]:
    """(layer, shape, Jigsaw us, cuBLAS us, output matches fp32) per SpMM."""
    rng = np.random.default_rng(15)
    layers = [SparseLinear(w, name=name) for name, w in encoder_weights(rng).items()]
    rows = []
    for layer in layers:
        x = rng.standard_normal((layer.in_features, g.encoder_tokens)).astype(np.float16)
        run = layer.forward(x, device=g.device)
        ref = layer.weight.astype(np.float32) @ x.astype(np.float32)
        ok = np.allclose(run.output.astype(np.float32), ref, rtol=1e-2, atol=0.5)
        cu = cublas_hgemm(layer.weight, x, g.device, want_output=False).profile.duration_us
        rows.append((layer.name, layer.weight.shape, run.duration_us, cu, bool(ok)))
    return rows


def _render_encoder(rows: list[tuple]) -> str:
    total = ("total", "", sum(r[2] for r in rows), sum(r[3] for r in rows), True)
    return render_table(
        ["layer", "shape", "jigsaw us", "cublas us", "speedup"],
        [
            [name, str(shape), f"{j:.2f}", f"{c:.2f}", f"{c / j:.2f}x"]
            for name, shape, j, c, _ in [*rows, total]
        ],
    )


class Artifact(NamedTuple):
    key: str
    title: str
    build: Callable[[Grid], Any]
    render: Callable[[Any], str]


ARTIFACTS: tuple[Artifact, ...] = tuple(Artifact(*entry) for entry in (
    ("campaign", "Section 4.3 campaign: reorder across the collection",
     _campaign, render_campaign),
    ("fig10", "Figure 10: SpMM speedup over cuBLAS (simulated A100)", _fig10, render_fig10),
    ("cublas_anomaly", "cuBLAS N=256 -> 512 anomaly at M=K=2048 (us)",
     _cublas_anomaly, _render_cublas_anomaly),
    ("fig11", "Figure 11: SpTC support after reordering", _fig11, render_fig11),
    ("fig11_failures", "Reorder failures by K (80% sparsity, v=2, BLOCK_TILE=16)",
     _failures_by_k, _render_failures_by_k),
    ("fig12", "Figure 12: ablation v0..v4 (95% sparsity, v=8)",
     lambda g: build_fig12(shapes=g.fig12_shapes, n_values=g.fig12_n_values, device=g.device),
     render_fig12),
    ("fig1", "Figure 1: native 2:4 (SpTC) support in DLMC", _fig1, render_fig1),
    ("hybrid", "Section 4.7 extension: hybrid-granularity kernel", _hybrid_sweep, _render_hybrid),
    ("microbench", "Tensor-core microbenchmarks (simulated A100)",
     _microbench, _render_microbench),
    ("overhead", "Section 4.6: paper storage model (fraction of dense)",
     lambda g: {bt: paper_overhead_model(bt) for bt in (16, 32, 64)}, render_overhead),
    ("overhead_corrected", "Section 4.6: corrected model (fp16 values at 2 B)",
     lambda g: {bt: paper_overhead_model(bt, corrected=True) for bt in (16, 32, 64)},
     render_overhead),
    ("overhead_measured", "Section 4.6: measured JigsawMatrix storage (90% sparse, v=8)",
     _overhead_measured, render_overhead),
    ("plan_reuse", "Plan reuse: simulated kernel Duration",
     _plan_reuse, lambda us: f"{us:.2f} us per SpMM after one-time preprocessing"),
    ("reorder_conflicts", "Reorder ablation: conflict-avoiding cover preference",
     _conflict_preference, _render_conflict_preference),
    ("reorder_retry", "Reorder ablation: retry budget vs clean success", _retry_budget,
     lambda rates: render_table(
         ["max evictions/col", "clean success rate"],
         [[str(k), f"{v:.0%}"] for k, v in rates.items()],
     )),
    # 2048^3 keeps cuBLAS in its compute-bound regime, where the
    # tensor-core axis is visible.
    ("sensitivity", "Device sensitivity: Jigsaw vs cuBLAS (95% sparsity, v=8)",
     lambda g: run_sensitivity(m=2048, k=2048, n=2048, device=g.device), render_sensitivity),
    ("sptc_shape", "Section 2.2: SpTC shape choice (50%-dense 2:4 input)",
     _sptc_shape, _render_sptc_shape),
    ("table2", "Table 2: Jigsaw avg/max speedups",
     lambda g: build_table2(
         g.sparsities, g.vector_widths, g.table2_n_values, g.table2_shapes, g.device
     ),
     render_table2),
    # Table 3 needs the paper's scale in both grids: at 512^2 the
    # VENOM/cuSparseLt margins shrink to par (launch floors dominate).
    ("table3", "Table 3: Jigsaw vs VENOM / cuSparseLt on VENOM-pruned data",
     lambda g: build_table3(g.sparsities, shape=(1024, 1024), n=1024, device=g.device),
     render_table3),
    ("encoder_layer", "Pruned BERT-like encoder layer (90% sparsity, v=8)",
     _encoder_layer, _render_encoder),
))

BY_KEY: dict[str, Artifact] = {a.key: a for a in ARTIFACTS}


def render_block(title: str, body: str) -> str:
    """One result block: the title between ``=`` bars, then the body."""
    bar = "=" * max(len(title), 20)
    return f"{bar}\n{title}\n{bar}\n{body}\n"


def render_results(keys: tuple[str, ...] = (), grid: Grid | None = None) -> str:
    """Build and render the chosen artifacts (all when ``keys`` is empty),
    in table order: the text of ``benchmarks/RESULTS.txt``."""
    unknown = sorted(set(keys) - set(BY_KEY))
    if unknown:
        raise ValueError(f"unknown artifacts {unknown}; choose from {list(BY_KEY)}")
    grid = grid or current_grid()
    return "\n".join(
        render_block(a.title, a.render(a.build(grid)))
        for a in ARTIFACTS
        if not keys or a.key in keys
    )
