"""Builders for the paper's figures (1, 10, 11, 12)."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines import cublas_hgemm
from repro.core import JigsawPlan, TileConfig, reorder_matrix
from repro.data.dlmc import DlmcDataset
from repro.data.vector_sparse import expand_to_vector_sparse
from repro.data.workloads import Workload
from repro.formats.nm import satisfies_nm
from repro.gpu.device import A100, DeviceSpec

from .speedup import SYSTEM_NAMES, run_workload


# --------------------------------------------------------------------------- #
# Figure 1: native 2:4 conformance of DLMC matrices
# --------------------------------------------------------------------------- #

@dataclass
class Fig1Point:
    sparsity: float
    v: int
    proportion: float  # matrices natively satisfying 2:4


def build_fig1(
    sparsities: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.98),
    vector_widths: tuple[int, ...] = (2, 4, 8),
    dataset: DlmcDataset | None = None,
    seed: int = 99,
) -> list[Fig1Point]:
    """Proportion of vector-expanded DLMC matrices that satisfy 2:4 as-is.

    The paper's headline motivation: even at 98% sparsity only ~15% of
    matrices natively fit the SpTC pattern.
    """
    ds = dataset or DlmcDataset(methods=("random",), sparsities=sparsities)
    rng = np.random.default_rng(seed)
    points = []
    for sparsity in sparsities:
        masks = [
            ds.materialize_mask(e) for e in ds.entries() if e.sparsity == sparsity
        ]
        for v in vector_widths:
            hits = 0
            for mask in masks:
                # Keep the catalogue shape: the v-tall vectors replace the
                # nonzeros of an (M/v, K) base, so larger v means fewer
                # independent vector rows and higher conformance odds.
                base = mask[: max(1, mask.shape[0] // v)]
                mat = expand_to_vector_sparse(base, v, rng)
                k = mat.shape[1] - mat.shape[1] % 4
                if satisfies_nm(mat[:, :k], 2, 4):
                    hits += 1
            points.append(
                Fig1Point(sparsity=sparsity, v=v, proportion=hits / max(1, len(masks)))
            )
    return points


# --------------------------------------------------------------------------- #
# Figure 10: speedup over cuBLAS across N
# --------------------------------------------------------------------------- #

@dataclass
class Fig10Series:
    sparsity: float
    v: int
    shape: tuple[int, int]
    n_values: tuple[int, ...]
    #: system -> speedup-over-cuBLAS per N.
    series: dict[str, list[float]] = field(default_factory=dict)


def build_fig10(
    sparsities: tuple[float, ...] = (0.80, 0.90, 0.95, 0.98),
    vector_widths: tuple[int, ...] = (2, 4, 8),
    n_values: tuple[int, ...] = (256, 512, 1024, 2048, 4096),
    shapes: tuple[tuple[int, int], ...] = ((2048, 2048),),
    systems: tuple[str, ...] = SYSTEM_NAMES,
    device: DeviceSpec = A100,
    seed: int = 1234,
) -> list[Fig10Series]:
    """Speedup-over-cuBLAS curves across N for every system.

    Series ``i`` (in sparsity, v, shape order) draws its matrix from
    ``seed + i``.
    """
    out = []
    plan_cache: dict = {}
    for sparsity in sparsities:
        for v in vector_widths:
            for shape in shapes:
                m, k = shape
                fig = Fig10Series(
                    sparsity=sparsity, v=v, shape=shape, n_values=n_values
                )
                for name in systems:
                    fig.series[name] = []
                for n in n_values:
                    w = Workload(
                        name=f"fig10_s{sparsity:g}_v{v}_{m}x{k}x{n}",
                        m=m,
                        k=k,
                        n=n,
                        sparsity=sparsity,
                        v=v,
                        seed=seed,
                    )
                    timing = run_workload(w, systems, device, plan_cache)
                    norm = timing.normalized_to_cublas()
                    for name in systems:
                        fig.series[name].append(norm[name])
                seed += 1
                out.append(fig)
    return out


# --------------------------------------------------------------------------- #
# Figure 11: reorder success rate
# --------------------------------------------------------------------------- #

@dataclass
class Fig11Point:
    sparsity: float
    v: int
    block_tile: int
    success_rate: float


def build_fig11(
    sparsities: tuple[float, ...] = (0.8, 0.9, 0.95, 0.98),
    vector_widths: tuple[int, ...] = (2, 4, 8),
    block_tiles: tuple[int, ...] = (16, 32, 64),
    dataset: DlmcDataset | None = None,
    max_matrices: int | None = None,
    seed: int = 55,
) -> list[Fig11Point]:
    """Fraction of DLMC random-pruning matrices whose reorder succeeds.

    Success per Section 4.3: the reordered data satisfies 2:4 while K
    does not grow (no severe reorder retry).
    """
    ds = dataset or DlmcDataset(methods=("random",), sparsities=sparsities)
    rng = np.random.default_rng(seed)
    points = []
    for sparsity in sparsities:
        entries = [e for e in ds.entries() if e.sparsity == sparsity]
        if max_matrices is not None:
            entries = entries[:max_matrices]
        masks = [ds.materialize_mask(e) for e in entries]
        for v in vector_widths:
            mats = [expand_to_vector_sparse(mask, v, rng) for mask in masks]
            for bt in block_tiles:
                wins = 0
                for mat in mats:
                    res = reorder_matrix(mat, TileConfig(block_tile=bt))
                    wins += int(res.success)
                points.append(
                    Fig11Point(
                        sparsity=sparsity,
                        v=v,
                        block_tile=bt,
                        success_rate=wins / max(1, len(mats)),
                    )
                )
    return points


# --------------------------------------------------------------------------- #
# Figure 12: ablation v0..v4
# --------------------------------------------------------------------------- #

@dataclass
class Fig12Result:
    #: version -> average speedup over cuBLAS.
    avg_speedup: dict[str, float]
    #: Nsight probe (512^3 per the paper) metrics per version.
    probe_metrics: dict[str, dict[str, float]]


def build_fig12(
    sparsity: float = 0.95,
    v: int = 8,
    shapes: tuple[tuple[int, int], ...] = ((512, 512), (1024, 1024), (2048, 2048)),
    n_values: tuple[int, ...] = (256, 512, 1024, 2048),
    probe: tuple[int, int, int] = (512, 512, 512),
    device: DeviceSpec = A100,
) -> Fig12Result:
    """The ablation: v0..v4 speedups over cuBLAS at 95% sparsity, v=8,
    plus the Nsight counter deltas at the paper's M=N=K=512 probe."""
    versions = ("v0", "v1", "v2", "v3", "v4")
    ratios: dict[str, list[float]] = {ver: [] for ver in versions}
    seed = 777
    for m, k in shapes:
        w0 = Workload("fig12", m=m, k=k, n=n_values[0], sparsity=sparsity, v=v, seed=seed)
        a = w0.materialize_lhs()
        plan = JigsawPlan(a)
        for n in n_values:
            rng = np.random.default_rng(seed + n)
            b = rng.standard_normal((k, n)).astype(np.float16)
            cu = cublas_hgemm(a, b, device, want_output=False).profile.duration_us
            for ver in versions:
                ji = plan.run(b, version=ver, device=device, want_output=False)
                ratios[ver].append(cu / ji.profile.duration_us)
        seed += 1

    pm, pk, pn = probe
    wp = Workload("fig12_probe", m=pm, k=pk, n=pn, sparsity=sparsity, v=v, seed=31)
    a = wp.materialize_lhs()
    b = wp.materialize_rhs()
    plan = JigsawPlan(a)
    probe_metrics = {}
    for ver in versions:
        p = plan.run(b, version=ver, device=device, want_output=False).profile
        probe_metrics[ver] = {
            "duration_us": p.duration_us,
            "bank_conflicts": float(p.smem_bank_conflicts),
            "long_scoreboard": p.warp_long_scoreboard,
            "short_scoreboard": p.warp_short_scoreboard,
            "smem_instructions": p.instruction_mix.shared_memory_instructions(),
        }
    return Fig12Result(
        # No shapes: the probe alone.
        avg_speedup={ver: float(np.mean(rs)) for ver, rs in ratios.items() if rs},
        probe_metrics=probe_metrics,
    )
