"""Jigsaw SpMM kernel implementations on the simulated GPU."""

from .hybrid import (
    HybridPlan,
    RouteDecision,
    build_hybrid_plan,
    hybrid_spmm,
    run_hybrid_kernel,
)
from .base import (
    B_TILE_PAD_ELEMS,
    JigsawKernelSpec,
    JigsawRunResult,
    compute_output,
    compute_output_exact,
    jigsaw_profile,
    run_jigsaw_kernel,
)
from .versions import ABLATION_VERSIONS, ALL_VERSIONS, V0, V1, V2, V3, V3_K16, V4

__all__ = [
    "HybridPlan",
    "RouteDecision",
    "build_hybrid_plan",
    "hybrid_spmm",
    "run_hybrid_kernel",
    "B_TILE_PAD_ELEMS",
    "JigsawKernelSpec",
    "JigsawRunResult",
    "compute_output",
    "compute_output_exact",
    "jigsaw_profile",
    "run_jigsaw_kernel",
    "ABLATION_VERSIONS",
    "ALL_VERSIONS",
    "V0",
    "V1",
    "V2",
    "V3",
    "V3_K16",
    "V4",
]
