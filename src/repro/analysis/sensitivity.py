"""Device-sensitivity study: how Jigsaw's advantage shifts with hardware.

The paper evaluates one device (A100).  Because this reproduction's
substrate is parameterized, we can ask the questions a hardware vendor
would: does Jigsaw's win over cuBLAS survive more DRAM bandwidth?  Fewer
SMs?  Faster tensor cores?  The study perturbs one
:class:`~repro.gpu.device.DeviceSpec` axis at a time and re-times
Jigsaw vs cuBLAS on a fixed workload.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines import cublas_hgemm
from repro.core import JigsawPlan
from repro.gpu.device import A100, DeviceSpec


@dataclass
class SensitivityPoint:
    axis: str
    scale: float
    jigsaw_us: float
    cublas_us: float

    @property
    def speedup(self) -> float:
        return self.cublas_us / self.jigsaw_us


#: Perturbation axes: name -> DeviceSpec field scaled.
AXES: dict[str, str] = {
    "dram_bandwidth": "dram_bandwidth_gbps",
    "tensor_core_throughput": "tc_fp16_fma_per_sm_per_cycle",
    "sm_count": "num_sms",
    "l2_bandwidth": "l2_bandwidth_bytes_per_clk",
}


def perturbed_device(axis: str, scale: float, base: DeviceSpec = A100) -> DeviceSpec:
    """A copy of ``base`` with one axis scaled by ``scale``."""
    if axis not in AXES:
        raise ValueError(f"unknown axis {axis!r}; choose from {sorted(AXES)}")
    if scale <= 0:
        raise ValueError("scale must be positive")
    field = AXES[axis]
    value = getattr(base, field)
    new = value * scale if isinstance(value, float) else max(1, int(round(value * scale)))
    return base.with_(**{field: new})


def run_sensitivity(
    m: int = 1024,
    k: int = 1024,
    n: int = 1024,
    sparsity: float = 0.95,
    v: int = 8,
    scales: tuple[float, ...] = (0.5, 1.0, 2.0),
    axes: tuple[str, ...] = tuple(AXES),
    seed: int = 13,
    device: DeviceSpec = A100,
) -> list[SensitivityPoint]:
    """Sweep each axis of ``device``; the Jigsaw plan is built once and reused."""
    from repro.data import expand_to_vector_sparse

    rng = np.random.default_rng(seed)
    base = rng.random((m // v, k)) >= sparsity
    a = expand_to_vector_sparse(base, v, rng)
    b = rng.standard_normal((k, n)).astype(np.float16)
    plan = JigsawPlan(a)

    points = []
    for axis in axes:
        for scale in scales:
            dev = perturbed_device(axis, scale, device)
            jig = plan.run(b, device=dev, want_output=False).profile.duration_us
            cub = cublas_hgemm(a, b, device=dev, want_output=False).profile.duration_us
            points.append(
                SensitivityPoint(axis=axis, scale=scale, jigsaw_us=jig, cublas_us=cub)
            )
    return points


def render_sensitivity(points: list[SensitivityPoint]) -> str:
    from .report import render_table

    rows = [
        [
            p.axis,
            f"x{p.scale:g}",
            f"{p.jigsaw_us:.2f}",
            f"{p.cublas_us:.2f}",
            f"{p.speedup:.2f}x",
        ]
        for p in points
    ]
    return render_table(["axis", "scale", "jigsaw us", "cublas us", "speedup"], rows)
