"""Shared helpers for the baseline SpMM/GEMM models."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gpu.profiler import KernelProfile


@dataclass
class BaselineResult:
    """Output of one simulated baseline launch."""

    c: np.ndarray | None
    profile: KernelProfile


def gemm_footprint_bytes(m: int, n: int, k: int, a_bytes: float | None = None) -> float:
    """Unique working set of a GEMM: A + B + C (fp16)."""
    a = a_bytes if a_bytes is not None else float(m * k * 2)
    return a + k * n * 2 + m * n * 2


def reference_spmm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """fp32 reference product used for functional outputs."""
    return a.astype(np.float32) @ b.astype(np.float32)


def check_dims(a_shape: tuple[int, int], b: np.ndarray) -> tuple[int, int, int]:
    """Validate A (m, k) against B (k, n); returns (m, n, k)."""
    m, k = a_shape
    if b.ndim != 2 or b.shape[0] != k:
        raise ValueError(f"B shape {b.shape} incompatible with A {a_shape}")
    return m, b.shape[1], k

