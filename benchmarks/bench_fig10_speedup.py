"""Figure 10 — SpMM speedup over cuBLAS across N on the simulated A100.

Reproduces the per-N speedup curves for Jigsaw, CLASP, Magicube, Sputnik
and SparTA, normalized to cublasHgemm, including the cuBLAS anomaly at
M=K=2048 between N=256 and N=512 (the paper's outlier analysis).
"""

import numpy as np

from conftest import run_artifact


def test_fig10_speedup_curves(benchmark):
    series = run_artifact("fig10", benchmark)

    # Shape checks from the paper's analysis of Figure 10.
    for fig in series:
        jig = np.array(fig.series["jigsaw"])
        spk = np.array(fig.series["sputnik"])
        assert np.all(jig > 0)
        if fig.sparsity >= 0.95 and fig.v == 8:
            # High sparsity, wide vectors: Jigsaw beats cuBLAS clearly.
            assert jig.mean() > 1.2, (fig.sparsity, fig.v, jig)
            # ... and beats Sputnik.
            assert jig.mean() > spk.mean()
        if fig.sparsity <= 0.80 and fig.v == 2:
            # Low sparsity, narrow vectors: Jigsaw near or below cuBLAS.
            assert jig.mean() < 1.5


def test_fig10_cublas_anomaly(benchmark):
    """The M=K=2048 outlier: cuBLAS throughput collapses at N=512."""
    d = run_artifact("cublas_anomaly", benchmark)
    # Per-column throughput degradation ~3x (paper Section 4.2).
    degradation = (d[512] / 2) / d[256]
    assert 2.0 < degradation < 4.5
    # It recovers at N=1024.
    assert d[1024] < d[512]
