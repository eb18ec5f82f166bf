"""Figure 1 — proportion of DLMC matrices natively supporting SpTC's 2:4.

Paper: even at 98% sparsity only ~15% of vector-sparse matrices satisfy
the 2:4 pattern as stored; at 80% it is near zero.  This bench sweeps
the synthetic DLMC collection at v in {2, 4, 8} and prints the
proportions per sparsity.
"""

from conftest import run_artifact


def test_fig1_native_sptc_support(benchmark):
    points = run_artifact("fig1", benchmark)
    by = {(p.sparsity, p.v): p.proportion for p in points}
    # Shape checks against the paper's claims.
    assert by[(0.8, 2)] < 0.10, "80% sparsity should almost never be natively 2:4"
    # Paper: "even for matrices with 98% sparsity, the proportion ...
    # only reaches around 15%".
    assert by[(0.98, 2)] <= 0.45, "98% sparsity stays mostly non-conformant"
    for v in (2, 4, 8):
        assert by[(0.5, v)] <= by[(0.98, v)] + 1e-9
