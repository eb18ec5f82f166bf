"""Figure 11 — multi-granularity reorder success rate.

Success per Section 4.3: the reordered matrix satisfies the 2:4 pattern
with K no bigger than the original (no severe reorder retry).  The paper
finds success rises with sparsity and vector width, falls with
BLOCK_TILE, and fails mainly on small-K matrices at 80% sparsity.
"""

from conftest import run_artifact


def test_fig11_reorder_success(benchmark):
    points = run_artifact("fig11", benchmark)
    by = {(p.sparsity, p.v, p.block_tile): p.success_rate for p in points}
    # Success rises with sparsity (paper: more all-zero columns tolerate
    # more MMA_TILE failures).
    for v in (2, 4, 8):
        for bt in (16, 32, 64):
            assert by[(0.98, v, bt)] >= by[(0.8, v, bt)]
    # At 80% sparsity, larger BLOCK_TILE lowers the success rate.
    assert by[(0.8, 2, 64)] <= by[(0.8, 2, 16)]
    # Wider vectors reorder more easily at fixed sparsity.
    assert by[(0.8, 8, 16)] >= by[(0.8, 2, 16)]
    # High sparsity reorders essentially always succeed.
    assert by[(0.98, 8, 16)] >= 0.9


def test_fig11_failures_confined_to_small_k(benchmark):
    """Paper Section 4.3: failing cases at 80%, v=2, BLOCK_TILE=16 all had
    K <= 128 (DLMC's K spans 64..4608)."""
    outcomes = run_artifact("fig11_failures", benchmark)
    large_k_fails = sum(f for k, f, _ in outcomes if k > 128)
    small_k_fails = sum(f for k, f, _ in outcomes if k <= 128)
    assert large_k_fails <= small_k_fails
