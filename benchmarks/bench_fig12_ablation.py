"""Figure 12 — ablation of the kernel optimizations (v0..v4).

Paper (Section 4.4, 95% sparsity, v=8): average speedups over cuBLAS of
0.89 / 1.20 / 1.23 / 1.40 / 1.82 for v0..v4, with Nsight showing
-99.48% bank conflicts (v0->v1), long scoreboard 1.82->0.87 (v1->v2) and
-7.78% shared-memory instructions / -9.65% short scoreboard (v2->v3).
"""

from conftest import run_artifact


def test_fig12_ablation(benchmark):
    result = run_artifact("fig12", benchmark)

    s = result.avg_speedup
    # Monotone improvement across the optimization chain.
    assert s["v0"] < s["v1"] <= s["v2"] <= s["v3"] < s["v4"]
    # v4 lands near the paper's 1.82x.
    assert 1.4 < s["v4"] < 2.6

    m = result.probe_metrics
    # v0 -> v1: bank-conflict elimination (paper: -99.48%).
    reduction = 1 - m["v1"]["bank_conflicts"] / m["v0"]["bank_conflicts"]
    assert reduction > 0.9
    # v1 -> v2: deepened pipeline cuts the long-scoreboard stalls
    # (paper: 1.82 -> 0.87).
    assert m["v2"]["long_scoreboard"] < m["v1"]["long_scoreboard"]
    # v2 -> v3: interleaved metadata cuts shared-memory instructions
    # (paper: -7.78%).
    drop = 1 - m["v3"]["smem_instructions"] / m["v2"]["smem_instructions"]
    assert 0.03 < drop < 0.15
