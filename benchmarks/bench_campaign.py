"""Section 4.3-style whole-collection reorder campaign.

Runs the synthetic DLMC collection through the multi-granularity reorder
at every (v, BLOCK_TILE) combination and prints the digest the paper's
Section 4.3 narrates: success rates by sparsity/v/tile, the K ceiling of
the failures, and the storage footprint of the surviving formats.
"""

from conftest import run_artifact


def test_reorder_campaign(benchmark):
    result = run_artifact("campaign", benchmark)

    # Success rises with sparsity (paper's central Section 4.3 claim).
    assert result.success_rate(sparsity=0.95) >= result.success_rate(sparsity=0.8)
    # Wider vectors reorder more easily at 80%.
    assert result.success_rate(sparsity=0.8, v=8) >= result.success_rate(
        sparsity=0.8, v=2
    )
    # The compressed formats always beat the dense footprint on average.
    assert result.mean_storage_ratio() < 1.0
    # Failures, when present, concentrate at low sparsity.
    for rec in result.failures():
        assert rec.entry.sparsity <= 0.9
