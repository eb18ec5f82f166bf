"""Section 4.6 — memory overhead of the reorder-aware storage format.

The paper's model totals 56.25% / 50% / 46.87% of the dense fp16
footprint for BLOCK_TILE = 16 / 32 / 64 (MMA_TILE = 16), ignoring the
savings from deleted blank columns.  This bench prints the paper model,
the corrected model (the published arithmetic books fp16 values at one
byte each — see analysis.overhead docs), and the measured storage of
concrete JigsawMatrix instances, which additionally benefits from
zero-column removal.
"""

from repro.analysis import PAPER_TOTALS

from conftest import run_artifact


def test_overhead_paper_model(benchmark):
    models = run_artifact("overhead", benchmark)
    for bt, expected in PAPER_TOTALS.items():
        assert models[bt].total_ratio == abs(expected) or abs(
            models[bt].total_ratio - expected
        ) < 1e-3


def test_overhead_measured(benchmark):
    run_artifact("overhead_corrected")
    measured = run_artifact("overhead_measured", benchmark)
    # Measured storage shrinks with larger BLOCK_TILE (smaller col_idx
    # arrays), mirroring the model's ordering.
    assert measured[64].col_idx_ratio <= measured[16].col_idx_ratio
    # And beats even the paper's (optimistic) totals thanks to the
    # zero-column removal the model ignores.
    for bt, expected in PAPER_TOTALS.items():
        assert measured[bt].total_ratio < expected + 0.25
