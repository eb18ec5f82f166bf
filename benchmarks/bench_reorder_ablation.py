"""Ablation of the reorder algorithm's design choices.

Two knobs the paper's Section 3 fixes by design, ablated here:

* **conflict-avoiding cover preference** (Section 3.4.1): among valid
  MMA_TILE covers, prefer those whose 8-column halves avoid same-bank
  columns.  Disabling it must not change correctness or success rate,
  but measurably raises residual ldmatrix bank conflicts.
* **retry budget** (Section 3.2's reorder retry): how many times a
  column may be evicted before split mode forces 50% occupancy.
  A tiny budget degrades the success rate at low sparsity; the default
  recovers it.
"""

from conftest import run_artifact


def test_conflict_avoiding_preference(benchmark):
    profiles = run_artifact("reorder_conflicts", benchmark)
    on, off = profiles[True], profiles[False]
    # The preference removes conflicts the padded layout alone cannot.
    assert on.smem_bank_conflicts <= off.smem_bank_conflicts
    assert on.duration_us <= off.duration_us * 1.001


def test_retry_budget(benchmark):
    rates = run_artifact("reorder_retry", benchmark)
    # More retry budget never hurts.
    assert rates[3] >= rates[1] >= rates[0] - 1e-9
