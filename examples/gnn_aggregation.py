#!/usr/bin/env python3
"""GNN feature aggregation — where Jigsaw's assumptions stop holding.

The paper scopes Jigsaw to DL pruning sparsity (80-98%, vector-shaped)
and notes that scientific-computing SpMM lives elsewhere (Section 5).
Graph aggregation ``A @ X`` (A = adjacency, X = node features) is the
boundary case: ~99.5% sparse, scalar (no vector structure), heavy-tailed
degrees.  This example runs it anyway and reports *why* the regime is
wrong for an SpTC-reorder approach even when the simulated Duration
still looks fine:

* SpTC operand utilization collapses (stored 16x8 value blocks are
  almost entirely explicit zeros);
* the one-time reorder is no longer "light preprocessing" relative to
  the microsecond-scale kernels it enables;
* load balance is driven by the degree tail, which favours
  row-scheduling designs (Sputnik) over tile-scheduling ones.

Run:  python examples/gnn_aggregation.py
"""

import time

import numpy as np

from repro.baselines import cublas_hgemm, cusparse_spmm, sputnik_spmm
from repro.baselines.row_swizzle import imbalance
from repro.core import JigsawPlan

N_NODES = 1024
FEATURES = 64


def power_law_adjacency(n: int, rng: np.random.Generator) -> np.ndarray:
    deg = np.minimum((rng.pareto(1.2, n) * 6).astype(int) + 1, n // 8)
    a = np.zeros((n, n), dtype=np.float16)
    for i, d in enumerate(deg):
        a[i, rng.choice(n, size=d, replace=False)] = 1.0
    return a


def main() -> None:
    rng = np.random.default_rng(23)
    a = power_law_adjacency(N_NODES, rng)
    x = rng.standard_normal((N_NODES, FEATURES)).astype(np.float16)
    sparsity = 1 - np.count_nonzero(a) / a.size
    nnz = int(np.count_nonzero(a))
    print(f"graph: {N_NODES} nodes, {nnz} edges, {sparsity:.2%} sparse (scalar)")

    t0 = time.time()
    plan = JigsawPlan(a, block_tiles=(16,))
    jm = plan.format_for(16)
    prep_s = time.time() - t0
    jig = plan.run(x, want_output=False)

    # SpTC utilization: true nonzeros per stored compressed slot.
    stored = jm.values.size
    utilization = nnz / max(1, stored)
    print(f"\nJigsaw : {jig.profile.duration_us:6.2f} us simulated "
          f"(zero-column skip {jm.reorder.skipped_column_fraction:.0%})")
    print(f"         but SpTC operand utilization = {utilization:.1%} "
          f"(DL-regime workloads sit near 50%)")
    print(f"         and preprocessing took {prep_s:.1f} s of host time for "
          f"{jig.profile.duration_us:.1f} us kernels")

    for name, fn in (("Sputnik", sputnik_spmm), ("cuSPARSE", cusparse_spmm)):
        res = fn(a, x, want_output=False)
        print(f"{name:>7}: {res.profile.duration_us:6.2f} us simulated, "
              f"zero preprocessing")
    cu = cublas_hgemm(a, x, want_output=False)
    print(f" cuBLAS: {cu.profile.duration_us:6.2f} us (dense; the wrong tool here)")

    skew = imbalance(np.count_nonzero(a, axis=1), rows_per_block=4, swizzled=False)
    balanced = imbalance(np.count_nonzero(a, axis=1), rows_per_block=4, swizzled=True)
    print(f"\ndegree-tail imbalance: contiguous blocks {skew:.1f}x the mean; "
          f"row swizzle brings it to {balanced:.1f}x")
    print(
        "\nTakeaway: at graph sparsity the SpTC format stores mostly explicit\n"
        "zeros and the reorder stops being 'light' — the paper's scoping of\n"
        "Jigsaw to DL pruning sparsity (Sections 1 and 5) is the right call."
    )

    # Correctness still holds everywhere, of course.
    out = plan.run(x)
    ref = a.astype(np.float32) @ x.astype(np.float32)
    assert np.allclose(out.c, ref, rtol=1e-2, atol=0.5)


if __name__ == "__main__":
    main()
