#!/usr/bin/env python3
"""Two-layer GCN as a :class:`~repro.graph.ModelGraph`.

A graph convolution layer is ``H' = act((A_hat @ H) W)``: one SpMM with
the renormalized adjacency ``A_hat`` (Kipf & Welling) followed by a
dense feature projection.  That maps directly onto the model-graph
tier — ``A_hat`` is registered **once** as a serving matrix and both
layers reference it by name (so concurrent requests' layer SpMMs batch
together per matrix), while the projection + activation ride along as
each node's ``transform``.

Adjacency sparsity is scalar, not vector-shaped, so this sits outside
Jigsaw's target regime (see ``examples/gnn_aggregation.py``) — the
serving route chain still executes it through its fallback routes,
which is the point: the graph tier composes with whatever route the
matrix supports.

Run:  python examples/gcn_graph.py
"""

import tempfile
import time

import numpy as np

from repro.graph import GraphExecutor, ModelGraph
from repro.serve import BatchExecutor, PlanRegistry

N_NODES = 512
FEATURES = (32, 64, 16)  # input -> hidden -> output feature widths
REQUESTS = 8


def normalized_adjacency(n: int, rng: np.random.Generator) -> np.ndarray:
    """Kipf-Welling renormalized adjacency: D^-1/2 (A + I) D^-1/2."""
    a = (rng.random((n, n)) < 0.02).astype(np.float32)
    a = np.maximum(a, a.T)  # undirected
    np.fill_diagonal(a, 1.0)  # self loops
    d_inv_sqrt = 1.0 / np.sqrt(a.sum(axis=1))
    return (a * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]).astype(np.float16)


def main() -> None:
    rng = np.random.default_rng(7)
    a_hat = normalized_adjacency(N_NODES, rng)
    w0 = (rng.standard_normal(FEATURES[:2]) * 0.1).astype(np.float16)
    w1 = (rng.standard_normal(FEATURES[1:]) * 0.1).astype(np.float16)
    print(
        f"graph: {N_NODES} nodes, adjacency "
        f"{1 - np.count_nonzero(a_hat) / a_hat.size:.1%} sparse; "
        f"features {FEATURES[0]} -> {FEATURES[1]} -> {FEATURES[2]}"
    )

    # Layer nodes: the SpMM matrix is the shared adjacency; projection
    # and relu are the node's transform (applied after the SpMM).
    graph = ModelGraph(input_cast="float16")
    graph.add_layer(
        "gc0",
        weight=a_hat,
        matrix="adj",
        transform=lambda p: np.maximum((p @ w0).astype(np.float16), np.float16(0)),
    )
    graph.add_layer(
        "gc1",
        matrix="adj",
        inputs="gc0",
        transform=lambda p: (p @ w1).astype(np.float16),
    )

    cache = tempfile.TemporaryDirectory(prefix="jigsaw-gcn-")  # removed at exit
    registry = PlanRegistry(cache_dir=cache.name)
    graph.register(registry)
    registry.warm()

    panels = [
        rng.standard_normal((N_NODES, FEATURES[0])).astype(np.float16)
        for _ in range(REQUESTS)
    ]
    # v3 pins the kernel to BLOCK_TILE=64: both GCN layers share the
    # adjacency matrix but produce different panel widths (32 and 64
    # features), so their SpMMs batch together into mixed-width groups —
    # a fixed-tile kernel keeps batched execution bit-identical to the
    # sequential reference no matter how the widths interleave, where
    # v4's per-launch autotune could pick a different BLOCK_TILE for the
    # concatenated panel than for a singleton.
    with BatchExecutor(registry, max_batch=REQUESTS) as executor:
        gx = GraphExecutor(graph, executor, version="v3")
        t0 = time.perf_counter()
        sequential = gx.run_sequential(panels)
        seq_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        pipelined = gx.run(panels)
        pip_s = time.perf_counter() - t0
        stats = executor.stats()

    # Pipelined execution changes scheduling, never results.
    assert all(
        np.array_equal(s.output, p.output) for s, p in zip(sequential, pipelined)
    )
    # And the whole DAG matches an fp32 dense reference within fp16 slack.
    h0 = panels[0].astype(np.float32)
    ref = np.maximum(a_hat.astype(np.float32) @ h0 @ w0.astype(np.float32), 0.0)
    ref = a_hat.astype(np.float32) @ ref @ w1.astype(np.float32)
    assert pipelined[0].output is not None
    assert np.allclose(pipelined[0].output.astype(np.float32), ref, rtol=1e-2, atol=0.1)

    print(f"served routes: {pipelined[0].routes}")
    print(
        f"{REQUESTS} requests: sequential {seq_s * 1e3:.1f} ms, "
        f"pipelined {pip_s * 1e3:.1f} ms ({seq_s / pip_s:.2f}x) — "
        f"outputs bit-identical"
    )
    print(
        f"{stats.requests} layer requests in {stats.batches} launches "
        f"(avg batch {stats.avg_batch_size:.2f}), routes {stats.route_counts}"
    )


if __name__ == "__main__":
    main()
