"""End-to-end pruned transformer layer (the paper's motivating workload).

Not a paper figure — an application-level bench using the model API.
A BERT-base-like encoder layer (hidden 768, FFN 3072) is vector-pruned
at 90% and run as four chained SpMMs.  Asserts the motivation holds
end-to-end: correctness against fp32, aggregate speedup over dense
cuBLAS, and reorder success on every layer.
"""

import numpy as np

from repro.analysis.artifacts import HIDDEN, encoder_weights
from repro.core import SparseLinear

from conftest import GRID, run_artifact


def _run_graph():
    """The same encoder, chained as a ModelGraph through the serving tier.

    The attention block between ``qkv_proj`` and ``attn_out`` is stood in
    by a matrix-less slice node taking the V third of the QKV panel —
    graph structure (including a compute-only node) without leaving the
    SpMM dataflow.  Returns the graph outputs plus the direct-API
    reference activations computed layer by layer.
    """
    import tempfile

    from repro.graph import GraphExecutor, ModelGraph
    from repro.serve import BatchExecutor, PlanRegistry

    rng = np.random.default_rng(15)
    weights = encoder_weights(rng)

    graph = ModelGraph(input_cast="float16")
    graph.add_layer("qkv_proj", weight=weights["qkv_proj"], cast="float16")
    graph.add_layer(
        "take_v", inputs="qkv_proj", transform=lambda p: p[2 * HIDDEN :]
    )
    graph.add_layer(
        "attn_out", weight=weights["attn_out"], inputs="take_v", cast="float16"
    )
    graph.add_layer(
        "ffn_up",
        weight=weights["ffn_up"],
        inputs="attn_out",
        activation="relu",
        cast="float16",
    )
    graph.add_layer(
        "ffn_down", weight=weights["ffn_down"], inputs="ffn_up", cast="float16"
    )

    x = rng.standard_normal((HIDDEN, GRID.encoder_tokens))

    # Direct-API reference: the exact chain the graph encodes, computed
    # with per-layer SparseLinear forwards (the pre-graph code path).
    ref: dict[str, np.ndarray] = {}
    act = x.astype(np.float16)
    ref["qkv_proj"] = SparseLinear(weights["qkv_proj"], name="qkv_proj").forward(act).output
    ref["take_v"] = ref["qkv_proj"][2 * HIDDEN :]
    ref["attn_out"] = SparseLinear(weights["attn_out"], name="attn_out").forward(ref["take_v"]).output
    ref["ffn_up"] = np.maximum(
        SparseLinear(weights["ffn_up"], name="ffn_up").forward(ref["attn_out"]).output,
        np.float16(0),
    )
    ref["ffn_down"] = SparseLinear(weights["ffn_down"], name="ffn_down").forward(ref["ffn_up"]).output

    registry = PlanRegistry(cache_dir=tempfile.mkdtemp(prefix="jigsaw-bench-"))
    graph.register(registry)
    registry.warm()
    with BatchExecutor(registry, max_batch=8) as executor:
        result = GraphExecutor(graph, executor).run([x])[0]
    return result, ref


def test_transformer_layer_graph(benchmark):
    """Graph-tier execution is bit-identical to the direct API chain."""
    result, ref = benchmark.pedantic(_run_graph, rounds=1, iterations=1)
    for name, expect in ref.items():
        assert np.array_equal(result.outputs[name], expect), (
            f"graph node {name!r} diverged from the direct API"
        )
    assert result.output is not None
    assert np.array_equal(result.output, ref["ffn_down"])
    # Every matrix layer served on a reorder-backed route (the reorder
    # succeeded; this bench's premise).
    for name, route in result.routes.items():
        if name != "take_v":
            assert route in ("jigsaw", "compiled"), (name, route)


def test_transformer_layer(benchmark):
    rows = run_artifact("encoder_layer", benchmark)

    # Every layer's output matches the fp32 reference.
    assert all(ok for *_, ok in rows)
    # The motivation holds end to end: aggregate win over dense cuBLAS.
    assert sum(r[2] for r in rows) < sum(r[3] for r in rows)
    # The big FFN GEMMs carry the win.
    ffn = {name: c / j for name, _, j, c, _ in rows}
    assert ffn["ffn_up"] > 1.0
