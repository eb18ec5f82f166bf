"""GraphExecutor: pipelined DAG execution is bit-identical to the
sequential reference and to the direct plan API, across batching,
diamond topologies, mixed-width batching, and mid-stream dynamic
updates; failures propagate; traces partition the request interval."""

import numpy as np
import pytest

from repro.core import JigsawPlan, SparseModel
from repro.graph import GraphExecutor, ModelGraph
from repro.obs import Tracer, validate_span_records
from repro.serve import BatchExecutor, PlanRegistry
from tests.conftest import FLUSH_ONLY_WINDOW_S, random_vector_sparse


def _panels(rng, k=64, n=16, count=6):
    return [rng.standard_normal((k, n)).astype(np.float16) for _ in range(count)]


def _chain_graph(rng, layers=3):
    """A plain k->k MLP chain with relu between hidden layers."""
    g = ModelGraph(input_cast="float16")
    prev = "input"
    weights = []
    for i in range(layers):
        w = random_vector_sparse(64, 64, v=4, sparsity=0.9, rng=rng)
        weights.append(w)
        g.add_layer(
            f"fc{i}",
            weight=w,
            inputs=prev,
            activation="relu" if i < layers - 1 else "none",
            cast="float16",
        )
        prev = f"fc{i}"
    return g, weights


def _executor_for(graph, tmp_path, **kw):
    registry = PlanRegistry(cache_dir=tmp_path)
    graph.register(registry)
    registry.warm()
    return BatchExecutor(registry, **kw)


class TestNoLinger:
    """Layer dispatches made under ``run`` / ``run_sequential`` reach the
    executor once nothing runs, never after waiting out its window."""

    @pytest.mark.parametrize("pipelined", [False, True])
    def test_partial_layer_groups_under_an_hour_window(
        self, rng, tmp_path, metrics, pipelined
    ):
        graph, _ = _chain_graph(rng)
        panels = _panels(rng, count=3)
        with _executor_for(graph, tmp_path, max_batch=1) as ex:
            expect = GraphExecutor(graph, ex, version="v3").run_sequential(
                panels, timeout=60
            )
        with _executor_for(
            graph, tmp_path, max_batch=8, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            gx = GraphExecutor(graph, ex, version="v3")
            run = gx.run if pipelined else gx.run_sequential
            got = run(panels, timeout=10)
            launches = ex.stats().batches
        assert launches == (3 if pipelined else 9)
        for e, g in zip(expect, got):
            np.testing.assert_array_equal(e.output, g.output)


class TestBitIdentity:
    def test_from_model_matches_model_forward(self, rng, tmp_path, metrics):
        model = SparseModel.from_pruned_mlp(
            (64, 64, 64), v=4, sparsity=0.9, rng=rng
        )
        graph = ModelGraph.from_model(model)
        x = rng.standard_normal((64, 16)).astype(np.float16)
        expect, _ = model.forward(x)
        with _executor_for(graph, tmp_path, max_batch=1) as ex:
            result = GraphExecutor(graph, ex).run([x])[0]
        assert result.output is not None
        np.testing.assert_array_equal(result.output, expect)

    def test_unbatched_pipelined_equals_sequential(self, rng, tmp_path, metrics):
        # max_batch=1: unconditional bit-identity, any kernel version.
        graph, _ = _chain_graph(rng)
        panels = _panels(rng)
        with _executor_for(graph, tmp_path, max_batch=1) as ex:
            gx = GraphExecutor(graph, ex)
            seq = gx.run_sequential(panels)
            pip = gx.run(panels)
        for s, p in zip(seq, pip):
            assert s.outputs.keys() == p.outputs.keys()
            for name in s.outputs:
                np.testing.assert_array_equal(s.outputs[name], p.outputs[name])

    def test_batched_pipelined_equals_sequential_fixed_tile(
        self, rng, tmp_path, metrics
    ):
        # Batching changes group formation, never results — for a
        # fixed-tile kernel version (the documented contract).
        graph, _ = _chain_graph(rng)
        panels = _panels(rng, count=8)
        with _executor_for(graph, tmp_path, max_batch=8) as ex:
            gx = GraphExecutor(graph, ex, version="v3")
            seq = gx.run_sequential(panels)
            pip = gx.run(panels)
        for s, p in zip(seq, pip):
            for name in s.outputs:
                np.testing.assert_array_equal(s.outputs[name], p.outputs[name])

    def test_diamond_dag_matches_direct_plans(self, rng, tmp_path, metrics):
        # input -> (left, right) -> sum join -> head; the join is a
        # matrix-less node.
        wl = random_vector_sparse(64, 64, v=4, sparsity=0.9, rng=rng)
        wr = random_vector_sparse(64, 64, v=4, sparsity=0.9, rng=rng)
        wh = random_vector_sparse(32, 64, v=4, sparsity=0.9, rng=rng)
        graph = ModelGraph(input_cast="float16")
        graph.add_layer("left", weight=wl, cast="float16")
        graph.add_layer("right", weight=wr, cast="float16")
        graph.add_layer("join", inputs=("left", "right"), cast=None)
        graph.add_layer("head", weight=wh, inputs="join", cast="float16")
        panels = _panels(rng, count=4)
        with _executor_for(graph, tmp_path, max_batch=4) as ex:
            gx = GraphExecutor(graph, ex, version="v3")
            seq = gx.run_sequential(panels)
            pip = gx.run(panels)
            assert gx._sink == "head"
        # Direct plan-API reference for the same DAG.
        pl, pr, ph = (JigsawPlan(w) for w in (wl, wr, wh))
        for x, res in zip(panels, pip):
            left = pl.run(x, version="v3").c.astype(np.float16)
            right = pr.run(x, version="v3").c.astype(np.float16)
            head = ph.run(left + right, version="v3").c.astype(np.float16)
            np.testing.assert_array_equal(res.outputs["join"], left + right)
            np.testing.assert_array_equal(res.output, head)
        for s, p in zip(seq, pip):
            np.testing.assert_array_equal(s.output, p.output)

    def test_mixed_width_shared_matrix_batching(self, rng, tmp_path, metrics):
        # Two layers share one matrix but produce different panel widths
        # (a GCN-like shape), so their SpMMs batch into mixed-width
        # groups; a fixed-tile version keeps that bit-identical.
        w = random_vector_sparse(64, 64, v=4, sparsity=0.9, rng=rng)
        graph = ModelGraph(input_cast="float16")
        graph.add_layer(
            "l0",
            weight=w,
            matrix="shared",
            cast="float16",
            transform=lambda p: np.ascontiguousarray(p[:, :24]),
        )
        graph.add_layer(
            "l1", matrix="shared", inputs="l0", cast="float16"
        )
        panels = _panels(rng, n=32, count=8)
        with _executor_for(graph, tmp_path, max_batch=8) as ex:
            gx = GraphExecutor(graph, ex, version="v3")
            seq = gx.run_sequential(panels)
            pip = gx.run(panels)
        for s, p in zip(seq, pip):
            np.testing.assert_array_equal(s.output, p.output)


class TestDynamicUpdates:
    def test_apply_update_mid_stream(self, rng, tmp_path, metrics):
        graph, weights = _chain_graph(rng, layers=2)
        panels = _panels(rng, count=4)
        registry = PlanRegistry(cache_dir=tmp_path)
        graph.register(registry)
        registry.warm()
        upd_rows = np.array([3, 7, 40])
        upd_cols = np.array([10, 2, 33])
        upd_vals = (rng.standard_normal(3) * 0.1).astype(np.float16)
        with BatchExecutor(registry, max_batch=4) as ex:
            gx = GraphExecutor(graph, ex, version="v3")
            before = gx.run(panels)
            registry.apply_update("fc0", upd_rows, upd_cols, upd_vals)
            after = gx.run(panels)
        assert registry.version("fc0") == 1

        # Reference chains from *fresh* plans of the old and new dense
        # content — the served repair must be bit-identical to a rebuild.
        w0_new = weights[0].copy()
        w0_new[upd_rows, upd_cols] = upd_vals
        assert not np.array_equal(w0_new, weights[0])

        def chain(w0, x):
            h = JigsawPlan(w0).run(x, version="v3").c.astype(np.float16)
            h = np.maximum(h, np.float16(0))
            return JigsawPlan(weights[1]).run(h, version="v3").c.astype(np.float16)

        for x, res in zip(panels, before):
            np.testing.assert_array_equal(res.output, chain(weights[0], x))
        for x, res in zip(panels, after):
            np.testing.assert_array_equal(res.output, chain(w0_new, x))
        # The update actually changed at least one request's output.
        assert any(
            not np.array_equal(b.output, a.output)
            for b, a in zip(before, after)
        )


class TestFailurePaths:
    def test_unregistered_matrix_fails_at_construction(self, rng, tmp_path):
        graph = ModelGraph()
        graph.add_layer("a", matrix="ghost")
        with BatchExecutor(PlanRegistry(cache_dir=tmp_path)) as ex:
            with pytest.raises(KeyError):
                GraphExecutor(graph, ex)

    def test_failing_transform_propagates_and_counts(self, rng, tmp_path, metrics):
        w = random_vector_sparse(64, 64, v=4, sparsity=0.9, rng=rng)
        graph = ModelGraph()

        def boom(panel):
            raise RuntimeError("transform exploded")

        graph.add_layer("a", weight=w, transform=boom)
        x = rng.standard_normal((64, 8)).astype(np.float16)
        with _executor_for(graph, tmp_path) as ex:
            gx = GraphExecutor(graph, ex)
            fut = gx.submit(x)
            ex.flush()
            with pytest.raises(RuntimeError, match="exploded"):
                fut.result(timeout=60)
            # The executor survives: a healthy graph still serves.
            healthy = ModelGraph()
            healthy.add_layer("a", matrix="a", cast="float16")
            result = GraphExecutor(healthy, ex).run([x])[0]
            assert result.output is not None
        counter = metrics.get("repro_graph_requests_total")
        assert counter.value(outcome="error") == 1
        assert counter.value(outcome="ok") == 1


class TestTracing:
    def test_layer_spans_partition_request_interval(self, rng, tmp_path, metrics):
        graph, _ = _chain_graph(rng, layers=3)
        registry = PlanRegistry(cache_dir=tmp_path)
        graph.register(registry)
        registry.warm()
        tracer = Tracer()
        panels = _panels(rng, count=2)
        with BatchExecutor(registry, tracer=tracer) as ex:
            results = GraphExecutor(graph, ex).run(panels)
        spans = tracer.buffer.snapshot()
        roots = {
            s.attrs["graph_request_id"]: s
            for s in spans
            if s.name == "graph.request"
        }
        assert len(roots) == len(results) == 2
        layers = [s for s in spans if s.name == "graph.layer"]
        for res in results:
            root = roots[res.request_id]
            assert root.attrs["outcome"] == "ok"
            kids = sorted(
                (s for s in layers if s.parent_id == root.span_id),
                key=lambda s: s.start_s,
            )
            assert [k.attrs["node"] for k in kids] == ["fc0", "fc1", "fc2"]
            # Children partition [start, end]: contiguous, and their
            # durations sum to the end-to-end latency.
            assert kids[0].start_s == root.start_s
            assert kids[-1].end_s == root.end_s
            for a, b in zip(kids, kids[1:]):
                assert a.end_s == b.start_s
            total = sum(k.duration_s for k in kids)
            assert total == pytest.approx(res.duration_s, rel=1e-9)
            for k in kids:
                assert k.attrs["route"] != ""
        assert validate_span_records([s.to_dict() for s in spans]) == []

    def test_graph_metrics_accumulate(self, rng, tmp_path, metrics):
        graph, _ = _chain_graph(rng, layers=2)
        panels = _panels(rng, count=3)
        with _executor_for(graph, tmp_path) as ex:
            GraphExecutor(graph, ex).run(panels)
        assert (
            metrics.get("repro_graph_requests_total").value(outcome="ok") == 3
        )
        assert metrics.get("repro_graph_layers_total").value() == 6
        assert metrics.get("repro_graph_seconds_total").value() > 0


class TestPipelinedBatching:
    def test_pipelining_issues_fewer_launches_than_sequential(
        self, rng, tmp_path, metrics
    ):
        """The pipelined graph's throughput comes from cross-request
        batching: concurrent requests' same-layer SpMMs share one launch.
        On a 4-layer encoder serving 16 requests with an update of the
        first layer every 8, pipelining issues >= 1.5x fewer launches than
        the sequential reference, with bit-identical outputs.  Groups
        dispatch only when full or flushed, never on a wall-clock window,
        so the counts are exact."""
        size, layers, n_requests, update_every = 128, 4, 16, 8
        weights = [
            random_vector_sparse(size, size, v=4, sparsity=0.9, rng=rng)
            for _ in range(layers)
        ]
        graph = ModelGraph(input_cast="float16")
        prev = "input"
        for i, w in enumerate(weights):
            graph.add_layer(
                f"enc{i}",
                weight=w,
                inputs=(prev,),
                activation="relu" if i < layers - 1 else "none",
                cast="float16",
            )
            prev = f"enc{i}"
        panels = _panels(rng, k=size, n=64, count=n_requests)
        # Rewrite already-nonzero entries of enc0's leading MMA tile: one
        # dirty slab for any BLOCK_TILE.
        upd_r, upd_c = (idx[:8] for idx in np.nonzero(weights[0][:16]))
        upd_values = rng.standard_normal(len(upd_r)).astype(np.float16)

        def serve(pipelined):
            registry = PlanRegistry(cache_dir=tmp_path)
            graph.register(registry)
            registry.warm()
            # One request in flight forms only singleton groups; the
            # sequential side dispatches each once nothing runs.
            with BatchExecutor(
                registry,
                max_batch=8,
                max_workers=4,
                batch_window_s=FLUSH_ONLY_WINDOW_S,
            ) as ex:
                gx = GraphExecutor(graph, ex)
                results = []
                for start in range(0, n_requests, update_every):
                    if start:
                        registry.apply_update("enc0", upd_r, upd_c, upd_values)
                    window = panels[start : start + update_every]
                    run = gx.run if pipelined else gx.run_sequential
                    results += run(window, timeout=60)
                return results, ex.stats().batches

        seq, seq_launches = serve(pipelined=False)
        pip, pip_launches = serve(pipelined=True)
        assert seq_launches == layers * n_requests
        assert seq_launches >= 1.5 * pip_launches, (seq_launches, pip_launches)
        # Every layer of every 8-request window fills one full group.
        assert pip_launches == layers * n_requests // update_every
        for a, b in zip(seq, pip):
            np.testing.assert_array_equal(a.output, b.output)
