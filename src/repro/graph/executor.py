"""Pipelined DAG execution over the serving tier.

:class:`GraphExecutor` drives a :class:`~repro.graph.graph.ModelGraph`
through an existing :class:`~repro.serve.BatchExecutor`.  Dispatch is
*pipelined*: every layer is submitted as its own SpMM request the
moment its input panels are ready, and completion callbacks (not
barriers) trigger the successors — so layer k+1 of request i runs while
layer k of request i+1 is still in flight, and requests sharing a layer
matrix batch together through the executor's per-(matrix, version,
dtype) group formation.  The output panel of layer k is handed to layer
k+1 zero-copy (single-input nodes pass the array through untouched).

Tracing: each graph request opens one ``graph.request`` root span whose
``graph.layer`` children partition the request's wall interval — layer
children *sum to* the end-to-end latency by construction.  Metrics:
``repro_graph_requests_total`` (by outcome), ``repro_graph_layers_total``
and ``repro_graph_seconds_total`` in :mod:`repro.obs`.

Determinism: pipelined execution computes each layer from exactly the
panel the sequential path would feed it, so with ``max_batch=1`` it is
unconditionally bit-identical to :meth:`GraphExecutor.run_sequential`.
With batching enabled the per-request columns of a batched launch are
still computed independently, so bit-identity additionally requires the
served kernel's tile format not to depend on the concatenated panel
width: fixed-tile kernel versions (``v0``–``v3``) and the compiled
route guarantee that for any width mix, while ``v4``'s per-launch
BLOCK_TILE autotune keeps it only when the autotuned tile is
width-stable for the workload (``tests/graph/test_executor.py``
asserts it for a 4-layer encoder; ``examples/gcn_graph.py`` shows the
``v3`` pinning).
"""

from __future__ import annotations

import threading
from concurrent.futures import Future
from dataclasses import dataclass

import numpy as np

from repro.obs import get_metrics
from repro.serve import BatchExecutor, SpmmRequest

from .graph import INPUT, LayerNode, ModelGraph


@dataclass
class GraphResult:
    """One completed graph request."""

    request_id: int
    #: The single sink's panel (None when the graph has several sinks).
    output: np.ndarray | None
    #: Every node's output panel by name.
    outputs: dict[str, np.ndarray]
    #: Serving route each matrix node took, by node name.
    routes: dict[str, str]
    start_s: float
    end_s: float

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s


class _RequestState:
    """Mutable per-request bookkeeping shared across layer callbacks."""

    def __init__(
        self,
        request_id: int,
        n_nodes: int,
        deadline_s: float | None,
        tenant: str,
        start_s: float,
    ) -> None:
        self.request_id = request_id
        self.n_nodes = n_nodes
        self.deadline_s = deadline_s
        self.tenant = tenant
        self.start_s = start_s
        self.future: Future = Future()
        self.lock = threading.Lock()
        self.panels: dict[str, np.ndarray] = {}
        self.routes: dict[str, str] = {}
        #: Node completion wall time, in submission clock domain.
        self.completed: dict[str, float] = {}
        self.remaining: dict[str, int] = {}
        self.failed = False
        self.span = None


class GraphExecutor:
    """Execute a :class:`ModelGraph` through a :class:`BatchExecutor`.

    The graph's matrices must already be registered with the executor's
    registry (:meth:`ModelGraph.register`).  ``version`` is the kernel
    version every layer SpMM requests (the serving route chain may still
    serve it through the compiled or fallback routes, exactly as direct
    requests would).
    """

    def __init__(
        self,
        graph: ModelGraph,
        executor: BatchExecutor,
        version: str = "v4",
    ) -> None:
        self.graph = graph
        self.executor = executor
        self.version = version
        self._order = graph.topo_order()
        self._consumers = graph.consumers()
        sinks = graph.sinks()
        self._sink = sinks[0] if len(sinks) == 1 else None
        self._ids_lock = threading.Lock()
        self._next_id = 0
        # Fail fast on unregistered matrices rather than at first submit.
        for name in graph.matrices():
            executor.registry.matrix(name)

    # -- submission ------------------------------------------------------------

    def submit(
        self,
        x: np.ndarray,
        deadline_s: float | None = None,
        tenant: str = "default",
    ) -> Future:
        """Run one input panel through the DAG; Future of :class:`GraphResult`.

        Every layer becomes its own serving request as soon as its
        inputs are ready; nothing in this call blocks on kernel work.
        """
        with self._ids_lock:
            request_id = self._next_id
            self._next_id += 1
        clock = self.executor._clock
        t0 = clock()
        state = _RequestState(
            request_id=request_id,
            n_nodes=len(self._order),
            deadline_s=deadline_s,
            tenant=tenant,
            start_s=t0,
        )
        tracer = self.executor.tracer
        if tracer.enabled:
            state.span = tracer.start_span(
                "graph.request",
                start_s=t0,
                attrs={
                    "graph_request_id": request_id,
                    "layers": len(self._order),
                    "tenant": tenant,
                },
            )
        panel = np.asarray(x)
        if self.graph.input_cast is not None:
            panel = panel.astype(self.graph.input_cast)
        state.panels[INPUT] = panel
        ready: list[LayerNode] = []
        for node in self._order:
            missing = sum(1 for inp in node.inputs if inp != INPUT)
            state.remaining[node.name] = missing
            if missing == 0:
                ready.append(node)
        for node in ready:
            self._dispatch(state, node)
        return state.future

    def run(
        self, panels: list[np.ndarray], timeout: float | None = None
    ) -> list[GraphResult]:
        """Pipelined burst: submit every request, then wait (in order).

        Layer k+1 of request i overlaps layer k of request i+1 — the
        point of the graph tier.  Results come back in submission order.
        A layer group that does not fill dispatches once no launch is
        running (:meth:`BatchExecutor.flushing_when_idle`), never after
        waiting out the executor's ``batch_window_s``.
        """
        futures = [self.submit(p) for p in panels]
        with self.executor.flushing_when_idle():
            self.executor.flush()
            return [f.result(timeout=timeout) for f in futures]

    def run_sequential(
        self, panels: list[np.ndarray], timeout: float | None = None
    ) -> list[GraphResult]:
        """Reference path: one request fully completes before the next
        starts.  Bit-identical outputs to :meth:`run` (same panels, same
        routes); only the wall-clock overlap differs.  Each layer
        dispatches as soon as the previous one finishes, whatever
        ``max_batch`` and ``batch_window_s`` are."""
        with self.executor.flushing_when_idle():
            return [self.submit(p).result(timeout=timeout) for p in panels]

    # -- internal machinery ----------------------------------------------------

    def _dispatch(self, state: _RequestState, node: LayerNode) -> None:
        """Submit one ready node (all input panels present)."""
        with state.lock:
            if state.failed:
                return
            panel = node.combined([state.panels[inp] for inp in node.inputs])
        if node.matrix is None:
            self._finish_node(state, node, panel, route="inline")
            return
        try:
            fut = self.executor.submit(
                SpmmRequest(
                    matrix=node.matrix,
                    b=panel,
                    version=self.version,
                    deadline_s=state.deadline_s,
                    tenant=state.tenant,
                )
            )
        except Exception as exc:
            self._fail(state, exc)
            return
        fut.add_done_callback(
            lambda f, s=state, n=node: self._on_layer_done(s, n, f)
        )

    def _on_layer_done(self, state: _RequestState, node: LayerNode, fut: Future) -> None:
        if fut.cancelled():
            self._fail(state, RuntimeError(f"layer {node.name!r} cancelled"))
            return
        exc = fut.exception()
        if exc is not None:
            self._fail(state, exc)
            return
        res = fut.result()
        self._finish_node(state, node, res.c, route=res.stats.route)

    def _finish_node(
        self, state: _RequestState, node: LayerNode, panel: np.ndarray, route: str
    ) -> None:
        try:
            out = node.apply_post(panel)
        except Exception as exc:
            self._fail(state, exc)
            return
        clock = self.executor._clock
        newly_ready: list[LayerNode] = []
        done = False
        with state.lock:
            if state.failed:
                return
            state.panels[node.name] = out
            state.routes[node.name] = route
            state.completed[node.name] = clock()
            for consumer in self._consumers[node.name]:
                state.remaining[consumer] -= 1
                if state.remaining[consumer] == 0:
                    newly_ready.append(self.graph.nodes[consumer])
            done = len(state.completed) == state.n_nodes
        for nxt in newly_ready:
            self._dispatch(state, nxt)
        if done:
            self._complete(state)

    def _complete(self, state: _RequestState) -> None:
        end_s = max(state.completed.values())
        tracer = self.executor.tracer
        if state.span is not None:
            # Layer children partition [start, end] at successive node
            # completion times, so their durations sum to the request's
            # end-to-end latency exactly.
            prev = state.start_s
            for name, t in sorted(state.completed.items(), key=lambda kv: kv[1]):
                tracer.add_span(
                    "graph.layer",
                    start_s=prev,
                    end_s=t,
                    parent=state.span,
                    attrs={
                        "node": name,
                        "matrix": self.graph.nodes[name].matrix or "",
                        "route": state.routes.get(name, ""),
                    },
                )
                prev = t
            state.span.set_attr("outcome", "ok")
            tracer.end_span(state.span, end_s=end_s)
        metrics = get_metrics()
        metrics.metric("repro_graph_requests_total").inc(outcome="ok")
        metrics.metric("repro_graph_layers_total").inc(state.n_nodes)
        metrics.metric("repro_graph_seconds_total").inc(end_s - state.start_s)
        result = GraphResult(
            request_id=state.request_id,
            output=state.panels.get(self._sink) if self._sink else None,
            outputs={n: state.panels[n] for n in state.completed},
            routes=dict(state.routes),
            start_s=state.start_s,
            end_s=end_s,
        )
        state.future.set_result(result)

    def _fail(self, state: _RequestState, exc: BaseException) -> None:
        with state.lock:
            if state.failed:
                return
            state.failed = True
        tracer = self.executor.tracer
        if state.span is not None:
            state.span.set_attr("outcome", "error")
            state.span.set_attr("error_type", type(exc).__name__)
            tracer.end_span(state.span, end_s=self.executor._clock())
        get_metrics().metric("repro_graph_requests_total").inc(outcome="error")
        state.future.set_exception(exc)


__all__ = ["GraphExecutor", "GraphResult"]
