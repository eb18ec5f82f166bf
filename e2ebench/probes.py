"""Per-layer probes for the traced run.

The traced run times calls into the program's public functions from here,
by wrapping them for the length of the run, and arms the program's own
``repro.obs`` tracer for the timed window to read the spans it already
emits (``serve.request`` / ``serve.kernel`` / ``graph.request`` /
``graph.layer``).  End-to-end numbers never come from a traced run.
"""

from __future__ import annotations

import threading
from contextlib import ExitStack, contextmanager
from time import perf_counter

import repro.core.api as core_api
import repro.core.compiled as core_compiled
from repro.core import JigsawPlan
from repro.sched import Scheduler

#: (probe name, owner, attribute) of every wrapped public function.
#: ``repro.core.api`` resolves its kernel and serialization helpers through
#: module globals, so wrapping them there catches the calls plans make.
TARGETS = (
    ("tile_launch", JigsawPlan, "run"),
    ("timing_model", core_api, "run_jigsaw_kernel"),
    ("functional", core_api, "compute_output"),
    ("compiled_launch", JigsawPlan, "run_compiled"),
    ("vnm_launch", JigsawPlan, "run_vnm"),
    ("compile", core_compiled, "compile_plan"),
    ("vnm_build", JigsawPlan, "vnm_plan"),
    ("store", core_api, "save_jigsaw"),
    ("store", core_api, "save_vnm"),
    ("plan_routes", Scheduler, "plan_routes"),
)


class Probes:
    """Call counts and wall seconds per probe, counted only while active.

    The harness deactivates the probes while its oracle runs, so reference
    computations through the same public functions are not counted.
    """

    def __init__(self) -> None:
        self.calls: dict[str, int] = {}
        self.seconds: dict[str, float] = {}
        self.active = True
        self._lock = threading.Lock()

    def _wrap(self, name: str, fn):
        def timed(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                with self._lock:
                    self.calls[name] = self.calls.get(name, 0) + 1
                    self.seconds[name] = self.seconds.get(name, 0.0) + dt

        return timed

    @contextmanager
    def installed(self):
        with ExitStack() as stack:
            for name, owner, attr in TARGETS:
                original = owner.__dict__[attr]
                setattr(owner, attr, self._wrap(name, original))
                stack.callback(setattr, owner, attr, original)
            yield self

    def snapshot(self) -> tuple[dict[str, int], dict[str, float]]:
        with self._lock:
            return dict(self.calls), dict(self.seconds)


def delta(after, before) -> tuple[dict[str, int], dict[str, float]]:
    calls = {k: v - before[0].get(k, 0) for k, v in after[0].items()}
    secs = {k: v - before[1].get(k, 0.0) for k, v in after[1].items()}
    return calls, secs


def mean_ms(calls: dict[str, int], secs: dict[str, float], name: str) -> float:
    n = calls.get(name, 0)
    return secs.get(name, 0.0) / n * 1e3 if n else 0.0


def span_metrics(spans, graph_requests: int) -> dict[str, float]:
    """Layer self times from the program's own spans.

    ``serve.self_ms``: a serving request's latency minus the host time of
    the launch that served it.  ``graph.self_ms``: a graph request's latency
    minus the launch host time of its layers (each layer request rides one
    launch, so the sum of layer requests' kernel spans over graph requests
    is the mean per graph request).
    """
    by_parent: dict[str, list] = {}
    for s in spans:
        if s.parent_id is not None:
            by_parent.setdefault(s.parent_id, []).append(s)

    def kernel_s(request_span) -> float:
        total = 0.0
        for batch in by_parent.get(request_span.span_id, ()):
            if batch.name == "serve.batch":
                total += sum(
                    k.duration_s for k in by_parent.get(batch.span_id, ()) if k.name == "serve.kernel"
                )
        return total

    requests = [s for s in spans if s.name == "serve.request"]
    self_s = [r.duration_s - kernel_s(r) for r in requests]
    fallbacks = sum(
        1 for r in requests for e in r.events if e.name == "route.fallback"
    )
    out = {
        "serve.self_ms": sum(self_s) / len(self_s) * 1e3 if self_s else 0.0,
        "serve.fallbacks": float(fallbacks),
        "graph.layer_ms": 0.0,
        "graph.self_ms": 0.0,
    }
    graphs = [s for s in spans if s.name == "graph.request"]
    layers = [s for s in spans if s.name == "graph.layer"]
    if graphs and graph_requests:
        out["graph.layer_ms"] = sum(s.duration_s for s in layers) / len(layers) * 1e3
        launch_s = sum(kernel_s(r) for r in requests)
        mean_latency = sum(g.duration_s for g in graphs) / len(graphs)
        out["graph.self_ms"] = (mean_latency - launch_s / len(graphs)) * 1e3
    return out
