"""One benchmark run in a fresh process: set up, serve, check, report.

``run.py`` starts this file as a child process with BLAS/OpenMP threads
pinned to 1 in its environment, so numpy never loads with a thread pool
that would compete with the executor's threads.  The child prints the
human-readable report, an exact-count line, and as its last line one JSON
document that ``run.py`` turns into the benchmark's result line.

Clocks: every ``*_ms`` / ``*_s`` / ``*_rps`` metric is host wall time
(``time.perf_counter``); ``sim_us_per_col`` is the simulated A100 clock of
``repro.gpu``.  The two are never added together.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from repro.core import clear_cover_cache, cover_cache_stats
from repro.obs import SpanBuffer, Tracer, set_tracer
from repro.serve import ROUTES

from probes import Probes, delta, mean_ms, span_metrics
from workloads import WORKLOADS, PanelPool, Workload, digest

#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPS = 3
#: Throughput and latency percentiles are medians over this many equal
#: chunks of the timed work, so a slow spell in part of a run moves them
#: only if it covers half the chunks.
CHUNKS = 10
#: A reported percentile needs at least this many samples beyond it, in
#: every chunk.
MIN_TAIL = 10
#: Requests a chunk needs for its p90 to have ``MIN_TAIL`` samples beyond it.
MIN_CHUNK_REQUESTS = MIN_TAIL * 10

#: Plan caches and other scratch files live here, inside the checkout.
TMP_ROOT = Path(__file__).resolve().parent.parent / ".bench_tmp"


@dataclass
class PassResult:
    """Everything one set-up + timed window + checks produced."""

    setup_s: list[float] = field(default_factory=list)
    segments_s: list[float] = field(default_factory=list)
    burst_requests: list[int] = field(default_factory=list)
    #: Request latencies of each timed burst.
    latencies_s: list[list[float]] = field(default_factory=list)
    updates_s: list[float] = field(default_factory=list)
    repairs: list[dict] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    final_ok: bool = True
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)

    def chunks(self) -> list[tuple[int, float, list[float]]]:
        """The timed bursts in ``CHUNKS`` equal runs of consecutive bursts:
        the requests, seconds and request latencies of each."""
        per = len(self.segments_s) // CHUNKS
        parts = [slice(c * per, (c + 1) * per) for c in range(CHUNKS)]
        return [
            (sum(self.burst_requests[p]), sum(self.segments_s[p]),
             [x for lat in self.latencies_s[p] for x in lat])
            for p in parts
        ]

    @property
    def throughput_rps(self) -> float:
        return statistics.median(n / t for n, t, _ in self.chunks())

    def latency_ms(self, q: float) -> float:
        """Median over the chunks of each chunk's ``q``-th percentile."""
        return statistics.median(percentile_ms(lat, q) for _, _, lat in self.chunks())

    @property
    def latency_samples(self) -> int:
        return sum(len(lat) for lat in self.latencies_s)


def percentile_ms(samples: list[float], q: float) -> float:
    beyond = len(samples) * (100 - q) / 100
    if beyond < MIN_TAIL:
        raise ValueError(
            f"p{q:g} needs {MIN_TAIL} samples beyond it; only {len(samples)} samples"
        )
    return float(np.percentile(samples, q)) * 1e3


@contextmanager
def untimed(probes: Probes | None):
    """Pause the probes while the harness does its own work (the oracle)."""
    if probes is None:
        yield
        return
    probes.active = False
    try:
        yield
    finally:
        probes.active = True


def run_pass(
    wl: Workload,
    weights: dict[str, np.ndarray],
    traffic,
    seed: int,
    setup_reps: int,
    probes: Probes | None = None,
    tamper=None,
) -> PassResult:
    """Set up ``setup_reps`` times from an empty plan cache, serve the timed
    traffic on the last set-up, and check every output outside the timed
    segments.  ``tamper(burst, index, outcome)`` lets the self-tests corrupt
    an output to prove the oracle fails the run."""
    out = PassResult()
    pool = PanelPool(seed)
    warm = wl.warmup(traffic)
    oracle = wl.oracle(weights)
    TMP_ROOT.mkdir(exist_ok=True)
    cache = None
    session = None
    try:
        for _ in range(setup_reps):
            if session is not None:
                session.close()
                shutil.rmtree(cache, ignore_errors=True)
            cache = tempfile.mkdtemp(prefix="plans-", dir=TMP_ROOT)
            clear_cover_cache()
            gc.collect()
            t0 = perf_counter()
            session = wl.open(weights, cache)
            for burst in warm:
                zeros = [np.zeros((wl.rows(weights, r), r.width), np.float16) for r in burst]
                outcomes, _, _ = session.run_burst(burst, zeros)
                for o in outcomes:
                    if o.error is not None:
                        raise RuntimeError("warm-up request failed") from o.error
            out.setup_s.append(perf_counter() - t0)
        cover = cover_cache_stats()
        ex = session.executor
        names = session.registry.names()
        builds = [r for n in names for r in session.registry.get(n).stats.runs]
        if probes is not None:
            setup_probe = probes.snapshot()
        r0, b0 = len(ex.request_stats()), len(ex.batch_stats())
        st0 = ex.stats()
        spans = None
        if probes is not None:
            buffer = SpanBuffer(max_spans=None)
            set_tracer(Tracer(buffer=buffer))
        gc.collect()

        def check(i, burst, panels, outcomes):
            for j, (req, panel, o) in enumerate(zip(burst, panels, outcomes)):
                if tamper is not None:
                    o = tamper(i, j, o)
                out.attempted += 1
                if o.error is not None or not oracle.check(req, panel, o):
                    out.failed += 1

        probe_at = wl.probe_points(len(traffic))
        try:
            for i, burst in enumerate(traffic):
                panels = wl.panels(weights, pool, burst)
                upd = wl.update_before(weights, seed, i)
                t0 = perf_counter()
                upd_s = session.apply_update(upd) if upd is not None else None
                outcomes, lat, t_end = session.run_burst(burst, panels)
                out.segments_s.append(t_end - t0)
                out.burst_requests.append(len(burst))
                out.latencies_s.append(lat)
                with untimed(probes):
                    if upd is not None:
                        out.updates_s.append(upd_s)
                        out.repairs.append(session.repair_record(upd.matrix))
                        oracle.update(upd)
                    check(i, burst, panels, outcomes)
                if i in probe_at:
                    upd = wl.probe_update(weights, seed, len(out.updates_s))
                    out.updates_s.append(session.apply_update(upd))
                    with untimed(probes):
                        out.repairs.append(session.repair_record(upd.matrix))
                        oracle.update(upd)
        finally:
            if probes is not None:
                set_tracer(None)
                spans = buffer.snapshot()
        window_probe = probes.snapshot() if probes is not None else None
        reqs = ex.request_stats()[r0:]
        batches = ex.batch_stats()[b0:]
        st1 = ex.stats()

        with untimed(probes):
            if probe_at:
                burst = wl.probe_burst()
                panels = wl.panels(weights, pool, burst)
                outcomes, _, _ = session.run_burst(burst, panels)
                check(len(traffic), burst, panels, outcomes)
            out.final_ok = oracle.final_check(session)
    finally:
        if session is not None:
            session.close()
        if cache is not None:
            shutil.rmtree(cache, ignore_errors=True)
        try:
            TMP_ROOT.rmdir()
        except OSError:
            pass

    cols = sum(r.width for b in traffic for r in b) * wl.spmm_per_request
    sim_us = math.fsum(b.kernel_us for b in batches)
    sizes: dict[str, int] = {}
    for b in batches:
        sizes[str(b.size)] = sizes.get(str(b.size), 0) + 1
    routes = {r: 0 for r in ROUTES}
    for r in reqs:
        routes[r.route] += 1
    out.counts = {
        "requests": sum(out.burst_requests),
        "spmm_requests": len(reqs),
        "launches": len(batches),
        "batch_sizes": dict(sorted(sizes.items(), key=lambda kv: int(kv[0]))),
        "routes": {r: n for r, n in routes.items() if n},
        "cols": cols,
        "sim_us": sim_us,
        "updates": len(out.updates_s),
        "repaired_slabs": sum(r["repaired_slabs"] for r in out.repairs),
        "cover_hits": cover.hits,
        "cover_misses": cover.misses,
        "weights": digest(weights[n] for n in sorted(weights)),
        "traffic": digest(
            [np.array([f"{r.matrix}:{r.width}:{r.panel}" for b in traffic for r in b])]
            + wl.panels(weights, pool, traffic[0])
        ),
    }
    if probes is None:
        return out

    n_req = len(reqs)
    w_calls, w_secs = delta(window_probe, setup_probe)
    _, s_secs = setup_probe
    n_upd = max(len(out.repairs), 1)
    tile_launches = w_calls.get("tile_launch", 0)
    lookups = cover.hits + cover.misses
    layers = {
        "core.reorder_s": sum(r.reorder_seconds for r in builds),
        "core.compress_s": sum(r.compress_seconds for r in builds),
        "core.compile_s": s_secs.get("compile", 0.0),
        "core.vnm_build_s": s_secs.get("vnm_build", 0.0),
        "core.store_s": s_secs.get("store", 0.0),
        "core.cover_hit_rate": cover.hits / lookups if lookups else 0.0,
        "core.reorder_evictions": float(sum(r.evictions for r in builds)),
        "core.update_store_ms": w_secs.get("store", 0.0) / n_upd * 1e3,
        "core.repair_ms": sum(r["repair_s"] for r in out.repairs) / n_upd * 1e3,
        "core.repaired_slabs": sum(r["repaired_slabs"] for r in out.repairs) / n_upd,
        "core.total_slabs": sum(r["total_slabs"] for r in out.repairs) / n_upd,
        "kernel.tile_launch_ms": mean_ms(w_calls, w_secs, "tile_launch"),
        "kernel.timing_model_ms": (
            w_secs.get("timing_model", 0.0) / tile_launches * 1e3 if tile_launches else 0.0
        ),
        "kernel.functional_ms": (
            w_secs.get("functional", 0.0) / tile_launches * 1e3 if tile_launches else 0.0
        ),
        "kernel.compiled_launch_ms": mean_ms(w_calls, w_secs, "compiled_launch"),
        "kernel.vnm_launch_ms": mean_ms(w_calls, w_secs, "vnm_launch"),
        "kernel.launches": float(len(batches)),
        "kernel.cols_per_launch": cols / len(batches),
        "serve.queue_wait_ms": sum(r.queue_wait_s for r in reqs) / n_req * 1e3,
        "serve.batch_size_mean": n_req / len(batches),
        "serve.registry_hit_rate": sum(r.registry == "hit" for r in reqs) / n_req,
        "serve.retries": float(st1.retries - st0.retries),
        "sched.plan_routes_us": mean_ms(w_calls, w_secs, "plan_routes") * 1e3,
        "sched.promoted": float(st1.promoted - st0.promoted),
        "graph.layer_batch_fill": (
            n_req / len(batches) / wl.max_batch if wl.spmm_per_request > 1 else 0.0
        ),
    }
    for r in ROUTES:
        layers[f"serve.route.{r.replace('@', '_')}"] = routes[r] / n_req
    layers.update(
        span_metrics(spans, sum(out.burst_requests) if wl.spmm_per_request > 1 else 0)
    )
    out.layers = layers
    return out


#: name -> (unit, clock/description) of the end-to-end metrics.
END_TO_END = {
    "setup_s": ("s", "wall; median of set-ups from an empty plan cache to ready"),
    "throughput_rps": ("req/s", "wall; median over 10 equal chunks of the timed work"),
    "latency_p50_ms": ("ms", "wall; submit to completion; median of the 10 chunks' p50"),
    "latency_p90_ms": ("ms", "wall; submit to completion; median of the 10 chunks' p90"),
    "update_p50_ms": ("ms", "wall; one PlanRegistry.apply_update"),
    "sim_us_per_col": ("us/col", "simulated A100; kernel us per B column served"),
    "peak_rss_mb": ("MB", "peak resident memory of the run's process"),
}


#: Units of the per-layer metrics (the traced run reports all of them on
#: every workload; a layer a workload does not exercise reads 0).
LAYER_UNITS = {
    "core.reorder_s": "s",
    "core.compress_s": "s",
    "core.compile_s": "s",
    "core.vnm_build_s": "s",
    "core.store_s": "s",
    "core.cover_hit_rate": "ratio",
    "core.reorder_evictions": "count",
    "core.update_store_ms": "ms",
    "core.repair_ms": "ms",
    "core.repaired_slabs": "count",
    "core.total_slabs": "count",
    "kernel.tile_launch_ms": "ms",
    "kernel.timing_model_ms": "ms",
    "kernel.functional_ms": "ms",
    "kernel.compiled_launch_ms": "ms",
    "kernel.vnm_launch_ms": "ms",
    "kernel.launches": "count",
    "kernel.cols_per_launch": "cols",
    "serve.queue_wait_ms": "ms",
    "serve.self_ms": "ms",
    "serve.batch_size_mean": "req",
    "serve.registry_hit_rate": "ratio",
    **{f"serve.route.{r.replace('@', '_')}": "ratio" for r in ROUTES},
    "serve.retries": "count",
    "serve.fallbacks": "count",
    "sched.plan_routes_us": "us",
    "sched.promoted": "count",
    "graph.layer_ms": "ms",
    "graph.self_ms": "ms",
    "graph.layer_batch_fill": "ratio",
    "obs.trace_overhead_pct": "%",
}


def end_to_end(res: PassResult) -> dict[str, float]:
    return {
        "setup_s": statistics.median(res.setup_s),
        "throughput_rps": res.throughput_rps,
        "latency_p50_ms": res.latency_ms(50),
        "latency_p90_ms": res.latency_ms(90),
        "update_p50_ms": statistics.median(res.updates_s) * 1e3,
        "sim_us_per_col": res.counts["sim_us"] / res.counts["cols"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result document."""
    wl = WORKLOADS[workload]
    weights = wl.weights()
    traffic = wl.traffic(seed, wl.n_bursts(seconds, CHUNKS * MIN_CHUNK_REQUESTS))
    if trace:
        plain = run_pass(wl, weights, traffic, seed, 1)
        probes = Probes()
        with probes.installed():
            traced = run_pass(wl, weights, traffic, seed, 1, probes=probes)
        passes = [plain, traced]
        metrics = dict(traced.layers)
        metrics["obs.trace_overhead_pct"] = (
            (plain.throughput_rps - traced.throughput_rps) / plain.throughput_rps * 100
        )
        units = {k: LAYER_UNITS[k] for k in metrics}
    else:
        res = run_pass(wl, weights, traffic, seed, SETUP_REPS)
        passes = [res]
        metrics = end_to_end(res)
        units = {k: END_TO_END[k][0] for k in metrics}
    return {
        "correct": all(p.failed == 0 and p.final_ok for p in passes),
        "attempted": sum(p.attempted for p in passes),
        "failed": sum(p.failed + (not p.final_ok) for p in passes),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "counts": passes[0].counts,
        "latency_samples": passes[0].latency_samples,
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    doc = run(args.workload, args.seed, args.seconds, bool(args.trace))
    wl = WORKLOADS[args.workload]
    print(f"workload {wl.name}: {wl.why}")
    print(
        f"requests attempted {doc['attempted']}, succeeded "
        f"{doc['attempted'] - doc['failed']}, failed {doc['failed']}; "
        f"latency samples {doc['latency_samples']}"
    )
    for name, m in doc["metrics"].items():
        note = END_TO_END.get(name, ("", "traced run"))[1]
        print(f"  {name:28s} {m['value']:14.6g} {m['unit']:8s} {note}")
    print("counts " + json.dumps(doc["counts"], sort_keys=True))
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
