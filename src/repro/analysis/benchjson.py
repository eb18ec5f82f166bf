"""Machine-readable serving-bench reports (``BENCH_serving.json``).

``repro serve-bench --bench-json`` and ``repro sched-bench`` fold one or
more scenario runs into a single JSON document with schema
``repro.bench_serving/v1``::

    {
      "schema": "repro.bench_serving/v1",
      "scenarios": [
        {"name": "fifo", "requests": 60, "throughput_rps": ...,
         "latency_s": {"p50": ..., "p99": ...},
         "deadline_miss_rate": ..., "route_mix": {"jigsaw": ...},
         "throttled": 0, "promoted": 0},
        ...
      ],
      "comparison": {"baseline": "fifo", "contender": "edf_cost",
                     "baseline_miss_rate": ..., "contender_miss_rate": ...,
                     "miss_rate_improvement": ...}
    }

CI schema-checks the artifact with ``python -m repro.obs --bench``; the
checker lives in :func:`repro.obs.validate.validate_bench_serving` so the
producer (this module) and the consumer share one contract.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import Future, wait
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

from repro.serve.stats import ServeStats

#: Version tag checked by the validator; bump on breaking changes.
BENCH_SERVING_SCHEMA = "repro.bench_serving/v1"


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (q in [0, 100]); 0.0 if empty."""
    if not values:
        return 0.0
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must be in [0, 100]")
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def scenario_record(
    name: str,
    stats: ServeStats,
    latencies_s: list[float],
    wall_s: float,
    deadline_requests: int,
) -> dict:
    """One scenario's entry: throughput, tail latency, miss rate, route mix.

    ``latencies_s`` are per-request submit->result wall times measured by
    the caller; ``deadline_requests`` is how many submitted requests
    carried a deadline (the miss-rate denominator — ``deadline_expired``
    counts exactly the requests whose launch deadline passed).
    """
    return {
        "name": name,
        "requests": stats.requests,
        "throughput_rps": stats.requests / wall_s if wall_s > 0 else 0.0,
        "latency_s": {
            "p50": percentile(latencies_s, 50.0),
            "p99": percentile(latencies_s, 99.0),
        },
        "deadline_miss_rate": (
            stats.deadline_expired / deadline_requests if deadline_requests else 0.0
        ),
        "route_mix": {r: n for r, n in stats.route_counts.items()},
        "throttled": stats.throttled,
        "promoted": stats.promoted,
    }


class SubmitTimer:
    """Per-request submit->result wall times: the ``latencies_s`` that
    :func:`scenario_record` takes.

    Send every request through :meth:`submit`.  It reads the host clock
    just before handing the request over and again in the future's
    done-callback, so a latency covers queueing, batching, and host
    execution on one clock; the simulated kernel microseconds of
    ``RequestStats`` are a different clock and never enter it.  Failed
    and cancelled requests record no latency.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._futures: list[Future] = []
        self._settled = 0
        self._latencies: list[float] = []

    def submit(self, submit: Callable[[Any], Future], request: Any) -> Future:
        """``submit(request)``, timed from the call to the result."""
        t0 = perf_counter()
        future = submit(request)
        with self._cond:
            self._futures.append(future)
        future.add_done_callback(lambda f: self._settle(f, t0))
        return future

    def _settle(self, future: Future, t0: float) -> None:
        t1 = perf_counter()
        with self._cond:
            if not future.cancelled() and future.exception() is None:
                self._latencies.append(t1 - t0)
            self._settled += 1
            self._cond.notify_all()

    def run(self, executor: Any, requests: list, timeout: float | None = None) -> list:
        """Timed ``executor.run(requests)``: submit the burst, flush,
        and wait for every result in order.

        Keeps ``run``'s contract: if a later submit raises, the earlier
        futures are cancelled (undispatched) or drained (in flight)
        before the error re-raises, so none is left pending.
        """
        futures: list[Future] = []
        try:
            for r in requests:
                futures.append(self.submit(executor.submit, r))
        except BaseException:
            for f in futures:
                f.cancel()
            executor.flush()
            wait([f for f in futures if not f.cancelled()], timeout=60)
            raise
        executor.flush()
        return [f.result(timeout=timeout) for f in futures]

    @property
    def latencies_s(self) -> list[float]:
        """Latencies of the requests that completed so far.

        A waiter can wake on a result before the future's callbacks have
        run, so this first waits out the callbacks of every resolved
        future.
        """
        with self._cond:
            self._cond.wait_for(
                lambda: self._settled >= sum(f.done() for f in self._futures)
            )
            return list(self._latencies)


def build_bench_serving(
    scenarios: list[dict],
    baseline: str | None = None,
    contender: str | None = None,
) -> dict:
    """Assemble the full document; adds a miss-rate comparison if both
    ``baseline`` and ``contender`` name a scenario."""
    doc: dict = {"schema": BENCH_SERVING_SCHEMA, "scenarios": list(scenarios)}
    if baseline is not None and contender is not None:
        by_name = {s["name"]: s for s in scenarios}
        base, cont = by_name[baseline], by_name[contender]
        doc["comparison"] = {
            "baseline": baseline,
            "contender": contender,
            "baseline_miss_rate": base["deadline_miss_rate"],
            "contender_miss_rate": cont["deadline_miss_rate"],
            "miss_rate_improvement": (
                base["deadline_miss_rate"] - cont["deadline_miss_rate"]
            ),
        }
    return doc


def write_bench_serving(doc: dict, path: str | Path) -> Path:
    """Write the document as pretty-printed JSON; returns the path."""
    p = Path(path)
    p.write_text(json.dumps(doc, indent=2, sort_keys=False) + "\n")
    return p
