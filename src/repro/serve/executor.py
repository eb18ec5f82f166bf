"""Batched SpMM request executor with deadlines and self-healing fallback.

The serving shape: the sparse operand A is stationary (it was reordered
and compressed once), and requests arrive carrying only their dense
B-panels.  Requests sharing a matrix are grouped, their B-panels
concatenated column-wise, executed as **one** kernel launch, and the
output columns split back per request — the per-launch fixed cost and
wave quantization amortize over the whole group (the same
stationary-operand batching a Magicube-style serving stack performs).

Routing (see docs/serving.md and :mod:`repro.serve.routing`):

* ``jigsaw`` — the normal batched v0..v4 path;
* ``compiled`` — the whole-plan compiled route (flat precomputed index
  arrays + one batched matmul; bit-identical to the BLOCK_TILE=64 tile
  route).  Static chains try it after ``jigsaw``; a cost-model-equipped
  scheduler discovers it is cheaper and reorders it first;
* ``hybrid`` — the plan's reorder failed (``reorder_success == False``)
  **or** the faster routes' circuit breakers are open, so the
  Section-4.7 hybrid-granularity kernel serves the group instead;
* ``dense`` — the request's deadline expired while queued, the hybrid
  breaker is open too, or every faster route failed — the dense
  cuBLAS-style fallback runs per request (failure isolation: one
  poisoned request never fails its batch-mates).

Scheduling (see docs/scheduling.md): constructed with a
:class:`~repro.sched.Scheduler`, the executor becomes SLO-aware —
per-tenant token buckets shed excess traffic at submit time with a
typed :class:`~repro.sched.ThrottledError`, ready groups dispatch in
priority-weighted earliest-deadline-first order (a group whose tightest
deadline would expire inside the linger window is *promoted* early
instead of discovered-expired at dequeue), and the
:class:`~repro.sched.CostModel` orders the route chain by measured
cost.  Without a scheduler the executor keeps the original FIFO /
static-chain behavior.

Fault tolerance (see docs/fault_injection.md): transient kernel faults
are retried under a bounded exponential-backoff
:class:`~repro.faults.RetryPolicy` before the per-(matrix, route)
:class:`~repro.faults.CircuitBreaker` counts a failure; tripped breakers
steer traffic down the route chain and half-open probes restore the fast
path once faults clear.  Admission control bounds the pending queue
(``max_pending``) with a typed :class:`~repro.serve.errors.RejectedError`
on overflow.

Every completed request emits a :class:`~repro.serve.stats.RequestStats`
record; :meth:`BatchExecutor.stats` folds them into a
:class:`~repro.serve.stats.ServeStats` together with the registry's
hit/miss/eviction counters and the resilience counters
(retries/rejections/quarantines/breaker states).

The implementation is split by concern: request/result shapes in
:mod:`repro.serve.forming`, group dispatch in
:mod:`repro.serve.dispatch`, the route chain in
:mod:`repro.serve.routing`; this module owns lifecycle, submission,
admission, and aggregation.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from repro.core.kernels import ALL_VERSIONS
from repro.core.kernels.hybrid import HybridPlan
from repro.faults import BreakerBoard, FaultPlan, RetryPolicy
from repro.gpu.device import A100, DeviceSpec
from repro.obs import NullTracer, Tracer, get_metrics, get_tracer
from repro.sched import DEFAULT_WEIGHT, Scheduler, ThrottledError

from .dispatch import _DispatchMixin
from .errors import ExecutorClosedError, RejectedError
from .forming import ServeResult, SpmmRequest, SubmitReport, _Entry, _Group
from .registry import PlanRegistry
from .routing import FALLBACK_CHAIN, _RoutingMixin
from .stats import BatchStats, RequestStats, ServeStats

__all__ = [
    "FALLBACK_CHAIN",
    "BatchExecutor",
    "ServeResult",
    "SpmmRequest",
    "SubmitReport",
]


class BatchExecutor(_DispatchMixin, _RoutingMixin):
    """Thread-pooled, batching front-end over a :class:`PlanRegistry`.

    ``max_batch`` caps a group's size (a full group dispatches
    immediately); ``batch_window_s`` is the linger a partial group waits
    for company before the dispatcher flushes it.  ``run`` submits a
    burst and flushes synchronously, so tests and benches never depend
    on the linger timer.

    ``chain`` overrides the route fallback order (default
    :data:`FALLBACK_CHAIN`); it must end at ``dense``.  Benchmarks pin
    e.g. ``("jigsaw", "hybrid", "dense")`` to measure the tile-by-tile
    baseline without the compiled route.

    Resilience knobs: ``max_pending`` bounds the pending queue (None =
    unbounded; overflow raises :class:`RejectedError`); ``retry_policy``
    governs transient-fault retries; ``breaker_threshold`` /
    ``breaker_cooldown_s`` configure the per-(matrix, route) circuit
    breakers (or pass a prebuilt ``breakers`` board, e.g. with a fake
    clock for tests); ``fault_plan`` threads a
    :class:`~repro.faults.FaultPlan` through every injection site.

    ``clock`` is the executor's one time base: queue waits, span
    timestamps, the linger timer, *and* the default breaker board all
    read it, so a test's fake clock moves every time-dependent part of
    the pipeline together (a prebuilt ``breakers`` board keeps its own
    clock).
    """

    def __init__(
        self,
        registry: PlanRegistry,
        max_batch: int = 8,
        batch_window_s: float = 0.002,
        max_workers: int = 4,
        device: DeviceSpec = A100,
        max_pending: int | None = None,
        retry_policy: RetryPolicy | None = None,
        breaker_threshold: int = 3,
        breaker_cooldown_s: float = 0.25,
        breakers: BreakerBoard | None = None,
        fault_plan: FaultPlan | None = None,
        scheduler: Scheduler | None = None,
        chain: tuple[str, ...] = FALLBACK_CHAIN,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = perf_counter,
        tracer: Tracer | NullTracer | None = None,
    ) -> None:
        if max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if max_pending is not None and max_pending < 1:
            raise ValueError("max_pending must be >= 1 (or None for unbounded)")
        if not chain or chain[-1] != "dense":
            raise ValueError("route chain must terminate at dense")
        unknown = [r for r in chain if r not in FALLBACK_CHAIN]
        if unknown:
            raise ValueError(f"unknown routes in chain: {unknown}")
        self.registry = registry
        self.max_batch = max_batch
        self.batch_window_s = batch_window_s
        self.device = device
        self.max_pending = max_pending
        self.retry_policy = retry_policy or RetryPolicy()
        self.chain = tuple(chain)
        self._sleep = sleep
        #: Injectable wall clock: queue waits, span timestamps, and the
        #: linger timer all read it, so traces are deterministic in tests.
        self._clock = clock
        # The default breaker board shares the executor clock — one time
        # base for queue waits, spans, and breaker cooldowns (previously
        # breakers defaulted to time.monotonic while the executor read
        # perf_counter, so a fake executor clock left cooldowns on real
        # time).  A caller-provided board is taken as configured.
        self.breakers = breakers or BreakerBoard(
            failure_threshold=breaker_threshold,
            cooldown_s=breaker_cooldown_s,
            clock=clock,
        )
        self.fault_plan = fault_plan
        #: SLO policy (admission + EDF forming + cost routing); None
        #: keeps the original FIFO / static-chain behavior.
        self.scheduler = scheduler
        #: Explicit tracer override; None follows the process-wide tracer
        #: (so arming ``set_tracer`` after construction still takes effect).
        self._tracer = tracer
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="serve"
        )
        self._cond = threading.Condition()
        #: Forming groups keyed ``(matrix, version, b-dtype name)`` —
        #: dtype-uniform batches so concatenation never downcasts.
        self._groups: dict[tuple[str, str, str], _Group] = {}
        self._ids = itertools.count()
        self._closed = False
        #: Pool tasks (batches, expired-request dense runs) not yet returned.
        self._running = 0
        #: Open :meth:`flushing_when_idle` blocks.
        self._idle_flushers = 0
        self._pending = 0
        self._pending_peak = 0
        self._request_stats: list[RequestStats] = []
        self._batch_stats: list[BatchStats] = []
        self._retries = 0
        self._rejected = 0
        self._stats_lock = threading.Lock()
        self._hybrid_plans: dict[str, HybridPlan] = {}
        self._hybrid_lock = threading.Lock()
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="serve-dispatcher", daemon=True
        )
        self._dispatcher.start()

    @property
    def tracer(self) -> Tracer | NullTracer:
        """The tracer in effect: the override or the process-wide one."""
        return self._tracer if self._tracer is not None else get_tracer()

    # -- submission ------------------------------------------------------------

    def submit(self, request: SpmmRequest) -> Future:
        """Enqueue one request; returns a Future of :class:`ServeResult`.

        Raises :class:`ExecutorClosedError` on a closed executor,
        :class:`~repro.sched.ThrottledError` when the scheduler's
        per-tenant rate limit sheds the request, and
        :class:`RejectedError` when global admission control does;
        validation failures (unknown matrix/version, bad panel) raise
        ``KeyError``/``ValueError`` as before.
        """
        # Fast-fail before validation; re-checked under the lock below so
        # a racing close() can never accept work into a dead executor.
        if self._closed:
            raise ExecutorClosedError("executor is closed")
        if request.version not in ALL_VERSIONS:
            raise ValueError(f"unknown kernel version {request.version!r}")
        a = self.registry.matrix(request.matrix)  # raises on unknown name
        b = np.asarray(request.b)
        if b.ndim != 2:
            raise ValueError("B must be a 2-D panel")
        if b.shape[0] != a.shape[1]:
            raise ValueError(
                f"B has {b.shape[0]} rows; matrix {request.matrix!r} has "
                f"{a.shape[1]} columns"
            )
        if b.dtype not in (np.float16, np.float32):
            raise ValueError(
                f"B panel dtype must be float16 or float32, got {b.dtype.name!r}"
            )
        submit_t = self._clock()
        entry = _Entry(
            request=request,
            request_id=next(self._ids),
            future=Future(),
            submit_t=submit_t,
            deadline_t=(
                submit_t + request.deadline_s
                if request.deadline_s is not None
                else None
            ),
            weight=(
                self.scheduler.weight(request.tenant)
                if self.scheduler is not None
                else DEFAULT_WEIGHT
            ),
        )
        tracer = self.tracer
        self._admit(request, tracer)
        if tracer.enabled:
            # One root span per request, created before the entry can
            # dispatch (a full group dispatches inside the lock below);
            # children (queue, kernel, hops) attach as the request moves
            # through the pipeline, and the done-callback ends it on
            # every path (ok/error/cancel).
            entry.span = tracer.start_span(
                "serve.request",
                start_s=entry.submit_t,
                attrs={
                    "request_id": entry.request_id,
                    "matrix": request.matrix,
                    "version": request.version,
                    "tenant": request.tenant,
                },
            )
        try:
            with self._cond:
                if self._closed:
                    raise ExecutorClosedError("executor is closed")
                if self.max_pending is not None and self._pending >= self.max_pending:
                    with self._stats_lock:
                        self._rejected += 1
                    get_metrics().counter(
                        "repro_rejected_total", "requests shed by admission control"
                    ).inc()
                    raise RejectedError(
                        f"pending queue full ({self._pending}/{self.max_pending}); "
                        f"request shed by admission control"
                    )
                self._pending += 1
                self._pending_peak = max(self._pending_peak, self._pending)
                get_metrics().gauge(
                    "repro_pending_requests", "requests submitted but not completed"
                ).set(self._pending)
                # dtype is part of the group key: batches are concatenated
                # panel-wise, and mixing fp16 with fp32 in one batch would
                # force a downcast (the pre-fix behavior silently cast
                # everyone to fp16).  Dtype-uniform groups keep each
                # request's precision end to end.
                key = (request.matrix, request.version, b.dtype.name)
                group = self._groups.setdefault(key, _Group())
                group.entries.append(entry)
                if len(group.entries) >= self.max_batch:
                    self._dispatch_locked(key)
                else:
                    self._flush_if_idle_locked()
                    self._cond.notify()
        except BaseException as exc:
            if entry.span is not None:
                entry.span.set_attr("outcome", "rejected")
                entry.span.set_attr("error_type", type(exc).__name__)
                tracer.end_span(entry.span, end_s=self._clock())
            raise
        entry.future.add_done_callback(
            lambda f, e=entry: self._on_request_done(e, f)
        )
        return entry.future

    def _admit(self, request: SpmmRequest, tracer: Tracer | NullTracer) -> None:
        """Scheduler admission for one request, traced as ``sched.admit``."""
        if self.scheduler is None:
            return
        t0 = self._clock()
        try:
            self.scheduler.admit(request.tenant, t0)
        except ThrottledError:
            if tracer.enabled:
                tracer.add_span(
                    "sched.admit",
                    start_s=t0,
                    end_s=self._clock(),
                    attrs={"tenant": request.tenant, "outcome": "throttled"},
                )
            raise
        if tracer.enabled:
            tracer.add_span(
                "sched.admit",
                start_s=t0,
                end_s=self._clock(),
                attrs={"tenant": request.tenant, "outcome": "ok"},
            )

    def spmm(
        self,
        matrix: str,
        b: np.ndarray,
        version: str = "v4",
        deadline_s: float | None = None,
        tenant: str = "default",
    ) -> Future:
        """Convenience wrapper building the :class:`SpmmRequest`."""
        return self.submit(
            SpmmRequest(
                matrix=matrix, b=b, version=version, deadline_s=deadline_s, tenant=tenant
            )
        )

    def run(self, requests: list[SpmmRequest], timeout: float | None = None) -> list[ServeResult]:
        """Submit a burst, flush, and wait for every result (in order).

        If a later submit raises (bad shape, admission shed), the
        already-submitted futures are cancelled (undispatched) or
        drained (in flight) before the error re-raises — no pending
        future is ever leaked to block a later ``close()``.
        """
        report = self.submit_many(requests, on_error="cancel")
        self.flush()
        return [f.result(timeout=timeout) for f in report.futures]

    def submit_many(
        self, requests: list[SpmmRequest], on_error: str = "cancel"
    ) -> SubmitReport:
        """Submit a burst, with a typed contract for mid-list failures.

        ``on_error="cancel"``: a failing submit (bad shape, throttle,
        admission shed) cancels the undispatched earlier futures, drains
        the in-flight ones, and re-raises — all-or-nothing, nothing
        orphaned.  ``on_error="partial"``: failing requests become
        ``None`` holes in the returned :class:`SubmitReport` (the typed
        error recorded per index) and the rest proceed — the caller
        decides what to resubmit.
        """
        if on_error not in ("cancel", "partial"):
            raise ValueError('on_error must be "cancel" or "partial"')
        futures: list[Future | None] = []
        errors: list[tuple[int, Exception]] = []
        try:
            for i, r in enumerate(requests):
                try:
                    futures.append(self.submit(r))
                except Exception as exc:
                    if on_error != "partial":
                        raise
                    futures.append(None)
                    errors.append((i, exc))
        except BaseException:
            # cancel-and-raise (and any non-Exception even in partial
            # mode): never leave an earlier future orphaned to the
            # caller — cancel the undispatched, drain the in-flight.
            for f in futures:
                if f is not None:
                    f.cancel()  # undispatched entries resolve to cancelled
            self.flush()  # dispatch drops cancelled entries; rest complete
            for f in futures:
                if f is not None and not f.cancelled():
                    try:
                        f.exception(timeout=60)
                    except Exception:
                        pass
            raise
        return SubmitReport(futures=futures, errors=errors)

    def flush(self) -> None:
        """Dispatch every pending group now (don't wait out the linger).

        With a scheduler attached, groups leave in priority-weighted
        EDF order, so a flush cannot invert priorities either.
        """
        with self._cond:
            self._flush_locked()

    @contextmanager
    def flushing_when_idle(self) -> Iterator["BatchExecutor"]:
        """For the block, dispatch partial groups whenever no launch runs.

        For closed loops whose completions submit the next requests (the
        graph tier's layer callbacks): with nothing running, no
        completion can fill a partial group, so waiting out
        ``batch_window_s`` would only stall the loop.  A group then
        holds exactly what the finished launches submitted.
        """
        with self._cond:
            self._idle_flushers += 1
            self._flush_if_idle_locked()
        try:
            yield self
        finally:
            with self._cond:
                self._idle_flushers -= 1

    @property
    def pending(self) -> int:
        """Requests submitted but not yet completed."""
        with self._cond:
            return self._pending

    def _on_request_done(self, entry: _Entry, future: Future) -> None:
        with self._cond:
            self._pending -= 1
            get_metrics().gauge(
                "repro_pending_requests", "requests submitted but not completed"
            ).set(self._pending)
        span = entry.span
        if span is None:
            return
        if future.cancelled():
            span.set_attr("outcome", "cancelled")
        elif future.exception() is not None:
            span.set_attr("outcome", "error")
            span.set_attr("error_type", type(future.exception()).__name__)
        else:
            result: ServeResult = future.result()
            span.set_attr("outcome", "ok")
            span.set_attr("route", result.stats.route)
            span.set_attr("batch_size", result.stats.batch_size)
        self.tracer.end_span(span, end_s=self._clock())

    # -- observability ---------------------------------------------------------

    def _count_retry(self, _attempt: int, _exc: BaseException) -> None:
        with self._stats_lock:
            self._retries += 1
        get_metrics().counter(
            "repro_retries_total", "kernel retry attempts absorbed by backoff"
        ).inc()

    def _note_hop(self, live: list[_Entry], route: str, reason: str, **attrs) -> None:
        """Record a fallback hop (skipped or failed route) on each request."""
        t = self._clock()
        for e in live:
            if e.span is not None:
                e.span.add_event("route.fallback", t, route=route, reason=reason, **attrs)

    def _note_retry(
        self, live: list[_Entry], route: str, attempt: int, exc: BaseException
    ) -> None:
        """Record one retry attempt as an event on each affected request."""
        t = self._clock()
        for e in live:
            if e.span is not None:
                e.span.add_event(
                    "retry", t, route=route, attempt=attempt, error=type(exc).__name__
                )

    def _trace_kernel(
        self, e: _Entry, route: str, start_s: float, end_s: float, stats: RequestStats
    ) -> None:
        """Attach batch-membership + kernel child spans to one request."""
        if e.span is None:
            return
        tracer = self.tracer
        batch_start = e.submit_t + e.queue_wait_s
        batch = tracer.add_span(
            "serve.batch",
            start_s=min(batch_start, start_s),
            end_s=end_s,
            parent=e.span,
            attrs={"route": route, "batch_size": stats.batch_size},
        )
        tracer.add_span(
            "serve.kernel",
            start_s=start_s,
            end_s=end_s,
            parent=batch,
            attrs={
                "route": route,
                "kernel_us": stats.kernel_us,
                "batch_kernel_us": stats.batch_kernel_us,
            },
        )

    def stats(self) -> ServeStats:
        """Aggregate of everything served so far + registry counters."""
        with self._stats_lock:
            requests = list(self._request_stats)
            batches = list(self._batch_stats)
            retries = self._retries
            rejected = self._rejected
        with self._cond:
            pending_peak = self._pending_peak
        return ServeStats.collect(
            requests,
            batches,
            registry_stats=self.registry.stats,
            reorder_runs=self.registry.reorder_runs,
            retries=retries,
            rejected=rejected,
            pending_peak=pending_peak,
            quarantined=self.registry.quarantined,
            quarantine_evicted=self.registry.quarantine_evicted,
            store_failures=self.registry.store_failures,
            breaker_trips=self.breakers.trips,
            breaker_states=self.breakers.snapshot(),
            throttled=self.scheduler.throttled if self.scheduler else 0,
            throttled_by_tenant=(
                self.scheduler.throttled_by_tenant() if self.scheduler else {}
            ),
            promoted=self.scheduler.promoted if self.scheduler else 0,
        )

    def request_stats(self) -> list[RequestStats]:
        with self._stats_lock:
            return list(self._request_stats)

    def batch_stats(self) -> list[BatchStats]:
        with self._stats_lock:
            return list(self._batch_stats)

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Flush pending work, stop the dispatcher, drain the pool.

        Idempotent: later calls return immediately."""
        with self._cond:
            if self._closed:
                return
            for key in list(self._groups):
                self._dispatch_locked(key)
            self._closed = True
            self._cond.notify_all()
        self._dispatcher.join(timeout=5.0)
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
