"""Front-end shard router: consistent hashing, forwarding, redelivery.

The :class:`ShardRouter` is the process-local entry point of the
multi-process serving tier (docs/sharding.md).  It

* consistent-hashes ``matrix_id`` → shard over an md5 ring (``hash()``
  is salted per process, so it cannot place matrices stably);
* forwards :class:`~repro.serve.SpmmRequest`\\ s as ``spmm`` wire frames
  to the owning worker, carrying the root span's ``(trace_id,
  span_id)`` so the worker's spans parent under the router's
  ``serve.request`` root;
* broadcasts matrix registration to **every** worker — plan residency
  (the expensive part) stays partitioned by routing, while sibling
  shards can serve a redelivered request for a crashed peer without a
  registration round-trip;
* tracks every in-flight request and, when a link dies (crash detected
  by the supervisor, or a send/recv failing first), **redelivers** to
  the next live sibling on the ring — or parks the frame in the dead
  shard's outbox until its respawn attaches.  A request redelivered
  more than ``max_redeliveries`` times is declared **poison**: its
  matrix degrades to router-local per-request dense isolation
  (the crashes stop; the matrix still serves) instead of crash-looping
  the fleet;
* optionally runs token-bucket admission
  (:class:`~repro.sched.AdmissionController`) before anything is
  enqueued, so per-tenant budgets hold across all shards globally.
"""

from __future__ import annotations

import bisect
import hashlib
import socket
import threading
from concurrent.futures import Future, InvalidStateError, ThreadPoolExecutor
from time import perf_counter
from typing import Callable

import numpy as np

from repro.baselines.cublas import cublas_hgemm
from repro.gpu.device import A100, DeviceSpec
from repro.obs import FleetMetrics, SloTracker, Span, get_metrics, get_tracer
from repro.sched import AdmissionController
from repro.serve import RequestStats, ServeResult, ServeStats, SpmmRequest
from repro.serve.errors import ExecutorClosedError, ServeError

from . import wire

#: Virtual nodes per shard on the hash ring: enough for an even spread
#: at single-digit shard counts without making ring builds noticeable.
VNODES_PER_SHARD = 64


class ShardError(ServeError):
    """Shard-tier failure."""


class ShardWorkerError(ShardError):
    """A worker replied with an ``error`` frame for this request."""


def _ring_points(num_shards: int) -> tuple[list[int], list[int]]:
    """Sorted (point, shard) arrays of the consistent-hash ring."""
    points: list[tuple[int, int]] = []
    for shard in range(num_shards):
        for v in range(VNODES_PER_SHARD):
            digest = hashlib.md5(f"shard{shard}:{v}".encode()).digest()
            points.append((int.from_bytes(digest[:8], "big"), shard))
    points.sort()
    return [p for p, _ in points], [s for _, s in points]


def shard_for(matrix: str, num_shards: int, points=None, shards=None) -> int:
    """Owning shard of ``matrix`` on the ring (stable across processes)."""
    if num_shards == 1:
        return 0
    if points is None:
        points, shards = _ring_points(num_shards)
    h = int.from_bytes(hashlib.md5(matrix.encode()).digest()[:8], "big")
    i = bisect.bisect_right(points, h)
    return shards[i % len(shards)]


class _Link:
    """One live worker connection (owned socket + liveness flag)."""

    def __init__(self, shard: int, conn: socket.socket, incarnation: int) -> None:
        self.shard = shard
        self.conn = conn
        self.incarnation = incarnation
        self.alive = True
        self.reader: threading.Thread | None = None


class _InFlight:
    """Book-keeping for one forwarded, not-yet-answered request."""

    __slots__ = ("rid", "request", "future", "shard", "attempts", "span", "submit_t")

    def __init__(self, rid, request, future, shard, span, submit_t) -> None:
        self.rid = rid
        self.request = request
        self.future = future
        self.shard = shard
        self.attempts = 0
        self.span = span
        self.submit_t = submit_t


class ShardRouter:
    """Routes requests to shard workers; recovers them when workers die.

    ``on_control`` receives every ``hello``/``heartbeat``/``bye`` header
    (the supervisor's liveness feed).  The router never spawns or kills
    processes itself — it owns links, in-flight state, and redelivery;
    the :class:`~repro.shard.supervisor.Supervisor` owns lifecycles.
    """

    def __init__(
        self,
        num_shards: int,
        admission: AdmissionController | None = None,
        max_redeliveries: int = 3,
        device: DeviceSpec = A100,
        clock: Callable[[], float] = perf_counter,
        on_control: Callable[[dict], None] | None = None,
        slo: SloTracker | None = None,
    ) -> None:
        if num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if max_redeliveries < 0:
            raise ValueError("max_redeliveries must be >= 0")
        self.num_shards = num_shards
        self.admission = admission
        self.max_redeliveries = max_redeliveries
        self.device = device
        self.on_control = on_control
        self.slo = slo
        #: Fleet-wide fold of worker metrics deltas (shard/incarnation
        #: labeled); defaults into the process-global registry so a
        #: ``--metrics-out`` export carries the whole fleet.
        self.fleet = FleetMetrics()
        self._clock = clock
        self._ring_points, self._ring_shards = _ring_points(num_shards)
        self._lock = threading.RLock()
        self._links: dict[int, _Link] = {}
        self._outbox: dict[int, list[_InFlight]] = {s: [] for s in range(num_shards)}
        self._matrices: dict[str, np.ndarray] = {}
        self._inflight: dict[int, _InFlight] = {}
        self._poisoned: set[str] = set()
        self._rids = iter(range(1, 1 << 62)).__next__
        self._request_stats: list[RequestStats] = []
        self._closed = False
        # One thread suffices: poison-degraded traffic is the slow path
        # by design; isolation, not throughput, is the point.
        self._dense_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="shard-dense"
        )
        # Counters (all under _lock).
        self.redeliveries = 0
        self.poison_served = 0
        self.send_failures = 0
        self.worker_errors = 0
        #: max reorder_runs reported per (shard, incarnation) — the
        #: zero-reorder-on-respawn assertion sums these.
        self.worker_reorder_runs: dict[tuple[int, int], int] = {}

    # -- topology --------------------------------------------------------------

    def shard_for(self, matrix: str) -> int:
        return shard_for(
            matrix, self.num_shards, self._ring_points, self._ring_shards
        )

    def attach(self, shard: int, conn: socket.socket, incarnation: int) -> None:
        """Bind a (re)connected worker: re-register matrices, flush outbox."""
        link = _Link(shard, conn, incarnation)
        with self._lock:
            old = self._links.get(shard)
            if old is not None and old.alive:
                # A stale link for a respawned shard: drop it first.
                self._link_down_locked(old, redispatch=True)
            self._links[shard] = link
            pending = self._outbox[shard]
            self._outbox[shard] = []
            # Claim every parked entry *before* sending: if a send below
            # fails mid-flush, _link_down_locked redispatches everything
            # in flight for this shard — including the not-yet-sent tail.
            for entry in pending:
                entry.shard = shard
            try:
                # Registration frames first — a parked request must find
                # its matrix registered when the worker dequeues it.
                for name, a in self._matrices.items():
                    wire.send_msg(conn, {"type": "register", "name": name}, {"a": a})
                for entry in pending:
                    wire.send_msg(conn, *self._spmm_frame(entry))
            except OSError:
                self.send_failures += 1
                self._link_down_locked(link, redispatch=True)
                return
        link.reader = threading.Thread(
            target=self._reader_loop,
            args=(link,),
            name=f"shard{shard}-reader",
            daemon=True,
        )
        link.reader.start()

    def detach(self, shard: int) -> None:
        """Mark a shard's link dead and redeliver its in-flight requests.

        Idempotent: the supervisor's monitor and the link's own reader
        thread can both report the same death.
        """
        with self._lock:
            link = self._links.get(shard)
            if link is None:
                return
            self._link_down_locked(link, redispatch=True)

    def live_shards(self) -> list[int]:
        with self._lock:
            return sorted(s for s, l in self._links.items() if l.alive)

    # -- matrices --------------------------------------------------------------

    def register_matrix(self, name: str, a: np.ndarray) -> None:
        """Register a stationary matrix fleet-wide (broadcast to workers)."""
        mat = np.ascontiguousarray(a, dtype=np.float16)
        if mat.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        with self._lock:
            existing = self._matrices.get(name)
            if existing is not None:
                if not np.array_equal(existing, mat):
                    raise ValueError(
                        f"matrix {name!r} already registered with different content"
                    )
                return
            self._matrices[name] = mat
            for link in self._links.values():
                if not link.alive:
                    continue
                try:
                    wire.send_msg(
                        link.conn, {"type": "register", "name": name}, {"a": mat}
                    )
                except OSError:
                    self.send_failures += 1
                    self._link_down_locked(link, redispatch=True)

    # -- submission ------------------------------------------------------------

    def submit(self, request: SpmmRequest) -> Future:
        """Forward one request; the future resolves to a ServeResult."""
        if self._closed:
            raise ExecutorClosedError("router is closed")
        with self._lock:
            a = self._matrices.get(request.matrix)
        if a is None:
            raise KeyError(
                f"unknown matrix {request.matrix!r}; register it first"
            )
        b = np.asarray(request.b)
        if b.ndim != 2:
            raise ValueError("B must be a 2-D panel")
        if b.shape[0] != a.shape[1]:
            raise ValueError(
                f"B has {b.shape[0]} rows; matrix {request.matrix!r} needs {a.shape[1]}"
            )
        if self.admission is not None:
            self.admission.admit(request.tenant, self._clock())
        rid = self._rids()
        future: Future = Future()
        tracer = get_tracer()
        span = None
        if tracer.enabled:
            span = tracer.start_span(
                "serve.request",
                attrs={
                    "request_id": rid,
                    "matrix": request.matrix,
                    "version": request.version,
                    "tenant": request.tenant,
                    "tier": "shard",
                },
            )
        entry = _InFlight(rid, request, future, -1, span, self._clock())
        with self._lock:
            self._inflight[rid] = entry
            if request.matrix in self._poisoned:
                self._serve_poisoned_locked(entry)
                return future
            entry.shard = self.shard_for(request.matrix)
            self._forward_locked(entry)
        return future

    def _spmm_frame(self, entry: _InFlight) -> tuple[dict, dict]:
        header = {
            "type": "spmm",
            "rid": entry.rid,
            "matrix": entry.request.matrix,
            "version": entry.request.version,
            "deadline_s": entry.request.deadline_s,
            "tenant": entry.request.tenant,
            "redelivery": entry.attempts,
        }
        if entry.span is not None:
            header["trace"] = {
                "trace_id": entry.span.trace_id,
                "span_id": entry.span.span_id,
            }
        return header, {"b": np.ascontiguousarray(entry.request.b)}

    def _forward_locked(self, entry: _InFlight) -> None:
        """Send to the entry's shard, or park in its outbox (lock held)."""
        link = self._links.get(entry.shard)
        if link is None or not link.alive:
            self._outbox[entry.shard].append(entry)
            return
        try:
            wire.send_msg(link.conn, *self._spmm_frame(entry))
        except OSError:
            # The classic race: worker died (or is being respawned)
            # between routing and send.  The send failure *is* the crash
            # signal here — redeliver like any other link death.
            self.send_failures += 1
            self._link_down_locked(link, redispatch=True)

    # -- crash handling --------------------------------------------------------

    def _link_down_locked(self, link: _Link, redispatch: bool) -> None:
        if not link.alive:
            return
        link.alive = False
        # shutdown() first: close() alone does not wake a reader thread
        # blocked in recv, so close() would wait out its join timeout.
        try:
            link.conn.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            link.conn.close()
        except OSError:
            pass
        if self._links.get(link.shard) is link:
            del self._links[link.shard]
        get_tracer().event(
            "shard.link_down",
            attrs={"shard": link.shard, "incarnation": link.incarnation},
        )
        if not redispatch:
            return
        victims = [
            e
            for e in self._inflight.values()
            if e.shard == link.shard and not e.future.done()
        ]
        for entry in victims:
            self._redeliver_locked(entry)

    def _redeliver_locked(self, entry: _InFlight) -> None:
        entry.attempts += 1
        if entry.attempts > self.max_redeliveries:
            # Poison: this request (likely its matrix) has now taken
            # down max_redeliveries+1 workers.  Stop spreading it —
            # serve it (and all future requests for the matrix) dense,
            # per-request, in the router process.
            self._poisoned.add(entry.request.matrix)
            if entry.span is not None:
                entry.span.add_event(
                    "shard.poisoned",
                    get_tracer().clock(),
                    attempts=entry.attempts,
                )
            self._serve_poisoned_locked(entry)
            return
        self.redeliveries += 1
        if entry.span is not None:
            entry.span.add_event(
                "shard.redeliver", get_tracer().clock(), attempts=entry.attempts
            )
        # Prefer a live sibling (ring order after the home shard); fall
        # back to the home shard's outbox to await its respawn.
        home = entry.shard
        for step in range(1, self.num_shards):
            candidate = (home + step) % self.num_shards
            link = self._links.get(candidate)
            if link is not None and link.alive:
                entry.shard = candidate
                self._forward_locked(entry)
                return
        entry.shard = home
        self._outbox[home].append(entry)

    # -- poison isolation ------------------------------------------------------

    def _serve_poisoned_locked(self, entry: _InFlight) -> None:
        a = self._matrices[entry.request.matrix]
        self._dense_pool.submit(self._run_poisoned, entry, a)

    def _run_poisoned(self, entry: _InFlight, a: np.ndarray) -> None:
        try:
            b = np.ascontiguousarray(entry.request.b)
            if b.shape[1] == 0:
                c = np.zeros((a.shape[0], 0), dtype=np.float32)
                kernel_us = 0.0
            else:
                res = cublas_hgemm(a, b, self.device)
                c = res.c
                kernel_us = res.profile.duration_us
            stats = RequestStats(
                request_id=entry.rid,
                matrix=entry.request.matrix,
                route="dense",
                batch_size=1,
                queue_wait_s=self._clock() - entry.submit_t,
                kernel_us=kernel_us,
                batch_kernel_us=kernel_us,
                registry="miss",
                tenant=entry.request.tenant,
            )
            with self._lock:
                self.poison_served += 1
                self._request_stats.append(stats)
                self._inflight.pop(entry.rid, None)
            self._record_served(stats, stats.queue_wait_s)
            self._finish_span(entry, route="dense", poisoned=True)
            try:
                entry.future.set_result(ServeResult(c=c, stats=stats))
            except InvalidStateError:
                pass
        except BaseException as exc:  # pragma: no cover - defensive
            with self._lock:
                self._inflight.pop(entry.rid, None)
            self._finish_span(entry, route="dense", poisoned=True, error=True)
            if not entry.future.done():
                try:
                    entry.future.set_exception(exc)
                except InvalidStateError:
                    pass

    def _record_served(self, stats: RequestStats, latency_s: float) -> None:
        """End-to-end latency + SLO feed for one answered request.

        Runs in the router process (reader threads / dense pool), so the
        fleet's tail-latency view includes wire and redelivery time the
        workers cannot see.
        """
        get_metrics().histogram(
            "repro_shard_request_seconds",
            "end-to-end request latency at the shard router by route",
        ).observe(latency_s, route=stats.route)
        if self.slo is not None:
            self.slo.record(
                stats.tenant, latency_s, stats.deadline_expired, now=self._clock()
            )

    def _finish_span(self, entry, route, poisoned=False, error=False) -> None:
        if entry.span is None:
            return
        entry.span.set_attr("route", route)
        if poisoned:
            entry.span.set_attr("poisoned", True)
        if error:
            entry.span.set_attr("error", True)
        get_tracer().end_span(entry.span)

    # -- worker replies --------------------------------------------------------

    def _reader_loop(self, link: _Link) -> None:
        while True:
            try:
                msg = wire.recv_msg(link.conn)
            except (wire.WireClosedError, OSError):
                break
            if msg is None:  # pragma: no cover - no poll configured
                continue
            header, arrays = msg
            mtype = header.get("type")
            if mtype == "result":
                self._on_result(header, arrays)
            elif mtype == "error":
                self._on_error(header)
            elif mtype in ("heartbeat", "bye"):
                self._ingest_spans(header.get("spans") or [])
                self.fleet.ingest(
                    header.get("metrics"),
                    int(header.get("shard", -1)),
                    int(header.get("incarnation", 0)),
                )
                self._note_reorder_runs(header)
                if self.on_control is not None:
                    self.on_control(header)
        # EOF: if the supervisor has not already detached us, this *is*
        # the crash signal (clean drains see a bye first, but the link
        # still dies the same way afterwards).
        with self._lock:
            self._link_down_locked(link, redispatch=True)

    def _note_reorder_runs(self, header: dict) -> None:
        if "reorder_runs" not in header:
            return
        key = (int(header.get("shard", -1)), int(header.get("incarnation", 0)))
        with self._lock:
            prev = self.worker_reorder_runs.get(key, 0)
            self.worker_reorder_runs[key] = max(prev, int(header["reorder_runs"]))

    def _ingest_spans(self, records: list[dict]) -> None:
        tracer = get_tracer()
        if not tracer.enabled or not records:
            return
        for rec in records:
            try:
                tracer.buffer.add(Span.from_dict(rec))
            except (KeyError, TypeError):
                continue

    def _on_result(self, header: dict, arrays: dict) -> None:
        self._note_reorder_runs(header)
        with self._lock:
            entry = self._inflight.pop(header["rid"], None)
        if entry is None or entry.future.done():
            # Late duplicate (e.g. answered by a sibling after a
            # spurious redelivery); first answer wins.
            return
        stats = RequestStats(
            request_id=entry.rid,
            matrix=entry.request.matrix,
            route=header["route"],
            batch_size=int(header.get("batch_size", 1)),
            queue_wait_s=float(header.get("queue_wait_s", 0.0)),
            kernel_us=float(header.get("kernel_us", 0.0)),
            batch_kernel_us=float(header.get("batch_kernel_us", 0.0)),
            registry=header.get("registry", "hit"),
            deadline_expired=bool(header.get("deadline_expired", False)),
            tenant=header.get("tenant", "default"),
        )
        with self._lock:
            self._request_stats.append(stats)
        self._record_served(stats, self._clock() - entry.submit_t)
        self._finish_span(entry, route=stats.route)
        try:
            entry.future.set_result(ServeResult(c=arrays["c"], stats=stats))
        except InvalidStateError:
            pass

    def _on_error(self, header: dict) -> None:
        self._note_reorder_runs(header)
        with self._lock:
            entry = self._inflight.pop(header["rid"], None)
            self.worker_errors += 1
        if entry is None or entry.future.done():
            return
        self._finish_span(entry, route="dense", error=True)
        exc = ShardWorkerError(
            f"shard {header.get('shard')} failed request {header['rid']}: "
            f"{header.get('error_type')}: {header.get('message')}"
        )
        try:
            entry.future.set_exception(exc)
        except InvalidStateError:
            pass

    # -- control / stats -------------------------------------------------------

    def send_control(self, shard: int, header: dict) -> bool:
        """Send one control frame (e.g. ``drain``) to a shard; False if down."""
        with self._lock:
            link = self._links.get(shard)
            if link is None or not link.alive:
                return False
            try:
                wire.send_msg(link.conn, header)
                return True
            except OSError:
                self.send_failures += 1
                self._link_down_locked(link, redispatch=True)
                return False

    @property
    def inflight(self) -> int:
        with self._lock:
            return len(self._inflight)

    @property
    def poisoned_matrices(self) -> set[str]:
        with self._lock:
            return set(self._poisoned)

    def request_stats(self) -> list[RequestStats]:
        with self._lock:
            return list(self._request_stats)

    def stats(self) -> ServeStats:
        """Router-side aggregate (request-level; batches live per worker)."""
        with self._lock:
            requests = list(self._request_stats)
        reorder = sum(self.worker_reorder_runs.values())
        return ServeStats.collect(
            requests,
            [],
            reorder_runs=reorder,
            throttled=self.admission.throttled if self.admission else 0,
            throttled_by_tenant=(
                self.admission.throttled_by_tenant() if self.admission else {}
            ),
        )

    def close(self) -> None:
        """Close every link and fail anything still in flight."""
        readers = []
        with self._lock:
            if self._closed:
                return
            self._closed = True
            for link in list(self._links.values()):
                if link.reader is not None:
                    readers.append(link.reader)
                self._link_down_locked(link, redispatch=False)
            leftovers = list(self._inflight.values())
            self._inflight.clear()
        for entry in leftovers:
            self._finish_span(entry, route="dense", error=True)
            if not entry.future.done():
                try:
                    entry.future.set_exception(
                        ExecutorClosedError("router closed with request in flight")
                    )
                except InvalidStateError:
                    pass
        for reader in readers:
            reader.join(timeout=5.0)
        self._dense_pool.shutdown(wait=True)
