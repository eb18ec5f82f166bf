"""Worker lifecycle supervision: spawn, watch, respawn, drain.

The :class:`Supervisor` owns the process-level half of the shard tier
(:mod:`repro.shard.router` owns requests):

* binds a loopback listener and spawns N worker processes (``spawn``
  context — ``fork`` is unsafe under the router's threads) that connect
  back and identify themselves with a ``hello`` frame;
* watches each worker two ways: the OS exit code (a hard crash is
  visible immediately) and the heartbeat feed relayed by the router
  (a worker that stops beating for ``heartbeat_timeout_s`` is hung —
  a *slow batch* keeps beating, because heartbeats run on their own
  thread, so slowness is never mistaken for death);
* on a crash: detaches the link (the router redelivers the in-flight
  requests), then respawns the shard with the next incarnation number.
  Respawned workers warm from the shared on-disk plan cache, so
  recovery does **zero reorder work**;
* on ``stop()``: joins the monitor thread first, so the process
  handles have one owner from then on, then drains every worker
  (``drain`` frame → flush → cost model checkpoint → ``bye``), joins
  with a timeout, and hard-kills stragglers.  No respawns happen while
  stopping.
"""

from __future__ import annotations

import json
import multiprocessing as mp
import os
import socket
import threading
import time
from pathlib import Path

from repro.gpu.device import A100, DeviceSpec
from repro.obs import (
    FLEET_STATUS_SCHEMA,
    SloTracker,
    counter_by,
    counter_total,
    get_tracer,
    histogram_percentiles,
)
from repro.sched import AdmissionController

from . import wire
from .router import ShardRouter
from .worker import worker_main


def _prune_crash_orphan_spans() -> int:
    """Drop worker-shipped spans whose parent span never arrived.

    Workers ship span batches home on heartbeats and ``bye``; a
    kill-site death loses whatever had not been heartbeated yet.  A
    child that shipped before its (still-open) parent was lost can
    never link, so the trace export would fail parent resolution.
    Telemetry loss is inherent to a crash — prune the unlinkable spans
    (worker-prefixed ids only; router-local spans always resolve, and a
    failure there is a bug worth surfacing) and report how many.
    """
    tracer = get_tracer()
    if not tracer.enabled:
        return 0
    spans = tracer.buffer.drain()
    pruned = 0
    while True:
        ids = {(s.trace_id, s.span_id) for s in spans}
        keep = [
            s
            for s in spans
            if s.parent_id is None
            or "." not in s.span_id  # router-local: never pruned
            or (s.trace_id, s.parent_id) in ids
        ]
        if len(keep) == len(spans):
            break
        # Removing a span can orphan its own children: iterate to fixpoint.
        pruned += len(spans) - len(keep)
        spans = keep
    for s in spans:
        tracer.buffer.add(s)
    return pruned


class _WorkerState:
    """Supervisor-side record of one shard's current incarnation."""

    def __init__(self, proc: mp.process.BaseProcess, incarnation: int) -> None:
        self.proc = proc
        self.incarnation = incarnation
        self.attached = False
        #: Last heartbeat (supervisor clock); meaningful once attached.
        self.last_beat = time.monotonic()
        self.saw_bye = False


class Supervisor:
    """Spawns, monitors, and respawns the shard worker fleet."""

    def __init__(
        self,
        workers: int,
        cache_dir: str | Path,
        admission: AdmissionController | None = None,
        max_redeliveries: int = 3,
        heartbeat_interval_s: float = 0.05,
        heartbeat_timeout_s: float = 0.5,
        monitor_interval_s: float = 0.02,
        fault_seed: int = 0,
        fault_sites: list[dict] | None = None,
        traced: bool = False,
        respawn: bool = True,
        max_batch: int = 8,
        batch_window_s: float = 0.002,
        pool_workers: int = 2,
        slow_batch_s: float = 0.0,
        block_tiles: tuple[int, ...] = (64,),
        registry_budget_bytes: int | None = None,
        explore_every: int | None = None,
        drain_timeout_s: float = 10.0,
        device: DeviceSpec = A100,
        slo: SloTracker | None = None,
        status_path: str | Path | None = None,
        status_interval_s: float | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        self.num_workers = workers
        self.cache_dir = str(cache_dir)
        self.admission = admission
        self.max_redeliveries = max_redeliveries
        self.heartbeat_interval_s = heartbeat_interval_s
        self.heartbeat_timeout_s = heartbeat_timeout_s
        self.monitor_interval_s = monitor_interval_s
        self.fault_seed = fault_seed
        self.fault_sites = list(fault_sites or [])
        self.traced = traced
        self.respawn = respawn
        self.worker_cfg = {
            "max_batch": max_batch,
            "batch_window_s": batch_window_s,
            "pool_workers": pool_workers,
            "slow_batch_s": slow_batch_s,
            "block_tiles": list(block_tiles),
            "registry_budget_bytes": registry_budget_bytes,
            "explore_every": explore_every,
        }
        self.drain_timeout_s = drain_timeout_s
        self.device = device
        self.slo = slo
        self.status_path = Path(status_path) if status_path is not None else None
        #: How often the monitor refreshes the status file (``repro
        #: top``'s poll target); defaults to the heartbeat cadence.
        self.status_interval_s = (
            heartbeat_interval_s if status_interval_s is None else status_interval_s
        )
        self._last_status_write = 0.0
        self.router: ShardRouter | None = None
        self.port: int | None = None
        self.crashes = 0
        self.respawns = 0
        #: Unlinkable spans dropped at stop() — telemetry lost to kills.
        self.spans_pruned = 0
        self._ctx = mp.get_context("spawn")
        self._workers: dict[int, _WorkerState] = {}
        self._lock = threading.Lock()
        self._stopping = threading.Event()
        self._stopped = threading.Event()
        self._listener: socket.socket | None = None
        self._acceptor: threading.Thread | None = None
        self._monitor: threading.Thread | None = None

    # -- lifecycle -------------------------------------------------------------

    def start(self) -> "Supervisor":
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        listener.bind(("127.0.0.1", 0))
        listener.listen(self.num_workers * 2)
        listener.settimeout(0.1)
        self._listener = listener
        self.port = listener.getsockname()[1]
        self.router = ShardRouter(
            num_shards=self.num_workers,
            admission=self.admission,
            max_redeliveries=self.max_redeliveries,
            device=self.device,
            on_control=self._on_control,
            slo=self.slo,
        )
        self._acceptor = threading.Thread(
            target=self._accept_loop, name="shard-acceptor", daemon=True
        )
        self._acceptor.start()
        for shard in range(self.num_workers):
            self._spawn(shard, incarnation=0)
        self._monitor = threading.Thread(
            target=self._monitor_loop, name="shard-monitor", daemon=True
        )
        self._monitor.start()
        return self

    def __enter__(self) -> "Supervisor":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def wait_ready(self, timeout: float = 30.0) -> None:
        """Block until every shard's link is attached (hello received)."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            assert self.router is not None
            if len(self.router.live_shards()) == self.num_workers:
                return
            time.sleep(0.01)
        raise TimeoutError(
            f"only {self.router.live_shards()} of {self.num_workers} "
            f"shards attached within {timeout}s"
        )

    def _worker_config(self, shard: int, incarnation: int) -> dict:
        cfg = {
            "shard": shard,
            "incarnation": incarnation,
            "port": self.port,
            "cache_dir": self.cache_dir,
            "heartbeat_interval_s": self.heartbeat_interval_s,
            "fault_seed": self.fault_seed,
            "fault_sites": self.fault_sites,
            "traced": self.traced,
        }
        cfg.update(self.worker_cfg)
        return cfg

    def _spawn(self, shard: int, incarnation: int) -> None:
        proc = self._ctx.Process(
            target=worker_main,
            args=(self._worker_config(shard, incarnation),),
            name=f"repro-shard{shard}i{incarnation}",
            daemon=True,
        )
        proc.start()
        with self._lock:
            self._workers[shard] = _WorkerState(proc, incarnation)

    # -- control feed (called from router reader threads) ----------------------

    def _on_control(self, header: dict) -> None:
        shard = header.get("shard")
        with self._lock:
            st = self._workers.get(shard)
            if st is None or header.get("incarnation") != st.incarnation:
                return  # stale incarnation still flushing its pipe
            if header.get("type") == "heartbeat":
                st.last_beat = time.monotonic()
            elif header.get("type") == "bye":
                st.saw_bye = True

    def _note_attached(self, shard: int, incarnation: int) -> None:
        with self._lock:
            st = self._workers.get(shard)
            if st is not None and st.incarnation == incarnation:
                st.attached = True
                st.last_beat = time.monotonic()

    # -- accept + monitor loops ------------------------------------------------

    def _accept_loop(self) -> None:
        assert self._listener is not None
        while not self._stopped.is_set():
            try:
                conn, _ = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            try:
                conn.settimeout(10.0)
                msg = wire.recv_msg(conn)
                assert msg is not None
                hello, _ = msg
                if hello.get("type") != "hello":
                    raise wire.WireError(f"expected hello, got {hello.get('type')}")
                conn.settimeout(None)
            except Exception:
                conn.close()
                continue
            shard = int(hello["shard"])
            incarnation = int(hello["incarnation"])
            assert self.router is not None
            self.router.attach(shard, conn, incarnation)
            self._note_attached(shard, incarnation)

    def _monitor_loop(self) -> None:
        # Exits once stop() begins; stop() joins it before touching a handle.
        while not self._stopping.wait(self.monitor_interval_s):
            now = time.monotonic()
            if (
                self.status_path is not None
                and now - self._last_status_write >= self.status_interval_s
            ):
                self._last_status_write = now
                self._write_status()
            with self._lock:
                snapshot = list(self._workers.items())
            for shard, st in snapshot:
                exitcode = st.proc.exitcode
                if exitcode is not None:
                    self._handle_crash(shard, st, f"exit code {exitcode}")
                elif (
                    st.attached
                    and now - st.last_beat > self.heartbeat_timeout_s
                ):
                    # Hung (heartbeats come from a dedicated thread, so
                    # a slow batch never trips this): kill + respawn.
                    st.proc.kill()
                    st.proc.join(timeout=5.0)
                    self._handle_crash(shard, st, "missed heartbeats")

    def _handle_crash(self, shard: int, st: _WorkerState, reason: str) -> None:
        with self._lock:
            if self._workers.get(shard) is not st:
                return  # already handled (respawn raced the next tick)
            self.crashes += 1
        assert self.router is not None
        # The incarnation died between heartbeats: whatever accrued
        # since its last shipped delta (metrics *and* spans) is gone.
        self.router.fleet.note_crash(shard, st.incarnation)
        self.router.detach(shard)
        st.proc.join(timeout=5.0)
        st.proc.close()
        if self.respawn and not self._stopping.is_set():
            self._spawn(shard, incarnation=st.incarnation + 1)
            with self._lock:
                self.respawns += 1

    # -- fleet status ----------------------------------------------------------

    def fleet_status(self) -> dict:
        """One schema-stamped JSON document describing the whole tier.

        This is what ``repro top`` renders and ``repro fleet-status``
        prints: per-shard liveness + merged worker metrics (route mix,
        kernel percentiles), router counters, fleet-wide aggregates, and
        the SLO alert feed.  Worker-derived numbers come from the fleet
        registry, so they survive crashes and trail truth by at most one
        heartbeat.
        """
        assert self.router is not None
        router = self.router
        reg = router.fleet.registry
        now = time.monotonic()
        live = set(router.live_shards())
        with self._lock:
            workers = sorted(self._workers.items())
        shards = []
        for shard, st in workers:
            try:
                alive = st.proc.exitcode is None
            except ValueError:  # process object already closed
                alive = False
            where = {"shard": str(shard)}
            route_mix = counter_by(
                reg, "repro_requests_total", "route", where, require=("shard",)
            )
            shards.append(
                {
                    "shard": shard,
                    "incarnation": st.incarnation,
                    "alive": alive,
                    "attached": shard in live,
                    "beat_age_s": now - st.last_beat,
                    "requests_total": sum(route_mix.values()),
                    "route_mix": route_mix,
                    "kernel_seconds": histogram_percentiles(
                        reg, "repro_kernel_seconds", where, require=("shard",)
                    ),
                    "queue_wait_seconds": histogram_percentiles(
                        reg, "repro_queue_wait_seconds", where, require=("shard",)
                    ),
                    "breaker_transitions": counter_total(
                        reg,
                        "repro_breaker_transitions_total",
                        where,
                        require=("shard",),
                    ),
                }
            )
        fleet_route_mix = counter_by(
            reg, "repro_requests_total", "route", require=("shard",)
        )
        doc = {
            "schema": FLEET_STATUS_SCHEMA,
            "generated_at": time.time(),
            "workers": self.num_workers,
            "crashes": self.crashes,
            "respawns": self.respawns,
            "shards": shards,
            "router": {
                "inflight": router.inflight,
                "redeliveries": router.redeliveries,
                "poison_served": router.poison_served,
                "poisoned": sorted(router.poisoned_matrices),
                "worker_errors": router.worker_errors,
                "send_failures": router.send_failures,
                "requests_total": len(router.request_stats()),
                "request_seconds": histogram_percentiles(
                    reg, "repro_shard_request_seconds"
                ),
            },
            "fleet": {
                "requests_total": sum(fleet_route_mix.values()),
                "route_mix": fleet_route_mix,
                "kernel_seconds": histogram_percentiles(
                    reg, "repro_kernel_seconds", require=("shard",)
                ),
                "snapshots_ingested": router.fleet.snapshots_ingested,
                "ingest_errors": router.fleet.ingest_errors,
                "dropped_on_crash": router.fleet.dropped_on_crash,
            },
            "alerts": self.slo.to_status() if self.slo is not None else None,
        }
        return doc

    def _write_status(self) -> None:
        """Atomically refresh the status file (replace, never truncate)."""
        if self.status_path is None:
            return
        try:
            doc = self.fleet_status()
            tmp = self.status_path.with_name(self.status_path.name + ".tmp")
            tmp.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
            os.replace(tmp, self.status_path)
        except OSError:
            pass  # status is best-effort telemetry, never a crash source

    # -- shutdown --------------------------------------------------------------

    def stop(self) -> None:
        """Graceful drain: stop respawning, drain workers, close the tier."""
        if self._stopped.is_set():
            return
        self._stopping.set()
        # Join the monitor before touching any process: it may be mid-way
        # through a tick (reading exit codes, handling a crash, respawning),
        # and a handle closed under it raises "process object is closed".
        if self._monitor is not None:
            self._monitor.join(timeout=30.0)
        assert self.router is not None
        for shard in self.router.live_shards():
            self.router.send_control(shard, {"type": "drain"})
        deadline = time.monotonic() + self.drain_timeout_s
        with self._lock:
            procs = [(s, st) for s, st in self._workers.items()]
        for shard, st in procs:
            try:
                st.proc.join(timeout=max(0.0, deadline - time.monotonic()))
            except ValueError:  # already closed
                continue
            if st.proc.exitcode is None:
                st.proc.kill()
                st.proc.join(timeout=5.0)
            if st.proc.exitcode not in (0, None):
                # Died *during* drain (e.g. an injected kill on the drain
                # frame): counted, never respawned — the tier is closing.
                # Its bye (and final metrics delta) never arrived.
                with self._lock:
                    self.crashes += 1
                self.router.fleet.note_crash(shard, st.incarnation)
            st.proc.close()
        self._stopped.set()
        if self._listener is not None:
            self._listener.close()
        if self._acceptor is not None:
            self._acceptor.join(timeout=5.0)
        self.router.close()
        # All readers are joined: no more span batches can arrive.
        self.spans_pruned = _prune_crash_orphan_spans()
        # Final snapshot: bye-flushed deltas are folded in by now, so
        # this is the most complete fleet view the run will ever have.
        self._write_status()
