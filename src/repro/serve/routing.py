"""Route chain: which kernel serves a live batch, and what happens on failure.

Mixed into :class:`~repro.serve.executor.BatchExecutor`.  A live batch
walks the executor's route chain (default :data:`FALLBACK_CHAIN`) until
one route serves it:

* ``jigsaw`` — the batched v0..v4 route (:meth:`JigsawPlan.run`): the
  tile kernels' memoized simulated profile (v4 autotunes BLOCK_TILE),
  with C computed from the chosen format's compiled arrays;
* ``compiled`` — the whole-plan compiled route
  (:mod:`repro.core.compiled`): the same flat index arrays + one
  batched matmul on the BLOCK_TILE=64 format, with the compiled
  schedule's simulated profile.  Both routes do the same host work, so
  they differ only in their simulated profile (and, under v4, in which
  BLOCK_TILE's format computes C).  ``compiled`` sits *after*
  ``jigsaw`` in the static chain, so an executor without a cost model
  keeps the historical default; a :class:`~repro.sched.CostModel`
  discovers it empirically (its simulated us/col is lower) and reorders
  it first;
* ``jigsaw@vnm`` — the format-qualified V:N:M route
  (:mod:`repro.core.vnm`), available only when the plan's matrix
  satisfies a V:N:M spec (:meth:`JigsawPlan.vnm_plan` is non-None).
  It does **not** require a successful reorder — V:N:M storage encodes
  its own column structure — so it also serves reorder-failed matrices
  that would otherwise drop to ``hybrid``.  Like ``compiled``, the
  static chain keeps it after the historical defaults and the cost
  model promotes it empirically, never by pinning;
* ``hybrid`` — the Section-4.7 hybrid-granularity kernel, serving
  matrices whose reorder failed (``reorder_success == False``) or whose
  faster-route breakers are open;
* ``dense`` — the terminal cuBLAS-style fallback, run per request so a
  poisoned request's failure never fails its batch-mates.

Breaker-denied routes are skipped; a failed batched route counts a
breaker failure and falls to the next.  Both ``jigsaw`` and ``compiled``
require a successful reorder — a reorder-failed plan skips straight to
``jigsaw@vnm`` (if the format applies) or ``hybrid``.
"""

from __future__ import annotations

from concurrent.futures import InvalidStateError
from typing import Callable

import numpy as np

from repro.baselines.cublas import cublas_hgemm
from repro.core.kernels import JigsawRunResult, build_hybrid_plan, run_hybrid_kernel
from repro.core.kernels.hybrid import HybridPlan
from repro.faults import call_with_retry, maybe_inject
from repro.obs import get_metrics

from .errors import MixedDtypeError
from .forming import _Entry, ServeResult
from .stats import BatchStats, RequestStats

#: Fallback order: a failed (or breaker-opened) route falls to the next.
FALLBACK_CHAIN: tuple[str, ...] = ("jigsaw", "compiled", "jigsaw@vnm", "hybrid", "dense")

#: One batched launch per route: ``(executor, plan, name, version, B)`` ->
#: :class:`~repro.core.kernels.JigsawRunResult`.  ``dense`` is absent: it
#: runs per request, so a poisoned panel fails only its own future.
_LAUNCH: dict[str, Callable[..., JigsawRunResult]] = {
    "jigsaw": lambda ex, plan, name, version, b: plan.run(
        b, version=version, device=ex.device
    ),
    "compiled": lambda ex, plan, name, version, b: plan.run_compiled(
        b, device=ex.device
    ),
    "jigsaw@vnm": lambda ex, plan, name, version, b: plan.run_vnm(
        b, device=ex.device
    ),
    "hybrid": lambda ex, plan, name, version, b: run_hybrid_kernel(
        ex._hybrid_plan_for(name), b, ex.device
    ),
}

#: Routes that require a successful multi-granularity reorder.
#: ``jigsaw@vnm`` is deliberately absent: V:N:M storage carries its own
#: column structure, so the route serves reorder-failed plans too.
REORDER_ROUTES: tuple[str, ...] = ("jigsaw", "compiled")

#: Routes that only apply when the plan's matrix satisfies a V:N:M spec.
FORMAT_ROUTES: tuple[str, ...] = ("jigsaw@vnm",)


class _RoutingMixin:
    """Route-chain half of the executor (state lives on the executor)."""

    def _serve_live(self, name: str, version: str, live: list[_Entry]) -> None:
        """Walk the route chain for one live batch until everyone is served.

        Breaker-denied routes are skipped; a failed batched route counts
        a breaker failure and falls to the next; the terminal dense route
        runs per request, isolating a poisoned request's failure to its
        own future."""
        was_resident = self.registry.resident(name)
        plan = None
        try:
            plan = call_with_retry(
                lambda: self.registry.get(name),
                self.retry_policy,
                key=f"{name}:registry",
                sleep=self._sleep,
                on_retry=self._count_retry,
            )
            routes = (
                list(self.chain)
                if plan.reorder_success
                else [r for r in self.chain if r not in REORDER_ROUTES]
            )
            # Format-qualified routes only apply when the matrix actually
            # satisfies the format; vnm_plan() detects (and caches) once.
            if any(r in FORMAT_ROUTES for r in routes) and plan.vnm_plan() is None:
                routes = [r for r in routes if r not in FORMAT_ROUTES]
        except Exception:
            # Plan admission (or the reorder itself) is broken: the dense
            # route needs only the raw matrix, so serve instead of erroring.
            routes = ["dense"]
        # Plan admission may have consumed the rest of a member's deadline
        # budget (a cold plan can reorder for longer than any SLO): recheck
        # total elapsed time (submit -> launch) so a request never rides
        # the fast path past its deadline.
        live = self._shed_expired_at_launch(live)
        if not live:
            return
        total_cols = sum(e.request.b.shape[1] for e in live)
        if total_cols == 0:
            self._resolve_all_empty(name, live, routes[0])
            return
        if self.scheduler is not None and len(routes) > 1:
            routes = self.scheduler.plan_routes(name, routes, total_cols)
        for route in routes:
            if route == "dense":
                for e in live:
                    self._run_dense(e, batch_size=len(live), expired=False)
                return
            breaker = self.breakers.get(name, route)
            if not breaker.allow():
                self._note_hop(live, route, "breaker_open")
                continue
            try:
                self._run_batched(route, plan, name, version, live, was_resident)
            except Exception as exc:
                breaker.record_failure()
                self._note_hop(live, route, "failed", error=type(exc).__name__)
                continue
            breaker.record_success()
            return
        raise AssertionError("route chain must terminate at dense")  # pragma: no cover

    def _run_batched(
        self,
        route: str,
        plan,
        name: str,
        version: str,
        live: list[_Entry],
        was_resident: bool,
    ) -> None:
        """One batched launch on ``route`` with transient-fault retry."""
        site = f"executor.kernel.{route}"

        def attempt() -> None:
            maybe_inject(site, self.fault_plan)
            self._run_route(route, plan, name, version, live, was_resident)

        def on_retry(attempt_no: int, exc: BaseException) -> None:
            self._count_retry(attempt_no, exc)
            self._note_retry(live, route, attempt_no, exc)

        # Deadline-aware backoff: a retry sleep that would overshoot the
        # batch's tightest deadline is skipped (the exception propagates
        # and the chain falls through) so the remaining slack is spent on
        # the next route, not in bed.  The terminal dense route keeps
        # unbounded retries — it is the isolation path of last resort and
        # must still serve already-late requests.
        deadlines = [e.deadline_t for e in live if e.deadline_t is not None]
        call_with_retry(
            attempt,
            self.retry_policy,
            key=f"{name}:{route}",
            sleep=self._sleep,
            on_retry=on_retry,
            deadline_t=min(deadlines) if deadlines else None,
            clock=self._clock,
        )

    @staticmethod
    def _concat_panels(live: list[_Entry]) -> tuple[list[int], np.ndarray]:
        """Concatenate the batch's B-panels **in their own dtype**.

        This used to force every panel to fp16, silently destroying the
        precision of fp32 submissions (a 1e-4-scale fp32 value rounds to
        0.0 in fp16).  Grouping now keys on dtype at forming time, so a
        live batch is dtype-uniform by construction; the check here is
        defense in depth — a mixed batch (a forming bug, or a caller
        bypassing ``submit``) raises a typed :class:`MixedDtypeError`
        instead of quietly downcasting everyone to the narrowest type.
        """
        widths = [e.request.b.shape[1] for e in live]
        dtypes = {np.asarray(e.request.b).dtype for e in live}
        if len(dtypes) > 1:
            raise MixedDtypeError(
                f"batch mixes B-panel dtypes {sorted(d.name for d in dtypes)}; "
                f"groups must be dtype-uniform"
            )
        b_cat = np.concatenate(
            [np.ascontiguousarray(e.request.b) for e in live], axis=1
        )
        return widths, b_cat

    def _run_route(
        self,
        route: str,
        plan,
        name: str,
        version: str,
        live: list[_Entry],
        was_resident: bool,
    ) -> None:
        """Concatenate the panels, launch once through :data:`_LAUNCH`, and
        split C back per request."""
        widths, b_cat = self._concat_panels(live)
        k0 = self._clock()
        res = _LAUNCH[route](self, plan, name, version, b_cat)
        k1 = self._clock()
        assert res.c is not None
        us = res.profile.duration_us
        self._record_batch(name, version, route, live, us)
        self._split(live, res.c, widths, route, us, was_resident, k0, k1)

    def _run_dense(self, e: _Entry, batch_size: int, expired: bool) -> None:
        try:
            if e.future.cancelled() or e.future.done():
                return
            a = self.registry.matrix(e.request.matrix)
            # Keep the request's own dtype: the forced-fp16 cast that used
            # to live here silently destroyed fp32 panel precision (the
            # kernel reference math runs in fp32 either way).
            b = np.ascontiguousarray(e.request.b)
            if b.shape[1] == 0:
                self._resolve_empty(e, "dense", batch_size, expired=expired)
                return

            def attempt():
                maybe_inject("executor.kernel.dense", self.fault_plan)
                return cublas_hgemm(a, b, self.device)

            def on_retry(attempt_no: int, exc: BaseException) -> None:
                self._count_retry(attempt_no, exc)
                self._note_retry([e], "dense", attempt_no, exc)

            k0 = self._clock()
            res = call_with_retry(
                attempt,
                self.retry_policy,
                key=f"{e.request.matrix}:dense:{e.request_id}",
                sleep=self._sleep,
                on_retry=on_retry,
            )
            k1 = self._clock()
            assert res.c is not None
            if self.scheduler is not None:
                # b.shape[1] > 0 here (the zero-width panel resolved
                # above without a kernel), so the cost model's us/col
                # normalization always divides by this batch's own
                # non-zero column count.
                self.scheduler.observe(
                    e.request.matrix, "dense", res.profile.duration_us, b.shape[1]
                )
            stats = RequestStats(
                request_id=e.request_id,
                matrix=e.request.matrix,
                route="dense",
                batch_size=batch_size,
                queue_wait_s=e.queue_wait_s,
                kernel_us=res.profile.duration_us,
                batch_kernel_us=res.profile.duration_us,
                registry="hit" if self.registry.resident(e.request.matrix) else "miss",
                deadline_expired=expired,
                tenant=e.request.tenant,
            )
            self._trace_kernel(e, "dense", k0, k1, stats)
            self._record_batch_raw(
                BatchStats(
                    matrix=e.request.matrix,
                    version=e.request.version,
                    route="dense",
                    size=1,
                    kernel_us=res.profile.duration_us,
                    weight=e.weight,
                )
            )
            self._record_request(stats)
            self._resolve(e, ServeResult(c=res.c, stats=stats))
        except BaseException as exc:
            self._fail(e, exc)

    def _split(
        self,
        live: list[_Entry],
        c_cat: np.ndarray,
        widths: list[int],
        route: str,
        batch_us: float,
        was_resident: bool,
        kernel_start_s: float,
        kernel_end_s: float,
    ) -> None:
        total = sum(widths)
        col = 0
        for e, w in zip(live, widths):
            stats = RequestStats(
                request_id=e.request_id,
                matrix=e.request.matrix,
                route=route,
                batch_size=len(live),
                queue_wait_s=e.queue_wait_s,
                kernel_us=batch_us * (w / total if total else 0.0),
                batch_kernel_us=batch_us,
                registry="hit" if was_resident else "miss",
                tenant=e.request.tenant,
            )
            self._trace_kernel(e, route, kernel_start_s, kernel_end_s, stats)
            self._record_request(stats)
            self._resolve(
                e, ServeResult(c=np.ascontiguousarray(c_cat[:, col : col + w]), stats=stats)
            )
            col += w

    def _resolve_all_empty(self, name: str, live: list[_Entry], route: str) -> None:
        """Serve a batch whose every panel is zero-width: no kernel runs."""
        for e in live:
            self._resolve_empty(e, route, batch_size=len(live), expired=False)

    def _resolve_empty(
        self, e: _Entry, route: str, batch_size: int, expired: bool
    ) -> None:
        m = self.registry.matrix(e.request.matrix).shape[0]
        stats = RequestStats(
            request_id=e.request_id,
            matrix=e.request.matrix,
            route=route,
            batch_size=batch_size,
            queue_wait_s=e.queue_wait_s,
            registry="hit" if self.registry.resident(e.request.matrix) else "miss",
            deadline_expired=expired,
            tenant=e.request.tenant,
        )
        self._record_request(stats)
        # fp32 to match every kernel path: jigsaw/compiled/vnm/dense all
        # accumulate and return C in fp32 (this used to return fp16 zeros,
        # so a zero-width request got a different dtype than its siblings).
        self._resolve(e, ServeResult(c=np.zeros((m, 0), dtype=np.float32), stats=stats))

    def _hybrid_plan_for(self, name: str) -> HybridPlan:
        with self._hybrid_lock:
            hplan = self._hybrid_plans.get(name)
            if hplan is None:
                hplan = build_hybrid_plan(self.registry.matrix(name))
                self._hybrid_plans[name] = hplan
            return hplan

    # -- future resolution -----------------------------------------------------

    @staticmethod
    def _resolve(e: _Entry, result: ServeResult) -> None:
        try:
            e.future.set_result(result)
        except InvalidStateError:
            pass  # cancelled (or already failed) while executing

    @staticmethod
    def _fail(e: _Entry, exc: BaseException) -> None:
        if e.future.done():
            return
        try:
            e.future.set_exception(exc)
        except InvalidStateError:
            pass

    # -- observability ---------------------------------------------------------

    def _record_request(self, stats: RequestStats) -> None:
        with self._stats_lock:
            self._request_stats.append(stats)
        metrics = get_metrics()
        metrics.counter(
            "repro_requests_total", "requests served by route"
        ).inc(route=stats.route)
        metrics.counter(
            "repro_kernel_us_total", "simulated kernel microseconds attributed by route"
        ).inc(stats.kernel_us, route=stats.route)
        metrics.histogram(
            "repro_kernel_seconds", "per-request attributed kernel latency by route"
        ).observe(stats.kernel_us / 1e6, route=stats.route)
        if stats.deadline_expired:
            metrics.counter(
                "repro_deadline_missed_total", "requests that missed their deadline"
            ).inc(route=stats.route)

    def _record_batch(
        self, name: str, version: str, route: str, live: list[_Entry], us: float
    ) -> None:
        if self.scheduler is not None:
            self.scheduler.observe(
                name, route, us, sum(e.request.b.shape[1] for e in live)
            )
        self._record_batch_raw(
            BatchStats(
                matrix=name,
                version=version,
                route=route,
                size=len(live),
                kernel_us=us,
                weight=min(e.weight for e in live),
            )
        )

    def _record_batch_raw(self, stats: BatchStats) -> None:
        with self._stats_lock:
            self._batch_stats.append(stats)
        get_metrics().histogram(
            "repro_batch_size",
            "requests per simulated launch",
            buckets=(1, 2, 4, 8, 16, 32, 64),
        ).observe(stats.size)
