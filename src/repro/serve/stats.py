"""Observability records for the serving engine.

Every request the :class:`~repro.serve.executor.BatchExecutor` completes
emits one :class:`RequestStats` (queue wait, batch size, simulated
kernel time, the route taken, and whether the plan was resident in the
registry); :class:`ServeStats` aggregates them together with the
:class:`~repro.serve.registry.PlanRegistry` counters into one record.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: Execution routes a request can take (see docs/serving.md and
#: docs/formats.md): the batched Jigsaw kernel, the compiled whole-plan
#: route (:mod:`repro.core.compiled`), the format-qualified V:N:M route
#: (:mod:`repro.core.vnm`), the Section-4.7 hybrid kernel (reorder
#: failed), or the dense cuBLAS-style fallback (deadline expired).
ROUTES: tuple[str, ...] = ("jigsaw", "compiled", "jigsaw@vnm", "hybrid", "dense")

#: Registry-residency outcomes a request can observe at lookup time.
REGISTRY_OUTCOMES: tuple[str, ...] = ("hit", "miss")


@dataclass
class RequestStats:
    """What happened to one SpMM request."""

    request_id: int
    matrix: str
    route: str
    batch_size: int = 1
    #: Seconds spent queued before its batch started executing.
    queue_wait_s: float = 0.0
    #: Simulated kernel time attributed to this request (its share of
    #: the batch launch, proportional to its B-panel width).
    kernel_us: float = 0.0
    #: Simulated kernel time of the whole launch that served it.
    batch_kernel_us: float = 0.0
    #: Whether the plan was resident in the registry at lookup time.
    registry: str = "hit"
    deadline_expired: bool = False
    #: Owning tenant (see :mod:`repro.sched.tenancy`).
    tenant: str = "default"

    def __post_init__(self) -> None:
        if self.route not in ROUTES:
            raise ValueError(f"unknown route {self.route!r}; choose from {ROUTES}")
        if self.registry not in REGISTRY_OUTCOMES:
            raise ValueError(
                f"unknown registry outcome {self.registry!r}; "
                f"choose from {REGISTRY_OUTCOMES}"
            )


@dataclass
class BatchStats:
    """One executed batch (a single simulated launch)."""

    matrix: str
    version: str
    route: str
    size: int
    kernel_us: float
    #: Priority weight of the batch's most-urgent member (lower = more
    #: urgent; see :data:`repro.sched.PRIORITY_WEIGHTS`).
    weight: int = 1


@dataclass
class RegistryStats:
    """Traffic counters of one :class:`~repro.serve.registry.PlanRegistry`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0


@dataclass
class ServeStats:
    """Aggregated serving activity: requests + batches + registry."""

    requests: int = 0
    batches: int = 0
    route_counts: dict[str, int] = field(
        default_factory=lambda: {r: 0 for r in ROUTES}
    )
    #: Per-route totals of the kernel time *attributed* to requests
    #: (each request's width-proportional share of its batch launch).
    route_kernel_us: dict[str, float] = field(
        default_factory=lambda: {r: 0.0 for r in ROUTES}
    )
    #: Request-level registry residency observed at lookup time (distinct
    #: from the registry's own hit/miss counters: one batched lookup can
    #: serve many requests).
    request_registry_hits: int = 0
    request_registry_misses: int = 0
    deadline_expired: int = 0
    queue_wait_total_s: float = 0.0
    queue_wait_max_s: float = 0.0
    #: Sum over batches of each launch's simulated duration — what the
    #: device actually spent, with batching amortization applied.
    batch_kernel_us_total: float = 0.0
    max_batch_size: int = 0
    registry_hits: int = 0
    registry_misses: int = 0
    registry_evictions: int = 0
    reorder_runs: int = 0
    #: Kernel retry attempts absorbed by the backoff policy.
    retries: int = 0
    #: Requests shed by admission control (pending queue full).
    rejected: int = 0
    #: High-water mark of the pending queue.
    pending_peak: int = 0
    #: Corrupt plan artifacts quarantined and rebuilt.
    quarantined: int = 0
    #: Quarantined artifacts evicted (oldest first) by the quarantine
    #: directory's byte/count budget.
    quarantine_evicted: int = 0
    #: Failed artifact persists (the build still served from memory).
    store_failures: int = 0
    #: Circuit-breaker trips (closed/half-open -> open transitions).
    breaker_trips: int = 0
    #: Current breaker states, keyed ``"matrix/route"``.
    breaker_states: dict[str, str] = field(default_factory=dict)
    #: Requests shed by per-tenant rate limits (scheduler admission).
    throttled: int = 0
    #: Throttle verdicts per tenant.
    throttled_by_tenant: dict[str, int] = field(default_factory=dict)
    #: Requests dispatched ahead of the linger window to meet deadlines.
    promoted: int = 0
    #: Served requests per tenant.
    tenant_counts: dict[str, int] = field(default_factory=dict)

    @property
    def avg_batch_size(self) -> float:
        return self.requests / self.batches if self.batches else 0.0

    @property
    def avg_queue_wait_s(self) -> float:
        return self.queue_wait_total_s / self.requests if self.requests else 0.0

    @property
    def breaker_open(self) -> int:
        return sum(1 for s in self.breaker_states.values() if s == "open")

    @property
    def breaker_half_open(self) -> int:
        return sum(1 for s in self.breaker_states.values() if s == "half_open")

    @classmethod
    def collect(
        cls,
        request_stats: list[RequestStats],
        batch_stats: list[BatchStats],
        registry_stats: RegistryStats | None = None,
        reorder_runs: int = 0,
        retries: int = 0,
        rejected: int = 0,
        pending_peak: int = 0,
        quarantined: int = 0,
        quarantine_evicted: int = 0,
        store_failures: int = 0,
        breaker_trips: int = 0,
        breaker_states: dict[str, str] | None = None,
        throttled: int = 0,
        throttled_by_tenant: dict[str, int] | None = None,
        promoted: int = 0,
    ) -> "ServeStats":
        out = cls(
            reorder_runs=reorder_runs,
            retries=retries,
            rejected=rejected,
            pending_peak=pending_peak,
            quarantined=quarantined,
            quarantine_evicted=quarantine_evicted,
            store_failures=store_failures,
            breaker_trips=breaker_trips,
            breaker_states=dict(breaker_states or {}),
            throttled=throttled,
            throttled_by_tenant=dict(throttled_by_tenant or {}),
            promoted=promoted,
        )
        for r in request_stats:
            out.requests += 1
            out.route_counts[r.route] += 1
            out.tenant_counts[r.tenant] = out.tenant_counts.get(r.tenant, 0) + 1
            out.route_kernel_us[r.route] += r.kernel_us
            if r.registry == "hit":
                out.request_registry_hits += 1
            else:
                out.request_registry_misses += 1
            out.deadline_expired += int(r.deadline_expired)
            out.queue_wait_total_s += r.queue_wait_s
            out.queue_wait_max_s = max(out.queue_wait_max_s, r.queue_wait_s)
            out.max_batch_size = max(out.max_batch_size, r.batch_size)
        out.batches = len(batch_stats)
        out.batch_kernel_us_total = sum(b.kernel_us for b in batch_stats)
        if registry_stats is not None:
            out.registry_hits = registry_stats.hits
            out.registry_misses = registry_stats.misses
            out.registry_evictions = registry_stats.evictions
        return out
