"""Multi-tenant admission: priority classes and token-bucket rate limits.

A *tenant* is whoever owns a stream of SpMM requests — a model, a
product surface, an internal batch job.  Each tenant carries a
:class:`TenantConfig`: a **priority class** deciding how its batches
rank against other tenants' when both are ready to dispatch, and an
optional **token-bucket rate limit** shedding its excess traffic at
submit time with a typed :class:`~repro.sched.errors.ThrottledError`
before it can queue behind (and starve) everyone else.

Priority classes, most to least urgent:

* ``interactive`` — user-facing traffic with deadlines; dispatched
  ahead of everything else that is ready.
* ``batch`` — throughput work; the default class.
* ``best_effort`` — scavenger traffic; runs when nothing above it is
  ready.

All time comes in through explicit ``now`` arguments, so the admission
layer lives in the executor's injectable clock domain and tests are
deterministic.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.obs import get_metrics

from .errors import ThrottledError

#: Priority classes, most-urgent first.
PRIORITY_CLASSES: tuple[str, ...] = ("interactive", "batch", "best_effort")

#: Dispatch weight per class: lower sorts (and dispatches) first.
PRIORITY_WEIGHTS: dict[str, int] = {c: i for i, c in enumerate(PRIORITY_CLASSES)}


@dataclass(frozen=True)
class TenantConfig:
    """One tenant's admission policy.

    ``rate_per_s=None`` disables rate limiting (the tenant is only
    subject to the executor's global ``max_pending`` bound); ``burst``
    is the bucket capacity — how many requests may arrive back-to-back
    before the rate applies.
    """

    name: str
    priority: str = "batch"
    rate_per_s: float | None = None
    burst: float = 1.0

    def __post_init__(self) -> None:
        if self.priority not in PRIORITY_CLASSES:
            raise ValueError(
                f"unknown priority {self.priority!r}; choose from {PRIORITY_CLASSES}"
            )
        if self.rate_per_s is not None and self.rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive (or None for unlimited)")
        if self.burst < 1:
            raise ValueError("burst must be >= 1 (a bucket must hold one request)")

    @property
    def weight(self) -> int:
        """Dispatch weight of this tenant's class (lower = more urgent)."""
        return PRIORITY_WEIGHTS[self.priority]


class TokenBucket:
    """Classic token bucket against an external clock.

    Refills continuously at ``rate_per_s`` up to ``burst`` tokens; each
    admitted request takes one token.  The caller supplies ``now`` (the
    executor's clock), so two buckets never disagree about time.
    """

    def __init__(self, rate_per_s: float, burst: float) -> None:
        if rate_per_s <= 0:
            raise ValueError("rate_per_s must be positive")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        self.rate_per_s = rate_per_s
        self.burst = float(burst)
        self._tokens = float(burst)
        self._last: float | None = None
        self._lock = threading.Lock()

    def _refill_locked(self, now: float) -> None:
        if self._last is None:
            self._last = now
            return
        if now > self._last:
            self._tokens = min(
                self.burst, self._tokens + (now - self._last) * self.rate_per_s
            )
        self._last = max(self._last, now)

    def try_acquire(self, now: float, n: float = 1.0) -> bool:
        """Take ``n`` tokens if available; never blocks."""
        with self._lock:
            self._refill_locked(now)
            if self._tokens >= n:
                self._tokens -= n
                return True
            return False

    def retry_after(self, now: float, n: float = 1.0) -> float:
        """Seconds until ``n`` tokens will have refilled (0 if ready now)."""
        with self._lock:
            self._refill_locked(now)
            if self._tokens >= n:
                return 0.0
            return (n - self._tokens) / self.rate_per_s

    @property
    def tokens(self) -> float:
        with self._lock:
            return self._tokens


class AdmissionController:
    """Per-tenant admission: rate limits + priority-class lookups.

    Unregistered tenants fall back to ``default`` (priority ``batch``,
    no rate limit), so single-tenant callers never have to configure
    anything.  Thread-safe; throttle verdicts are counted per tenant
    and folded into :class:`~repro.serve.stats.ServeStats`.
    """

    def __init__(self, default: TenantConfig | None = None) -> None:
        self.default = default or TenantConfig(name="default")
        self._configs: dict[str, TenantConfig] = {}
        self._buckets: dict[str, TokenBucket] = {}
        self._throttled: dict[str, int] = {}
        self._shed: dict[str, int] = {}
        self._shedding = False
        self._lock = threading.Lock()

    def register(self, config: TenantConfig) -> "AdmissionController":
        """Install (or replace) one tenant's policy; returns self."""
        with self._lock:
            self._configs[config.name] = config
            self._buckets.pop(config.name, None)  # rebuilt lazily from the new config
        return self

    def configure(self, name: str, **kwargs) -> "AdmissionController":
        """Shorthand: ``configure("svc", priority="interactive", rate_per_s=50)``."""
        return self.register(TenantConfig(name=name, **kwargs))

    def config_for(self, tenant: str) -> TenantConfig:
        with self._lock:
            return self._configs.get(tenant, self.default)

    def weight(self, tenant: str) -> int:
        return self.config_for(tenant).weight

    def set_shedding(self, active: bool) -> None:
        """Flip SLO-driven load shedding for ``best_effort`` traffic.

        While active, scavenger-class tenants are refused at admission
        (:class:`ThrottledError` with a one-heartbeat retry hint) so the
        burning budget recovers without touching interactive or batch
        traffic.  Driven by :class:`~repro.obs.SloTracker`; idempotent,
        so the tracker can call it on every evaluation.
        """
        with self._lock:
            if self._shedding == active:
                return
            self._shedding = active
        get_metrics().metric("repro_sched_shedding").set(1.0 if active else 0.0)

    @property
    def shedding(self) -> bool:
        with self._lock:
            return self._shedding

    def admit(self, tenant: str, now: float) -> None:
        """Admit one request from ``tenant`` or raise :class:`ThrottledError`."""
        with self._lock:
            cfg = self._configs.get(tenant, self.default)
            shed = self._shedding and cfg.priority == "best_effort"
            if shed:
                self._shed[tenant] = self._shed.get(tenant, 0) + 1
                self._throttled[tenant] = self._throttled.get(tenant, 0) + 1
            elif cfg.rate_per_s is None:
                return
            else:
                bucket = self._buckets.get(tenant)
                if bucket is None:
                    bucket = self._buckets[tenant] = TokenBucket(
                        cfg.rate_per_s, cfg.burst
                    )
        if shed:
            get_metrics().metric("repro_sched_shed_total").inc(tenant=tenant)
            get_metrics().metric("repro_sched_throttled_total").inc(tenant=tenant)
            raise ThrottledError(tenant, retry_after_s=0.1)
        if bucket.try_acquire(now):
            return
        retry_after = bucket.retry_after(now)
        with self._lock:
            self._throttled[tenant] = self._throttled.get(tenant, 0) + 1
        get_metrics().metric("repro_sched_throttled_total").inc(tenant=tenant)
        raise ThrottledError(tenant, retry_after_s=retry_after)

    @property
    def throttled(self) -> int:
        with self._lock:
            return sum(self._throttled.values())

    def throttled_by_tenant(self) -> dict[str, int]:
        with self._lock:
            return dict(self._throttled)

    @property
    def shed(self) -> int:
        """Requests refused by SLO shedding (a subset of ``throttled``)."""
        with self._lock:
            return sum(self._shed.values())

    def shed_by_tenant(self) -> dict[str, int]:
        with self._lock:
            return dict(self._shed)
