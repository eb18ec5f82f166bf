"""SLO tracking with multi-window burn-rate alerting.

An :class:`SloPolicy` states an objective for a slice of traffic — a
**deadline-miss budget** (the fraction of requests allowed to miss
their deadline) and optionally a **p99 latency target**.  The
:class:`SloTracker` evaluates each policy over two sliding windows with
the standard burn-rate rules:

    burn rate = (observed miss rate over the window) / budget

A burn rate of 1.0 consumes the error budget exactly at the sustainable
pace; the **fast** rule (short window, high threshold, default 14.4×)
catches sudden storms within seconds, while the **slow** rule (long
window, lower threshold, default 6×) catches sustained simmer that the
fast window keeps forgiving.  Both windows must hold ``min_requests``
samples before a verdict — an empty window never alarms.

Alerts are structured events: appended to :attr:`SloTracker.alerts`,
counted in ``repro_slo_alerts_total{policy,rule}``, exportable as JSONL
(:func:`export_alerts_jsonl`), and surfaced in the supervisor's fleet
status for ``repro top``'s alert feed.  While any alert is active the
tracker can nudge a :class:`~repro.sched.AdmissionController` to shed
``best_effort`` traffic (``admission.set_shedding``); when every rule
recovers the nudge is withdrawn and the rule re-arms.
"""

from __future__ import annotations

import json
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

from .metrics import MetricsRegistry, get_metrics

#: Schema tag of the JSONL alert export (first field of every line).
SLO_ALERTS_SCHEMA = "repro.slo_alerts/v1"


@dataclass(frozen=True)
class SloPolicy:
    """One objective over a slice of traffic.

    ``tenant=None`` matches every tenant.  ``deadline_miss_budget`` is
    the tolerated long-run miss fraction (0.01 = 1% of requests may
    miss); ``p99_target_s=None`` disables the latency rule.
    """

    name: str
    tenant: str | None = None
    deadline_miss_budget: float = 0.01
    p99_target_s: float | None = None
    window_s: float = 60.0
    fast_window_s: float = 5.0
    fast_burn: float = 14.4
    slow_burn: float = 6.0
    min_requests: int = 10

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("policy needs a name")
        if not 0.0 < self.deadline_miss_budget <= 1.0:
            raise ValueError("deadline_miss_budget must be in (0, 1]")
        if self.p99_target_s is not None and self.p99_target_s <= 0:
            raise ValueError("p99_target_s must be positive (or None)")
        if self.fast_window_s <= 0 or self.window_s <= 0:
            raise ValueError("windows must be positive")
        if self.fast_window_s > self.window_s:
            raise ValueError("fast_window_s must not exceed window_s")
        if self.fast_burn <= 0 or self.slow_burn <= 0:
            raise ValueError("burn thresholds must be positive")
        if self.min_requests < 1:
            raise ValueError("min_requests must be >= 1")


@dataclass
class SloAlert:
    """One firing of one policy rule (a structured event)."""

    policy: str
    rule: str  # "fast_burn" | "slow_burn" | "p99"
    fired_at: float
    window_s: float
    value: float  # observed miss rate (burn rules) or p99 seconds
    threshold: float  # burn threshold or p99 target
    burn_rate: float  # value/budget for burn rules; 0.0 for p99
    tenant: str | None = None
    samples: int = 0
    resolved_at: float | None = field(default=None, compare=False)

    def to_dict(self) -> dict:
        return {
            "schema": SLO_ALERTS_SCHEMA,
            "policy": self.policy,
            "rule": self.rule,
            "fired_at": self.fired_at,
            "window_s": self.window_s,
            "value": self.value,
            "threshold": self.threshold,
            "burn_rate": self.burn_rate,
            "tenant": self.tenant,
            "samples": self.samples,
            "resolved_at": self.resolved_at,
        }


class _Sample:
    __slots__ = ("t", "tenant", "latency_s", "missed")

    def __init__(self, t: float, tenant: str, latency_s: float, missed: bool) -> None:
        self.t = t
        self.tenant = tenant
        self.latency_s = latency_s
        self.missed = missed


def _p99(latencies: list[float]) -> float:
    if not latencies:
        return 0.0
    ordered = sorted(latencies)
    idx = max(0, min(len(ordered) - 1, int(0.99 * len(ordered))))
    return ordered[idx]


class SloTracker:
    """Sliding-window evaluation of :class:`SloPolicy` burn-rate rules.

    ``record()`` feeds one request outcome and re-evaluates; every rule
    transition fires at most one alert until it recovers (re-arm on a
    clean evaluation).  All time comes through the injectable ``clock``
    (or explicit ``now``), so tests drive it deterministically.
    """

    def __init__(
        self,
        policies: list[SloPolicy] | tuple[SloPolicy, ...] = (),
        clock=time.monotonic,
        admission=None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self.policies = list(policies)
        self._clock = clock
        self.admission = admission
        self._registry = registry
        self._samples: deque[_Sample] = deque()
        self._active: dict[tuple[str, str], SloAlert] = {}
        self.alerts: list[SloAlert] = []
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_metrics()

    def _max_window(self) -> float:
        return max((p.window_s for p in self.policies), default=0.0)

    def record(
        self,
        tenant: str,
        latency_s: float,
        deadline_missed: bool,
        now: float | None = None,
    ) -> list[SloAlert]:
        """Feed one outcome; returns alerts newly fired by it."""
        now = self._clock() if now is None else now
        with self._lock:
            self._samples.append(_Sample(now, tenant, latency_s, bool(deadline_missed)))
            horizon = now - self._max_window()
            while self._samples and self._samples[0].t < horizon:
                self._samples.popleft()
        return self.evaluate(now)

    def _window(self, policy: SloPolicy, now: float, width: float) -> list[_Sample]:
        lo = now - width
        return [
            s
            for s in self._samples
            if s.t >= lo and (policy.tenant is None or s.tenant == policy.tenant)
        ]

    def _fire(self, key: tuple[str, str], alert: SloAlert) -> None:
        self._active[key] = alert
        self.alerts.append(alert)
        self.registry.metric("repro_slo_alerts_total").inc(
            policy=alert.policy, rule=alert.rule
        )

    def _resolve(self, key: tuple[str, str], now: float) -> None:
        alert = self._active.pop(key, None)
        if alert is not None:
            alert.resolved_at = now

    def evaluate(self, now: float | None = None) -> list[SloAlert]:
        """Run every rule; returns alerts that fired on this call."""
        now = self._clock() if now is None else now
        fired: list[SloAlert] = []
        burn_gauge = self.registry.metric("repro_slo_burn_rate")
        with self._lock:
            for policy in self.policies:
                rules = (
                    ("fast_burn", policy.fast_window_s, policy.fast_burn),
                    ("slow_burn", policy.window_s, policy.slow_burn),
                )
                for rule, width, threshold in rules:
                    window = self._window(policy, now, width)
                    miss_rate = (
                        sum(1 for s in window if s.missed) / len(window)
                        if window
                        else 0.0
                    )
                    burn = miss_rate / policy.deadline_miss_budget
                    burn_gauge.set(
                        burn,
                        policy=policy.name,
                        window="fast" if rule == "fast_burn" else "slow",
                    )
                    key = (policy.name, rule)
                    if len(window) >= policy.min_requests and burn >= threshold:
                        if key not in self._active:
                            alert = SloAlert(
                                policy=policy.name,
                                rule=rule,
                                fired_at=now,
                                window_s=width,
                                value=miss_rate,
                                threshold=threshold,
                                burn_rate=burn,
                                tenant=policy.tenant,
                                samples=len(window),
                            )
                            self._fire(key, alert)
                            fired.append(alert)
                    else:
                        self._resolve(key, now)
                if policy.p99_target_s is not None:
                    window = self._window(policy, now, policy.window_s)
                    p99 = _p99([s.latency_s for s in window])
                    key = (policy.name, "p99")
                    if len(window) >= policy.min_requests and p99 > policy.p99_target_s:
                        if key not in self._active:
                            alert = SloAlert(
                                policy=policy.name,
                                rule="p99",
                                fired_at=now,
                                window_s=policy.window_s,
                                value=p99,
                                threshold=policy.p99_target_s,
                                burn_rate=0.0,
                                tenant=policy.tenant,
                                samples=len(window),
                            )
                            self._fire(key, alert)
                            fired.append(alert)
                    else:
                        self._resolve(key, now)
            shedding = bool(self._active)
        if self.admission is not None:
            self.admission.set_shedding(shedding)
        return fired

    def active_alerts(self) -> list[SloAlert]:
        with self._lock:
            return list(self._active.values())

    def to_status(self, recent: int = 5) -> dict:
        """Plain-JSON block for the supervisor's fleet status document."""
        with self._lock:
            return {
                "policies": [p.name for p in self.policies],
                "fired_total": len(self.alerts),
                "active": [a.to_dict() for a in self._active.values()],
                "recent": [a.to_dict() for a in self.alerts[-recent:]],
            }


def alerts_to_jsonl(alerts: list[SloAlert]) -> str:
    """One JSON object per line (schema-tagged), trailing newline."""
    return "".join(json.dumps(a.to_dict(), sort_keys=True) + "\n" for a in alerts)


def export_alerts_jsonl(alerts: list[SloAlert], path: str | Path) -> Path:
    """Write the JSONL alert export; returns the path."""
    out = Path(path)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(alerts_to_jsonl(alerts))
    return out
