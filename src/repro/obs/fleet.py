"""Fleet-wide metrics: delta shipping, folding, and aggregation.

The shard tier runs one :class:`~repro.obs.metrics.MetricsRegistry` per
worker process, and each dies with its incarnation.  This module keeps
the operator's view alive across crashes:

* :class:`SnapshotShipper` lives in the **worker**: each heartbeat it
  snapshots the process registry and delta-encodes against the previous
  snapshot (:func:`~repro.obs.metrics.diff_snapshot`), so the wire
  carries only what accrued since the last beat — an idle worker ships
  an empty delta.
* :class:`FleetMetrics` lives in the **router**: it folds every
  arriving delta into the fleet registry with ``(shard, incarnation)``
  labels stamped on each series, and counts ingests, malformed deltas,
  and incarnations that died between heartbeats
  (``repro_fleet_dropped_on_crash_total``).  Because deltas ship
  per-beat over an ordered stream, a crash loses at most one heartbeat
  interval of metrics.
* The aggregation helpers (:func:`counter_total`, :func:`counter_by`,
  :func:`histogram_percentiles`) answer fleet-level questions — route
  mix across incarnations, p99 kernel latency across shards — by
  summing label-matched series, which is exactly why histogram merges
  insist on identical bucket bounds.

See docs/fleet_observability.md for the wire format and loss bounds.
"""

from __future__ import annotations

import threading
import time

from .metrics import (
    MetricsRegistry,
    MetricTypeError,
    SnapshotError,
    bucket_percentiles,
    bucket_quantile,
    diff_snapshot,
    get_metrics,
)

#: Schema tag of the supervisor's ``fleet_status()`` document (the file
#: ``repro top`` polls).
FLEET_STATUS_SCHEMA = "repro.fleet_status/v1"


class SnapshotShipper:
    """Worker-side delta encoder over a metrics registry.

    ``delta()`` is called from the heartbeat thread and the drain path;
    the lock serializes them so the previous-snapshot baseline never
    tears.  ``registry=None`` follows the process-global registry at
    call time (workers arm nothing — instrumentation sites increment the
    global registry unconditionally).
    """

    def __init__(
        self, registry: MetricsRegistry | None = None, clock=time.time
    ) -> None:
        self._registry = registry
        self._clock = clock
        self._last: dict | None = None
        self._lock = threading.Lock()

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_metrics()

    def delta(self, captured_at: float | None = None) -> dict:
        """Snapshot now and return what changed since the previous call."""
        with self._lock:
            current = self.registry.snapshot(
                self._clock() if captured_at is None else captured_at
            )
            out = diff_snapshot(current, self._last)
            self._last = current
            return out


class FleetMetrics:
    """Folds worker snapshot deltas into one fleet-wide registry.

    ``registry=None`` folds into the process-global registry, so a
    metrics export of the router process automatically carries
    the whole fleet's series — labeled by ``(shard, incarnation)`` and
    surviving worker crashes.
    """

    def __init__(self, registry: MetricsRegistry | None = None) -> None:
        self._registry = registry
        self._lock = threading.Lock()
        self.snapshots_ingested = 0
        self.ingest_errors = 0
        self.dropped_on_crash = 0
        #: shard -> wall-clock time of its last (possibly empty) delta.
        self._last_ingest: dict[int, float] = {}

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry if self._registry is not None else get_metrics()

    def ingest(self, delta: dict | None, shard: int, incarnation: int) -> bool:
        """Fold one worker delta in; True when series were merged.

        All or nothing: a malformed delta is counted and dropped whole,
        leaving the registry's worker series untouched — telemetry must
        never take down the serving path.
        """
        if not isinstance(delta, dict):
            return False
        with self._lock:
            self._last_ingest[int(shard)] = time.time()
        if not delta.get("metrics"):
            return False  # empty beat: liveness only
        try:
            self.registry.merge_snapshot(
                delta,
                extra_labels={"shard": str(shard), "incarnation": str(incarnation)},
            )
        except (SnapshotError, MetricTypeError):
            with self._lock:
                self.ingest_errors += 1
            errors = self.registry.metric("repro_fleet_ingest_errors_total")
            errors.inc(shard=str(shard))
            return False
        with self._lock:
            self.snapshots_ingested += 1
        self.registry.metric("repro_fleet_snapshots_total").inc(shard=str(shard))
        return True

    def note_crash(self, shard: int, incarnation: int) -> None:
        """Record an incarnation that died between heartbeats.

        Its unshipped final delta is gone — at most one heartbeat
        interval of metrics, the tier's documented loss bound.
        """
        with self._lock:
            self.dropped_on_crash += 1
        self.registry.metric("repro_fleet_dropped_on_crash_total").inc(shard=str(shard))

    def last_ingest_age_s(self, shard: int, now: float | None = None) -> float | None:
        """Seconds since the shard's last delta (None before the first)."""
        with self._lock:
            t = self._last_ingest.get(int(shard))
        if t is None:
            return None
        return (time.time() if now is None else now) - t


# -- aggregation over a registry's label-matched series ------------------------


def _matches(labels: dict[str, str], where: dict | None, require: tuple) -> bool:
    if any(k not in labels for k in require):
        return False
    return all(labels.get(k) == str(v) for k, v in (where or {}).items())


def counter_total(
    registry: MetricsRegistry,
    name: str,
    where: dict | None = None,
    require: tuple[str, ...] = (),
) -> float:
    """Sum of a counter's series whose labels match ``where``.

    ``require`` names labels a series must *carry* to count — e.g.
    ``require=("shard",)`` restricts to worker-merged series, excluding
    any same-named series the router process recorded locally.
    """
    metric = registry.get(name)
    if metric is None:
        return 0.0
    return sum(
        v for labels, v in metric.samples() if _matches(labels, where, require)
    )


def counter_by(
    registry: MetricsRegistry,
    name: str,
    key: str,
    where: dict | None = None,
    require: tuple[str, ...] = (),
) -> dict[str, float]:
    """Group-by ``key``'s label value, summing matched series.

    Series without the ``key`` label fold under ``""`` (drop that entry
    to exclude them).
    """
    metric = registry.get(name)
    if metric is None:
        return {}
    out: dict[str, float] = {}
    for labels, v in metric.samples():
        if not _matches(labels, where, require):
            continue
        group = labels.get(key, "")
        out[group] = out.get(group, 0.0) + v
    return out


def histogram_aggregate(
    registry: MetricsRegistry,
    name: str,
    where: dict | None = None,
    require: tuple[str, ...] = (),
) -> tuple[tuple[float, ...], list[int], float, int] | None:
    """Merged ``(buckets, bucket_counts, sum, count)`` of matched series.

    Cross-incarnation aggregation is just element-wise addition because
    every series of one family shares the family's bucket bounds.
    """
    metric = registry.get(name)
    if metric is None or metric.kind != "histogram":
        return None
    counts: list[int] | None = None
    total = 0
    hsum = 0.0
    for labels, bucket_counts, s, n in metric.series():
        if not _matches(labels, where, require):
            continue
        if counts is None:
            counts = list(bucket_counts)
        else:
            counts = [a + b for a, b in zip(counts, bucket_counts)]
        hsum += s
        total += n
    if counts is None:
        return None
    return metric.buckets, counts, hsum, total


def histogram_quantile(
    registry: MetricsRegistry,
    name: str,
    q: float,
    where: dict | None = None,
    require: tuple[str, ...] = (),
) -> float:
    agg = histogram_aggregate(registry, name, where, require)
    if agg is None:
        return 0.0
    buckets, counts, _, total = agg
    return bucket_quantile(buckets, counts, total, q)


def histogram_percentiles(
    registry: MetricsRegistry,
    name: str,
    where: dict | None = None,
    require: tuple[str, ...] = (),
) -> dict[str, float]:
    """The dashboard's p50/p95/p99 triple over matched series."""
    buckets, counts, _, total = histogram_aggregate(
        registry, name, where, require
    ) or ((), [], 0.0, 0)
    return bucket_percentiles(buckets, counts, total)
