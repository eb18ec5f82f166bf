"""Process-global (but resettable) metrics: counters, gauges, histograms.

The serving stack's counters today live in per-object records
(:class:`~repro.serve.stats.ServeStats` and friends); this registry is
the cross-cutting complement — one namespace every layer increments into
so a single scrape answers "what did the whole process do?".  The model
follows Prometheus: a metric is a named *family* holding one numeric
series per label set, and :func:`repro.obs.export.render_prometheus`
dumps the registry in text exposition format.

Histograms are fixed-bucket: ``observe`` lands a value in the first
bucket whose upper bound contains it, and :meth:`Histogram.quantile`
estimates p50/p95/p99 by linear interpolation inside the winning bucket
(the standard ``histogram_quantile`` estimate, exact at bucket edges).

All three metric types are thread-safe; the registry is get-or-create
keyed by metric name, and re-registering a name as a different type is a
typed error rather than silent aliasing.

For the multi-process shard tier every metric is also **mergeable**:
``snapshot()`` dumps a family to a plain-JSON record, ``merge()`` folds
such a record back in (counters and histogram buckets add; gauges are
last-writer-wins by the snapshot's ``captured_at``), and
:func:`diff_snapshot` delta-encodes two registry snapshots so workers
ship only what changed since the previous heartbeat — see
docs/fleet_observability.md for the wire format.
"""

from __future__ import annotations

import math
import re
import threading
import time

#: Default histogram bucket upper bounds, in seconds — tuned for queue
#: waits and preprocessing stages (0.1 ms .. 10 s; +Inf is implicit).
DEFAULT_BUCKETS: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")


#: Schema tag stamped on every registry snapshot (and snapshot delta).
METRICS_SNAPSHOT_SCHEMA = "repro.metrics_snapshot/v1"


class MetricTypeError(TypeError):
    """A metric name was re-registered as a different metric type."""


class SnapshotError(ValueError):
    """Base of the typed snapshot/merge errors."""


class SnapshotSchemaError(SnapshotError):
    """A snapshot record is malformed or carries the wrong schema tag."""


class BucketMismatchError(SnapshotError):
    """Histogram merge across differing bucket boundaries.

    Bucket counts from one boundary set cannot be redistributed onto
    another without inventing data, so this is always an error — the
    fleet requires every process to agree on bucket bounds per name.
    """


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict[str, str]) -> tuple[tuple[str, str], ...]:
    for k in labels:
        if not _LABEL_RE.match(k):
            raise ValueError(f"invalid label name {k!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


def _merged_labels(
    labels: dict | None, extra_labels: dict[str, str] | None
) -> dict[str, str]:
    """Series labels from a snapshot row, with ``extra_labels`` folded in.

    The extras win on collision: the fleet registry stamps ``shard`` /
    ``incarnation`` onto every merged series and must not be spoofable
    by a worker-side label of the same name.
    """
    out = {str(k): str(v) for k, v in (labels or {}).items()}
    for k, v in (extra_labels or {}).items():
        out[str(k)] = str(v)
    return out


def _check_snapshot_kind(metric: Metric, snap: dict) -> None:
    if not isinstance(snap, dict):
        raise SnapshotSchemaError(f"metric snapshot must be a dict, not {type(snap)}")
    kind = snap.get("kind")
    if kind != metric.kind:
        raise SnapshotSchemaError(
            f"cannot merge {kind!r} snapshot into {metric.kind} {metric.name!r}"
        )


class Metric:
    """Base: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()

    def samples(self) -> list[tuple[dict[str, str], float]]:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover
        raise NotImplementedError


class Counter(Metric):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            return [(dict(k), v) for k, v in sorted(self._values.items())]

    def snapshot(self) -> dict:
        """Plain-JSON record of every series (mergeable elsewhere)."""
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "series": [
                    {"labels": dict(k), "value": v}
                    for k, v in sorted(self._values.items())
                ],
            }

    def merge(self, snap: dict, extra_labels: dict[str, str] | None = None) -> None:
        """Fold a counter snapshot in: per-series values **add**."""
        _check_snapshot_kind(self, snap)
        for row in snap.get("series", ()):
            amount = float(row.get("value", 0.0))
            if amount == 0.0:
                continue
            self.inc(amount, **_merged_labels(row.get("labels"), extra_labels))

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Gauge(Metric):
    """A value that goes up and down (pending queue depth, resident bytes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}
        #: Per-series ``captured_at`` of the latest applied merge; local
        #: writes do not stamp, so merges resolve against each other by
        #: snapshot time while label disjointness (the fleet's
        #: shard/incarnation labels) keeps local and remote series apart.
        self._stamps: dict[tuple, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            return [(dict(k), v) for k, v in sorted(self._values.items())]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "series": [
                    {"labels": dict(k), "value": v}
                    for k, v in sorted(self._values.items())
                ],
            }

    def merge(
        self,
        snap: dict,
        extra_labels: dict[str, str] | None = None,
        captured_at: float = 0.0,
    ) -> None:
        """Fold a gauge snapshot in: **last writer wins** per series.

        "Last" is decided by the snapshot-level ``captured_at``
        timestamp, so merging two snapshots in either order converges on
        the same value (ties go to the merge applied later, matching
        in-order heartbeat delivery).
        """
        _check_snapshot_kind(self, snap)
        for row in snap.get("series", ()):
            labels = _merged_labels(row.get("labels"), extra_labels)
            key = _label_key(labels)
            with self._lock:
                if captured_at >= self._stamps.get(key, float("-inf")):
                    self._values[key] = float(row.get("value", 0.0))
                    self._stamps[key] = captured_at

    def reset(self) -> None:
        with self._lock:
            self._values.clear()
            self._stamps.clear()


class _HistSeries:
    __slots__ = ("bucket_counts", "sum", "count")

    def __init__(self, nbuckets: int) -> None:
        self.bucket_counts = [0] * (nbuckets + 1)  # +1 for the +Inf bucket
        self.sum = 0.0
        self.count = 0


class Histogram(Metric):
    """Fixed-bucket histogram with interpolated quantile estimation."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help)
        if not buckets:
            raise ValueError("histogram needs at least one finite bucket bound")
        ordered = tuple(float(b) for b in buckets)
        if list(ordered) != sorted(set(ordered)):
            raise ValueError("bucket bounds must be strictly increasing")
        if not all(math.isfinite(b) for b in ordered):
            raise ValueError("bucket bounds must be finite (+Inf is implicit)")
        self.buckets = ordered
        self._series: dict[tuple, _HistSeries] = {}

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series.get(key)
            if series is None:
                series = self._series[key] = _HistSeries(len(self.buckets))
            idx = len(self.buckets)  # +Inf by default
            for i, bound in enumerate(self.buckets):
                if value <= bound:
                    idx = i
                    break
            series.bucket_counts[idx] += 1
            series.sum += value
            series.count += 1

    def count(self, **labels: str) -> int:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.count if series else 0

    def total(self, **labels: str) -> float:
        with self._lock:
            series = self._series.get(_label_key(labels))
            return series.sum if series else 0.0

    def quantile(self, q: float, **labels: str) -> float:
        """Estimated ``q``-quantile (0..1), interpolated within buckets.

        Zero observations estimate 0.0.  Values landing in the +Inf
        bucket clamp to the largest finite bound (Prometheus's
        ``histogram_quantile`` behavior).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None or series.count == 0:
                return 0.0
            rank = q * series.count
            cumulative = 0
            for i, upper in enumerate(self.buckets):
                prev_cum = cumulative
                cumulative += series.bucket_counts[i]
                if cumulative >= rank and series.bucket_counts[i] > 0:
                    lower = self.buckets[i - 1] if i > 0 else 0.0
                    frac = (rank - prev_cum) / series.bucket_counts[i]
                    return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
            return self.buckets[-1]

    def percentiles(self, **labels: str) -> dict[str, float]:
        """The standard p50/p95/p99 triple."""
        return {
            "p50": self.quantile(0.50, **labels),
            "p95": self.quantile(0.95, **labels),
            "p99": self.quantile(0.99, **labels),
        }

    def series(self) -> list[tuple[dict[str, str], list[int], float, int]]:
        """Per-label-set ``(labels, bucket_counts, sum, count)`` rows."""
        with self._lock:
            return [
                (dict(k), list(s.bucket_counts), s.sum, s.count)
                for k, s in sorted(self._series.items())
            ]

    def samples(self) -> list[tuple[dict[str, str], float]]:
        with self._lock:
            return [(dict(k), s.sum) for k, s in sorted(self._series.items())]

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "name": self.name,
                "kind": self.kind,
                "help": self.help,
                "buckets": list(self.buckets),
                "series": [
                    {
                        "labels": dict(k),
                        "bucket_counts": list(s.bucket_counts),
                        "sum": s.sum,
                        "count": s.count,
                    }
                    for k, s in sorted(self._series.items())
                ],
            }

    def merge(self, snap: dict, extra_labels: dict[str, str] | None = None) -> None:
        """Fold a histogram snapshot in: bucket counts, sum, count **add**.

        Raises :class:`BucketMismatchError` when the snapshot was taken
        against different bucket boundaries — counts cannot be
        redistributed across bounds.
        """
        _check_snapshot_kind(self, snap)
        bounds = tuple(float(b) for b in snap.get("buckets", ()))
        if bounds != self.buckets:
            raise BucketMismatchError(
                f"histogram {self.name!r}: snapshot buckets {bounds} do not "
                f"match registered buckets {self.buckets}"
            )
        for row in snap.get("series", ()):
            counts = row.get("bucket_counts", ())
            if len(counts) != len(self.buckets) + 1:
                raise BucketMismatchError(
                    f"histogram {self.name!r}: snapshot series has "
                    f"{len(counts)} buckets, expected {len(self.buckets) + 1}"
                )
            labels = _merged_labels(row.get("labels"), extra_labels)
            key = _label_key(labels)
            with self._lock:
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = _HistSeries(len(self.buckets))
                for i, c in enumerate(counts):
                    series.bucket_counts[i] += int(c)
                series.sum += float(row.get("sum", 0.0))
                series.count += int(row.get("count", 0))

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


class MetricsRegistry:
    """Named metric families, get-or-create, resettable.

    One process-global instance backs :func:`get_metrics`; tests either
    ``reset()`` it or swap a private one in with :func:`set_metrics`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs) -> Metric:
        with self._lock:
            existing = self._metrics.get(name)
            if existing is not None:
                if type(existing) is not cls:
                    raise MetricTypeError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind}, not {cls.kind}"
                    )
                return existing
            metric = cls(name, help, **kwargs)
            self._metrics[name] = metric
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str) -> Metric | None:
        with self._lock:
            return self._metrics.get(name)

    def metrics(self) -> list[Metric]:
        """Every registered family, sorted by name."""
        with self._lock:
            return [self._metrics[k] for k in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every registration and value — a fresh process view."""
        with self._lock:
            self._metrics.clear()

    # -- snapshots -------------------------------------------------------------

    def snapshot(self, captured_at: float | None = None) -> dict:
        """Schema-stamped plain-JSON dump of every family.

        ``captured_at`` (wall-clock seconds; defaults to ``time.time()``)
        orders gauge merges: when two snapshots of the same series meet
        in one registry, the later capture wins.
        """
        return {
            "schema": METRICS_SNAPSHOT_SCHEMA,
            "captured_at": time.time() if captured_at is None else float(captured_at),
            "metrics": [m.snapshot() for m in self.metrics()],
        }

    def merge_snapshot(
        self, snap: dict, extra_labels: dict[str, str] | None = None
    ) -> None:
        """Fold a :meth:`snapshot` (or :func:`diff_snapshot` delta) in.

        Families are get-or-created by name, so a fresh registry accepts
        any snapshot; ``extra_labels`` is stamped onto every merged
        series (the fleet registry adds ``shard``/``incarnation`` here).
        Raises :class:`SnapshotSchemaError` on malformed records,
        :class:`MetricTypeError` on a name/kind clash, and
        :class:`BucketMismatchError` on histogram boundary mismatch.
        """
        if not isinstance(snap, dict):
            raise SnapshotSchemaError(f"snapshot must be a dict, not {type(snap)}")
        if snap.get("schema") != METRICS_SNAPSHOT_SCHEMA:
            raise SnapshotSchemaError(
                f"snapshot schema is {snap.get('schema')!r}, "
                f"expected {METRICS_SNAPSHOT_SCHEMA!r}"
            )
        captured_at = float(snap.get("captured_at", 0.0))
        for rec in snap.get("metrics", ()):
            if not isinstance(rec, dict) or not rec.get("name"):
                raise SnapshotSchemaError(f"malformed metric record: {rec!r}")
            kind = rec.get("kind")
            name = rec["name"]
            help = rec.get("help", "")
            if kind == "counter":
                self.counter(name, help).merge(rec, extra_labels)
            elif kind == "gauge":
                self.gauge(name, help).merge(rec, extra_labels, captured_at=captured_at)
            elif kind == "histogram":
                buckets = rec.get("buckets")
                if not buckets:
                    raise SnapshotSchemaError(
                        f"histogram record {name!r} is missing bucket bounds"
                    )
                self.histogram(
                    name, help, buckets=tuple(float(b) for b in buckets)
                ).merge(rec, extra_labels)
            else:
                raise SnapshotSchemaError(
                    f"unknown metric kind {kind!r} for {name!r}"
                )


def _series_key(row: dict) -> tuple:
    return tuple(sorted((str(k), str(v)) for k, v in (row.get("labels") or {}).items()))


def _diff_counter_row(row: dict, prev: dict | None) -> dict | None:
    value = float(row.get("value", 0.0))
    if prev is not None:
        delta = value - float(prev.get("value", 0.0))
        # A shrink means the source series was reset (fresh process);
        # ship the absolute restart value rather than a negative delta.
        value = value if delta < 0 else delta
    if value == 0.0:
        return None
    return {"labels": dict(row.get("labels") or {}), "value": value}


def _diff_hist_row(row: dict, prev: dict | None) -> dict | None:
    counts = [int(c) for c in row.get("bucket_counts", ())]
    total = int(row.get("count", 0))
    hsum = float(row.get("sum", 0.0))
    if prev is not None:
        prev_counts = [int(c) for c in prev.get("bucket_counts", ())]
        if len(prev_counts) == len(counts):
            deltas = [c - p for c, p in zip(counts, prev_counts)]
            dcount = total - int(prev.get("count", 0))
            if dcount >= 0 and all(d >= 0 for d in deltas):
                counts = deltas
                total = dcount
                hsum = hsum - float(prev.get("sum", 0.0))
            # else: reset — ship the absolute restart values.
    if total == 0 and not any(counts):
        return None
    return {
        "labels": dict(row.get("labels") or {}),
        "bucket_counts": counts,
        "sum": hsum,
        "count": total,
    }


def diff_snapshot(current: dict, previous: dict | None) -> dict:
    """Delta-encode ``current`` against ``previous`` (same schema).

    The result is itself a mergeable snapshot: counters and histogram
    series carry only what accrued since ``previous`` (a reset — the
    value shrank — ships the absolute restart value), gauges always ride
    absolute, and series that contribute nothing are dropped, so an idle
    worker's heartbeat delta is empty.
    """
    if previous is None:
        return current
    prev_by_name = {
        m.get("name"): m for m in previous.get("metrics", ()) if isinstance(m, dict)
    }
    out: list[dict] = []
    for rec in current.get("metrics", ()):
        kind = rec.get("kind")
        prev = prev_by_name.get(rec.get("name"))
        if prev is not None and prev.get("kind") != kind:
            prev = None
        if kind == "gauge":
            if rec.get("series"):
                out.append(rec)
            continue
        if (
            kind == "histogram"
            and prev is not None
            and list(prev.get("buckets", ())) != list(rec.get("buckets", ()))
        ):
            prev = None  # bucket change across restarts: ship absolute
        prev_rows = (
            {_series_key(r): r for r in prev.get("series", ())}
            if prev is not None
            else {}
        )
        differ = _diff_hist_row if kind == "histogram" else _diff_counter_row
        rows = []
        for row in rec.get("series", ()):
            d = differ(row, prev_rows.get(_series_key(row)))
            if d is not None:
                rows.append(d)
        if rows:
            out.append({**rec, "series": rows})
    return {
        "schema": current.get("schema", METRICS_SNAPSHOT_SCHEMA),
        "captured_at": current.get("captured_at", 0.0),
        "metrics": out,
    }


_GLOBAL_METRICS = MetricsRegistry()
_GLOBAL_LOCK = threading.Lock()


def get_metrics() -> MetricsRegistry:
    """The process-global registry instrumentation sites increment into."""
    return _GLOBAL_METRICS


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-global registry (returns the previous one)."""
    global _GLOBAL_METRICS
    with _GLOBAL_LOCK:
        previous = _GLOBAL_METRICS
        _GLOBAL_METRICS = registry
    return previous
