"""Process-global (but resettable) metrics: counters, gauges, histograms.

The serving stack's counters today live in per-object records
(:class:`~repro.serve.stats.ServeStats` and friends); this registry is
the cross-cutting complement — one namespace every layer increments into
so a single scrape answers "what did the whole process do?".  The model
follows Prometheus: a metric is a named *family* holding one numeric
series per label set, and :func:`repro.obs.export.render_prometheus`
dumps the registry in text exposition format.

Every family the stack maintains is declared once, in :data:`CATALOG`
(kind, help, label names, buckets); instrumentation sites name the
family only, through :meth:`MetricsRegistry.metric`.

Histograms are fixed-bucket: ``observe`` lands a value in the first
bucket whose upper bound contains it, and :func:`bucket_quantile`
estimates p50/p95/p99 by linear interpolation inside the winning bucket
(the standard ``histogram_quantile`` estimate, exact at bucket edges).

All three metric types are thread-safe; the registry is get-or-create
keyed by metric name, and re-registering a name as a different type is a
typed error rather than silent aliasing.

For the multi-process shard tier every metric is also **mergeable**:
``snapshot()`` dumps a family to a plain-JSON record,
:meth:`MetricsRegistry.merge_snapshot` folds such records back in
(counters and histogram buckets add; gauges are last-writer-wins by the
snapshot's ``captured_at``) after :func:`validate_metrics_snapshot`
accepts the whole document, and :func:`diff_snapshot` delta-encodes two
registry snapshots so workers ship only what changed since the previous
heartbeat — see docs/fleet_observability.md for the wire format.
"""

from __future__ import annotations

import math
import re
import threading
import time
from typing import NamedTuple

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


class MetricSpec(NamedTuple):
    """One catalogued family: its kind, help text and label names."""

    kind: str
    help: str
    labels: tuple[str, ...] = ()
    #: Bucket upper bounds (histograms only).
    buckets: tuple[float, ...] = DEFAULT_BUCKETS


#: Every metric family the stack maintains, by name.  Sites name the
#: family only (``get_metrics().metric("repro_requests_total")``); the
#: table in docs/observability.md mirrors this one.
CATALOG: dict[str, MetricSpec] = {
    # preprocessing and the plan cache (core/engine.py, core/api.py)
    "repro_preprocess_seconds_total": MetricSpec(
        "counter", "wall seconds per preprocessing stage", ("stage",)
    ),
    "repro_preprocess_runs_total": MetricSpec(
        "counter", "preprocessing executions (reorder+compress)"
    ),
    "repro_cover_cache_total": MetricSpec(
        "counter", "tile-cover memo cache lookups by outcome", ("outcome",)
    ),
    "repro_plan_cache_total": MetricSpec(
        "counter", "persistent plan-cache lookups by outcome", ("outcome",)
    ),
    "repro_plan_artifact_events_total": MetricSpec(
        "counter", "plan artifact incidents (quarantine, failed persist)", ("event",)
    ),
    "repro_plan_repairs_total": MetricSpec(
        "counter", "incremental plan repairs (dynamic-sparsity updates)"
    ),
    "repro_plan_repaired_slabs_total": MetricSpec(
        "counter", "BLOCK_TILE slabs re-reordered by incremental repair"
    ),
    # plan registry (serve/registry.py)
    "repro_registry_lookups_total": MetricSpec(
        "counter", "plan-registry lookups by outcome", ("outcome",)
    ),
    "repro_registry_evictions_total": MetricSpec(
        "counter", "plans evicted from residency"
    ),
    "repro_registry_updates_total": MetricSpec(
        "counter", "dynamic-sparsity updates applied to registered matrices"
    ),
    "repro_registry_stale_artifacts_removed_total": MetricSpec(
        "counter", "retired-version plan artifacts garbage-collected from disk"
    ),
    "repro_registry_resident_plans": MetricSpec(
        "gauge", "plans currently resident in memory"
    ),
    "repro_registry_resident_bytes": MetricSpec(
        "gauge", "bytes charged to resident plans"
    ),
    # batched executor and routing (serve/)
    "repro_requests_total": MetricSpec(
        "counter", "requests served by route", ("route",)
    ),
    "repro_kernel_us_total": MetricSpec(
        "counter", "simulated kernel microseconds attributed by route", ("route",)
    ),
    "repro_kernel_seconds": MetricSpec(
        "histogram", "per-request attributed kernel latency by route", ("route",)
    ),
    "repro_deadline_missed_total": MetricSpec(
        "counter", "requests that missed their deadline", ("route",)
    ),
    "repro_batch_size": MetricSpec(
        "histogram", "requests per simulated launch", (), (1, 2, 4, 8, 16, 32, 64)
    ),
    "repro_queue_wait_seconds": MetricSpec(
        "histogram", "seconds a request waited before its batch"
    ),
    "repro_pending_requests": MetricSpec(
        "gauge", "requests submitted but not completed"
    ),
    "repro_rejected_total": MetricSpec(
        "counter", "requests shed by admission control"
    ),
    "repro_retries_total": MetricSpec(
        "counter", "kernel retry attempts absorbed by backoff"
    ),
    "repro_breaker_transitions_total": MetricSpec(
        "counter", "circuit-breaker state transitions by destination state", ("to",)
    ),
    # scheduling (sched/, serve/dispatch.py)
    "repro_sched_slack_seconds": MetricSpec(
        "histogram", "deadline slack remaining when a request's batch dispatched"
    ),
    "repro_sched_promoted_total": MetricSpec(
        "counter", "requests dispatched ahead of the linger window to meet deadlines"
    ),
    "repro_sched_route_plans_total": MetricSpec(
        "counter", "cost-model route plans by first-choice route", ("route",)
    ),
    "repro_sched_throttled_total": MetricSpec(
        "counter", "requests shed by per-tenant rate limits", ("tenant",)
    ),
    "repro_sched_shed_total": MetricSpec(
        "counter",
        "best_effort requests refused while SLO shedding is active",
        ("tenant",),
    ),
    "repro_sched_shedding": MetricSpec(
        "gauge", "1 while SLO burn-rate shedding is active"
    ),
    # graphs (graph/executor.py)
    "repro_graph_requests_total": MetricSpec(
        "counter", "graph requests by outcome", ("outcome",)
    ),
    "repro_graph_layers_total": MetricSpec("counter", "graph layer executions"),
    "repro_graph_seconds_total": MetricSpec(
        "counter", "end-to-end graph request seconds"
    ),
    # shard tier, fleet and SLOs (shard/router.py, obs/)
    "repro_shard_request_seconds": MetricSpec(
        "histogram",
        "end-to-end request latency at the shard router by route",
        ("route",),
    ),
    "repro_fleet_snapshots_total": MetricSpec(
        "counter", "worker metrics deltas folded into the fleet registry", ("shard",)
    ),
    "repro_fleet_ingest_errors_total": MetricSpec(
        "counter", "worker metrics deltas dropped as malformed", ("shard",)
    ),
    "repro_fleet_dropped_on_crash_total": MetricSpec(
        "counter",
        "incarnations that died between heartbeats, losing their unshipped "
        "metrics delta",
        ("shard",),
    ),
    "repro_slo_alerts_total": MetricSpec(
        "counter", "SLO burn-rate/latency alerts fired", ("policy", "rule")
    ),
    "repro_slo_burn_rate": MetricSpec(
        "gauge", "error-budget burn rate per policy and window", ("policy", "window")
    ),
    "repro_obs_spans_dropped_total": MetricSpec(
        "counter", "completed spans dropped because the span buffer was full"
    ),
}


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


def _is_num(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _valid_buckets(buckets) -> bool:
    """Non-empty, strictly increasing, finite (+Inf is implicit)."""
    return (
        bool(buckets)
        and all(_is_num(b) and math.isfinite(b) for b in buckets)
        and [float(b) for b in buckets] == sorted({float(b) for b in buckets})
    )


def bucket_quantile(
    buckets: tuple[float, ...], counts: list[int], total: int, q: float
) -> float:
    """Estimated ``q``-quantile (0..1) of bucketed observations.

    Linear interpolation inside the winning bucket; zero observations
    estimate 0.0, and values in the +Inf bucket clamp to the largest
    finite bound (Prometheus's ``histogram_quantile`` behavior).
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if total <= 0:
        return 0.0
    rank = q * total
    cumulative = 0
    for i, upper in enumerate(buckets):
        prev_cum = cumulative
        cumulative += counts[i]
        if cumulative >= rank and counts[i] > 0:
            lower = buckets[i - 1] if i > 0 else 0.0
            frac = (rank - prev_cum) / counts[i]
            return lower + (upper - lower) * min(max(frac, 0.0), 1.0)
    return buckets[-1]


def bucket_percentiles(
    buckets: tuple[float, ...], counts: list[int], total: int
) -> dict[str, float]:
    """The standard p50/p95/p99 triple of :func:`bucket_quantile`."""
    return {
        name: bucket_quantile(buckets, counts, total, q)
        for name, q in (("p50", 0.50), ("p95", 0.95), ("p99", 0.99))
    }


class Metric:
    """Base: a named family of label-keyed series."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._lock = threading.Lock()

    def _record(self, series: list[dict], **fields) -> dict:
        """The family's plain-JSON snapshot record around ``series``."""
        return {
            "name": self.name,
            "kind": self.kind,
            "help": self.help,
            **fields,
            "series": series,
        }

    def samples(self) -> list[tuple[dict[str, str], float]]:  # pragma: no cover
        raise NotImplementedError

    def reset(self) -> None:  # pragma: no cover
        raise NotImplementedError


class _Scalar(Metric):
    """One float per label set: the shared half of Counter and Gauge."""

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        self._values: dict[tuple, float] = {}

    def _add(self, amount: float, key: tuple) -> None:
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
        return self._record(
            [{"labels": labels, "value": v} for labels, v in self.samples()]
        )

    def reset(self) -> None:
        with self._lock:
            self._values.clear()


class Counter(_Scalar):
    """Monotonically increasing count (per label set)."""

    kind = "counter"

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self._add(amount, _label_key(labels))

    def _fold(self, row: dict, key: tuple, captured_at: float) -> None:
        """Merge one snapshot series: values **add**."""
        if row["value"]:
            self._add(float(row["value"]), key)


class Gauge(_Scalar):
    """A value that goes up and down (pending queue depth, resident bytes)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        super().__init__(name, help)
        #: Per-series ``captured_at`` of the latest applied merge; local
        #: writes do not stamp, so merges resolve against each other by
        #: snapshot time while label disjointness (the fleet's
        #: shard/incarnation labels) keeps local and remote series apart.
        self._stamps: dict[tuple, float] = {}

    def set(self, value: float, **labels: str) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def add(self, amount: float, **labels: str) -> None:
        self._add(amount, _label_key(labels))

    def _fold(self, row: dict, key: tuple, captured_at: float) -> None:
        """Merge one snapshot series: the later ``captured_at`` wins, so
        two snapshots merged in either order converge (ties go to the
        merge applied later, matching in-order heartbeat delivery)."""
        with self._lock:
            if captured_at >= self._stamps.get(key, float("-inf")):
                self._values[key] = float(row["value"])
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
        if not _valid_buckets(buckets):
            raise ValueError(
                f"bucket bounds {buckets!r} must be non-empty, strictly "
                "increasing and finite (+Inf is implicit)"
            )
        self.buckets = tuple(float(b) for b in buckets)
        self._series: dict[tuple, _HistSeries] = {}

    def _series_for(self, key: tuple) -> _HistSeries:
        """The series at ``key``, created empty (caller holds the lock)."""
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistSeries(len(self.buckets))
        return series

    def observe(self, value: float, **labels: str) -> None:
        key = _label_key(labels)
        with self._lock:
            series = self._series_for(key)
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

    def _counts(self, labels: dict[str, str]) -> tuple[list[int], int]:
        with self._lock:
            series = self._series.get(_label_key(labels))
            if series is None:
                return [], 0
            return list(series.bucket_counts), series.count

    def quantile(self, q: float, **labels: str) -> float:
        """Estimated ``q``-quantile (0..1); see :func:`bucket_quantile`."""
        return bucket_quantile(self.buckets, *self._counts(labels), q)

    def percentiles(self, **labels: str) -> dict[str, float]:
        """The standard p50/p95/p99 triple."""
        return bucket_percentiles(self.buckets, *self._counts(labels))

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
        rows = [
            {"labels": labels, "bucket_counts": counts, "sum": s, "count": n}
            for labels, counts, s, n in self.series()
        ]
        return self._record(rows, buckets=list(self.buckets))

    def _fold(self, row: dict, key: tuple, captured_at: float) -> None:
        """Merge one snapshot series taken against these bucket bounds:
        bucket counts, sum and count **add**."""
        with self._lock:
            series = self._series_for(key)
            for i, c in enumerate(row["bucket_counts"]):
                series.bucket_counts[i] += c
            series.sum += float(row["sum"])
            series.count += row["count"]

    def reset(self) -> None:
        with self._lock:
            self._series.clear()


_KINDS: dict[str, type[Metric]] = {
    "counter": Counter,
    "gauge": Gauge,
    "histogram": Histogram,
}


def _validate_row(row, kind: str, buckets, where: str, errors: list[str]) -> None:
    if not isinstance(row, dict):
        errors.append(f"{where}: not a JSON object")
        return
    labels = row.get("labels", {})
    if not isinstance(labels, dict):
        errors.append(f"{where}: labels must be an object")
        labels = {}
    for k, v in labels.items():
        if not isinstance(k, str) or not _LABEL_RE.match(k):
            errors.append(f"{where}: invalid label name {k!r}")
        if not isinstance(v, str):
            errors.append(f"{where}: label {k!r} value must be a string")
    if kind != "histogram":
        if not _is_num(row.get("value")):
            errors.append(f"{where}: value must be a number")
        elif kind == "counter" and row["value"] < 0:
            errors.append(f"{where}: counter value must be non-negative")
        return
    counts = row.get("bucket_counts")
    if (
        not isinstance(counts, list)
        or not all(isinstance(c, int) and c >= 0 for c in counts)
        or len(counts) != len(buckets) + 1
    ):
        errors.append(
            f"{where}: bucket_counts must be {len(buckets) + 1} non-negative integers"
        )
    elif not isinstance(row.get("count"), int) or row["count"] != sum(counts):
        errors.append(f"{where}: count must equal the bucket_counts total")
    if not _is_num(row.get("sum")):
        errors.append(f"{where}: sum must be a number")


def validate_metrics_snapshot(doc) -> list[str]:
    """Schema-check a parsed registry snapshot (or snapshot delta).

    The one snapshot check: :meth:`MetricsRegistry.merge_snapshot` folds
    a document in only when this returns no errors.
    """
    if not isinstance(doc, dict):
        return ["snapshot is not a JSON object"]
    errors: list[str] = []
    if doc.get("schema") != METRICS_SNAPSHOT_SCHEMA:
        errors.append(
            f"schema is {doc.get('schema')!r}, expected {METRICS_SNAPSHOT_SCHEMA!r}"
        )
    if not _is_num(doc.get("captured_at")):
        errors.append("captured_at must be a number")
    metrics = doc.get("metrics")
    if not isinstance(metrics, list):
        return errors + ["metrics must be a list"]
    names: set[str] = set()
    for i, rec in enumerate(metrics):
        where = f"metric #{i}"
        if not isinstance(rec, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        name = rec.get("name")
        if not isinstance(name, str) or not _NAME_RE.match(name):
            errors.append(f"{where}: invalid metric name {name!r}")
            continue
        where = f"metric {name!r}"
        if name in names:
            errors.append(f"{where}: duplicate metric record")
        names.add(name)
        if not isinstance(rec.get("help", ""), str):
            errors.append(f"{where}: help must be a string")
        kind = rec.get("kind")
        if kind not in _KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        series = rec.get("series")
        if not isinstance(series, list):
            errors.append(f"{where}: series must be a list")
            continue
        buckets = rec.get("buckets")
        if kind == "histogram" and not (
            isinstance(buckets, list) and _valid_buckets(buckets)
        ):
            errors.append(
                f"{where}: buckets must be a strictly increasing list of finite numbers"
            )
            continue
        for j, row in enumerate(series):
            _validate_row(row, kind, buckets, f"{where} series #{j}", errors)
    return errors


class MetricsRegistry:
    """Named metric families, get-or-create, resettable.

    One process-global instance backs :func:`get_metrics`; tests either
    ``reset()`` it or swap a private one in with :func:`set_metrics`.
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Metric] = {}
        self._lock = threading.Lock()

    def _register(
        self, name: str, kind: str, help: str, buckets=DEFAULT_BUCKETS
    ) -> Metric:
        """Get-or-create ``name`` as ``kind`` (caller holds the lock)."""
        existing = self._metrics.get(name)
        if existing is not None:
            if existing.kind != kind:
                raise MetricTypeError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {kind}"
                )
            return existing
        cls = _KINDS[kind]
        metric = cls(name, help, buckets) if cls is Histogram else cls(name, help)
        self._metrics[name] = metric
        return metric

    def _get_or_create(
        self, name: str, kind: str, help: str, buckets=DEFAULT_BUCKETS
    ) -> Metric:
        with self._lock:
            return self._register(name, kind, help, buckets)

    def metric(self, name: str):
        """The catalogued family ``name``, created from :data:`CATALOG` on
        first use.  Raises ``KeyError`` for a name not in the catalog.

        A hit is one dict lookup, without the registry lock.
        """
        family = self._metrics.get(name)
        if family is None or family.kind != CATALOG[name].kind:
            spec = CATALOG[name]
            family = self._get_or_create(name, spec.kind, spec.help, spec.buckets)
        return family

    def counter(self, name: str, help: str = "") -> Counter:
        return self._get_or_create(name, "counter", help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        return self._get_or_create(name, "gauge", help)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_create(name, "histogram", help, buckets)

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

        All or nothing: nothing is folded until the whole document passes
        :func:`validate_metrics_snapshot` (else :class:`SnapshotSchemaError`)
        and every record agrees with the family already registered under
        its name (else :class:`MetricTypeError` on a kind clash,
        :class:`BucketMismatchError` on differing histogram bounds).
        Families are get-or-created by name, so a fresh registry accepts
        any valid snapshot.  ``extra_labels`` is stamped onto every merged
        series and wins on collision, so a worker-side label cannot spoof
        the fleet registry's ``shard``/``incarnation`` stamp.
        """
        errors = validate_metrics_snapshot(snap)
        if errors:
            raise SnapshotSchemaError("; ".join(errors))
        records = snap["metrics"]
        with self._lock:
            for rec in records:
                existing = self._metrics.get(rec["name"])
                if existing is None:
                    continue
                if existing.kind != rec["kind"]:
                    raise MetricTypeError(
                        f"cannot merge {rec['kind']} record into "
                        f"{existing.kind} {existing.name!r}"
                    )
                if isinstance(existing, Histogram) and existing.buckets != tuple(
                    float(b) for b in rec["buckets"]
                ):
                    raise BucketMismatchError(
                        f"histogram {existing.name!r}: snapshot buckets "
                        f"{rec['buckets']} do not match registered buckets "
                        f"{existing.buckets}"
                    )
            families = [
                self._register(
                    rec["name"],
                    rec["kind"],
                    rec.get("help", ""),
                    rec.get("buckets", DEFAULT_BUCKETS),
                )
                for rec in records
            ]
        captured_at = float(snap["captured_at"])
        for family, rec in zip(families, records):
            for row in rec["series"]:
                labels = {**row.get("labels", {}), **(extra_labels or {})}
                family._fold(row, _label_key(labels), captured_at)


def _series_key(row: dict) -> tuple:
    return tuple(sorted(row["labels"].items()))


def _diff_row(kind: str, row: dict, prev: dict | None) -> dict | None:
    """One series' accrual since ``prev``; None when nothing accrued.

    A shrink means the source series was reset (fresh process), so the
    absolute restart value ships rather than a negative delta.
    """
    if kind == "counter":
        value = row["value"]
        if prev is not None and value >= prev["value"]:
            value -= prev["value"]
        return {**row, "value": value} if value else None
    counts, total, hsum = row["bucket_counts"], row["count"], row["sum"]
    if prev is not None:
        deltas = [c - p for c, p in zip(counts, prev["bucket_counts"])]
        if min(deltas) >= 0 and total >= prev["count"]:
            counts, total, hsum = deltas, total - prev["count"], hsum - prev["sum"]
    if not total and not any(counts):
        return None
    return {**row, "bucket_counts": counts, "sum": hsum, "count": total}


def diff_snapshot(current: dict, previous: dict | None) -> dict:
    """Delta-encode registry snapshot ``current`` against ``previous``.

    The result is itself a mergeable snapshot: counters and histogram
    series carry only what accrued since ``previous`` (a reset — the
    value shrank — ships the absolute restart value), gauges always ride
    absolute, and series that contribute nothing are dropped, so an idle
    worker's heartbeat delta is empty.
    """
    if previous is None:
        return current
    prev_by_name = {m["name"]: m for m in previous["metrics"]}
    out: list[dict] = []
    for rec in current["metrics"]:
        kind = rec["kind"]
        if kind == "gauge":
            if rec["series"]:
                out.append(rec)
            continue
        prev = prev_by_name.get(rec["name"], {})
        if (prev.get("kind"), prev.get("buckets")) != (kind, rec.get("buckets")):
            prev = {}  # new, or changed kind/buckets across a restart: absolute
        prev_rows = {_series_key(r): r for r in prev.get("series", ())}
        rows = [
            d
            for row in rec["series"]
            if (d := _diff_row(kind, row, prev_rows.get(_series_key(row))))
        ]
        if rows:
            out.append({**rec, "series": rows})
    return {
        "schema": current["schema"],
        "captured_at": current["captured_at"],
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
