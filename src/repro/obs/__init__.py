"""Unified observability: structured tracing + metrics for the whole stack.

The paper's argument is an amortization/attribution story — one reorder
paid once, explained through Nsight-style counters — and this package is
the repro's equivalent instrument: one trace and one metrics namespace
spanning preprocessing (reorder/compress/load stages, plan-cache
outcomes), the plan registry (hit/miss/eviction), the batched serving
executor (queue wait → batch → kernel → fallback hops, retries), and the
fault layer (breaker transitions).

Five pieces (see docs/observability.md and docs/fleet_observability.md):

* **tracing** — :class:`Tracer` produces :class:`Span` records
  (trace/span/parent ids, attrs, events) into a thread-safe, bounded
  :class:`SpanBuffer`; the process-wide tracer defaults to
  :data:`NULL_TRACER` whose methods are constant-time no-ops, mirroring
  ``FaultPlan.maybe_inject``'s disarmed cost;
* **metrics** — :class:`Counter` / :class:`Gauge` / :class:`Histogram`
  (fixed buckets, interpolated p50/p95/p99) in a process-global but
  resettable :class:`MetricsRegistry`, every family declared once in
  :data:`repro.obs.metrics.CATALOG` and mergeable across processes via
  schema-stamped ``snapshot()`` / ``merge_snapshot()`` records;
* **fleet** — :class:`SnapshotShipper` delta-encodes a worker's registry
  per heartbeat, :class:`FleetMetrics` folds the deltas into one
  fleet-wide registry labeled ``(shard, incarnation)``, and the
  aggregation helpers answer cross-incarnation questions;
* **SLO** — :class:`SloPolicy` / :class:`SloTracker` evaluate
  deadline-miss budgets and p99 targets over sliding windows with
  fast/slow burn-rate rules, emitting structured :class:`SloAlert`
  events that can nudge admission control to shed best-effort load;
* **export** — JSONL span dumps and Prometheus text exposition, with
  :mod:`repro.obs.validate` (``python -m repro.obs``) to schema-check
  them.
"""

from .export import (
    escape_label_value,
    export_metrics,
    export_spans_jsonl,
    render_prometheus,
    spans_to_jsonl,
)
from .fleet import (
    FLEET_STATUS_SCHEMA,
    FleetMetrics,
    SnapshotShipper,
    counter_by,
    counter_total,
    histogram_aggregate,
    histogram_percentiles,
    histogram_quantile,
)
from .metrics import (
    DEFAULT_BUCKETS,
    METRICS_SNAPSHOT_SCHEMA,
    BucketMismatchError,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricTypeError,
    SnapshotError,
    SnapshotSchemaError,
    diff_snapshot,
    get_metrics,
    set_metrics,
    validate_metrics_snapshot,
)
from .slo import (
    SLO_ALERTS_SCHEMA,
    SloAlert,
    SloPolicy,
    SloTracker,
    alerts_to_jsonl,
    export_alerts_jsonl,
)
from .trace import (
    DEFAULT_MAX_SPANS,
    NULL_SPAN,
    NULL_TRACER,
    ManualClock,
    NullTracer,
    Span,
    SpanBuffer,
    SpanEvent,
    Tracer,
    attach_span,
    get_tracer,
    remote_parent,
    set_tracer,
    use_tracer,
)
from .validate import (
    validate_metrics_snapshot_text,
    validate_prometheus_text,
    validate_span_records,
    validate_spans_jsonl,
)

__all__ = [
    "escape_label_value",
    "export_metrics",
    "export_spans_jsonl",
    "render_prometheus",
    "spans_to_jsonl",
    "FLEET_STATUS_SCHEMA",
    "FleetMetrics",
    "SnapshotShipper",
    "counter_by",
    "counter_total",
    "histogram_aggregate",
    "histogram_percentiles",
    "histogram_quantile",
    "DEFAULT_BUCKETS",
    "METRICS_SNAPSHOT_SCHEMA",
    "BucketMismatchError",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricTypeError",
    "SnapshotError",
    "SnapshotSchemaError",
    "diff_snapshot",
    "get_metrics",
    "set_metrics",
    "SLO_ALERTS_SCHEMA",
    "SloAlert",
    "SloPolicy",
    "SloTracker",
    "alerts_to_jsonl",
    "export_alerts_jsonl",
    "DEFAULT_MAX_SPANS",
    "NULL_SPAN",
    "NULL_TRACER",
    "ManualClock",
    "NullTracer",
    "Span",
    "SpanBuffer",
    "SpanEvent",
    "Tracer",
    "attach_span",
    "get_tracer",
    "remote_parent",
    "set_tracer",
    "use_tracer",
    "validate_metrics_snapshot",
    "validate_metrics_snapshot_text",
    "validate_prometheus_text",
    "validate_span_records",
    "validate_spans_jsonl",
]
