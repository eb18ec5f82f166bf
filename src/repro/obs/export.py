"""Exporters: JSONL span dumps and Prometheus text exposition.

Two on-disk artifacts (``python -m repro.obs`` validates both):

* **spans.jsonl** — one JSON object per completed span (the dict shape
  of :meth:`repro.obs.trace.Span.to_dict`), append-friendly and
  trivially greppable: ``jq 'select(.name=="serve.request")'``.
* **metrics.prom** — the :class:`~repro.obs.metrics.MetricsRegistry`
  rendered in Prometheus text exposition format 0.0.4 (``# HELP`` /
  ``# TYPE`` comments, escaped label values, cumulative histogram
  buckets ending at ``+Inf``), so a real scrape pipeline ingests it
  unchanged.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Iterable

from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .trace import Span, SpanBuffer, Tracer


def _spans_of(source) -> list[Span]:
    if isinstance(source, Tracer):
        return source.buffer.snapshot()
    if isinstance(source, SpanBuffer):
        return source.snapshot()
    return list(source)


def spans_to_jsonl(source: Tracer | SpanBuffer | Iterable[Span]) -> str:
    """Render spans as JSONL text (one compact JSON object per line)."""
    return "".join(
        json.dumps(span.to_dict(), sort_keys=True) + "\n" for span in _spans_of(source)
    )


def export_spans_jsonl(
    source: Tracer | SpanBuffer | Iterable[Span], path: str | Path
) -> int:
    """Write spans to ``path`` as JSONL; returns the span count."""
    spans = _spans_of(source)
    Path(path).write_text(spans_to_jsonl(spans))
    return len(spans)


# -- Prometheus text exposition ------------------------------------------------


def escape_label_value(value: str) -> str:
    """Escape a label value per the exposition format: ``\\``, ``"``, LF."""
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _escape_help(text: str) -> str:
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def _format_value(v: float) -> str:
    if v != v:  # NaN
        return "NaN"
    if v == math.inf:
        return "+Inf"
    if v == -math.inf:
        return "-Inf"
    if float(v).is_integer() and abs(v) < 1e15:
        return str(int(v))
    return repr(float(v))


def _format_labels(labels: dict[str, str], extra: dict[str, str] | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    inner = ",".join(
        f'{k}="{escape_label_value(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + inner + "}"


def render_prometheus(registry: MetricsRegistry) -> str:
    """The whole registry in text exposition format (0.0.4)."""
    lines: list[str] = []
    for metric in registry.metrics():
        if metric.help:
            lines.append(f"# HELP {metric.name} {_escape_help(metric.help)}")
        lines.append(f"# TYPE {metric.name} {metric.kind}")
        if isinstance(metric, Histogram):
            for labels, bucket_counts, total, count in metric.series():
                cumulative = 0
                bounds = [_format_value(b) for b in metric.buckets] + ["+Inf"]
                for bound, n in zip(bounds, bucket_counts):
                    cumulative += n
                    le = _format_labels(labels, {"le": bound})
                    lines.append(f"{metric.name}_bucket{le} {cumulative}")
                lines.append(
                    f"{metric.name}_sum{_format_labels(labels)} {_format_value(total)}"
                )
                lines.append(f"{metric.name}_count{_format_labels(labels)} {count}")
        elif isinstance(metric, (Counter, Gauge)):
            for labels, value in metric.samples():
                lines.append(
                    f"{metric.name}{_format_labels(labels)} {_format_value(value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def export_metrics(registry: MetricsRegistry, path: str | Path) -> str:
    """Write the exposition dump to ``path``; returns the rendered text."""
    text = render_prometheus(registry)
    Path(path).write_text(text)
    return text
