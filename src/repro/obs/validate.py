"""Schema validation of exported observability artifacts.

Check spans, Prometheus text and fleet snapshots written by
:mod:`repro.obs.export` and :meth:`repro.obs.MetricsRegistry.snapshot`::

    python -m repro.obs --spans spans.jsonl --metrics metrics.prom

Span checks: every line parses, required fields are present and typed,
every span **ends** (``end_s`` set, ``>= start_s``), span ids are unique,
every ``parent_id`` resolves to a span of the *same* trace, and no trace
is an orphan (each has at least one root span).  Events must fall inside
their span's interval.

Exposition checks: every non-comment line matches the sample grammar
(label values are parsed quote-aware, so escaped newlines and literal
``}`` inside values are fine — per exposition format 0.0.4 only ``\\``,
``"`` and line feeds are escaped), ``# TYPE`` precedes its samples,
histogram buckets are cumulative (non-decreasing) and end with a
``+Inf`` bucket equal to ``_count``.

Fleet-snapshot checks (``--fleet-snapshot fleet.json``, a
:class:`~repro.obs.FleetMetrics` registry's ``snapshot()``) run
:func:`repro.obs.metrics.validate_metrics_snapshot`, the same check
``merge_snapshot`` applies before folding a snapshot in.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Iterable

from .metrics import validate_metrics_snapshot

_REQUIRED_SPAN_FIELDS = ("trace_id", "span_id", "name", "start_s", "end_s")

_METRIC_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*")
# Go strconv.ParseFloat grammar (what Prometheus accepts): optional
# sign, digits with optional fraction, optional signed exponent — tiny
# histogram sums render like ``1.2e-06``, so the exponent sign matters.
_SAMPLE_VALUE_RE = re.compile(
    r"^([+-]?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][+-]?[0-9]+)?|[+-]?Inf|NaN)$"
)
_LABEL_ITEM_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def _scan_label_block(line: str, start: int) -> int | None:
    """Index one past the ``}`` closing the label block at ``start``.

    Quote-aware: per exposition format 0.0.4 only ``\\``, ``"`` and LF
    are escaped inside label values — a literal ``}`` is legal, so the
    closing brace is the first one *outside* quotes (a naive
    ``\\{[^}]*\\}`` regex truncates such values).
    """
    i = start + 1
    in_quotes = False
    while i < len(line):
        ch = line[i]
        if in_quotes:
            if ch == "\\":
                i += 2
                continue
            if ch == '"':
                in_quotes = False
        elif ch == '"':
            in_quotes = True
        elif ch == "}":
            return i + 1
        i += 1
    return None


def _split_sample(line: str) -> tuple[str, str | None, str] | None:
    """Split a sample line into (name, raw label block, value string)."""
    m = _METRIC_NAME_RE.match(line)
    if m is None:
        return None
    name = m.group(0)
    pos = m.end()
    labels_raw: str | None = None
    if pos < len(line) and line[pos] == "{":
        end = _scan_label_block(line, pos)
        if end is None:
            return None
        labels_raw = line[pos:end]
        pos = end
    if pos >= len(line) or line[pos] != " ":
        return None
    value = line[pos + 1 :]
    if not _SAMPLE_VALUE_RE.match(value):
        return None
    return name, labels_raw, value


def validate_span_records(records: Iterable[dict]) -> list[str]:
    """Schema-check parsed span dicts; returns a list of error strings."""
    errors: list[str] = []
    spans = list(records)
    by_trace: dict[str, dict[str, dict]] = {}
    seen_ids: set[str] = set()
    for i, rec in enumerate(spans):
        where = f"span #{i}"
        missing = [f for f in _REQUIRED_SPAN_FIELDS if f not in rec]
        if missing:
            errors.append(f"{where}: missing fields {missing}")
            continue
        where = f"span #{i} ({rec.get('name')!r}, id={rec.get('span_id')!r})"
        if rec["end_s"] is None:
            errors.append(f"{where}: never ended (end_s is null)")
            continue
        if not isinstance(rec["start_s"], (int, float)) or not isinstance(
            rec["end_s"], (int, float)
        ):
            errors.append(f"{where}: non-numeric start_s/end_s")
            continue
        if rec["end_s"] < rec["start_s"]:
            errors.append(f"{where}: ends before it starts")
        sid = rec["span_id"]
        if sid in seen_ids:
            errors.append(f"{where}: duplicate span_id")
        seen_ids.add(sid)
        by_trace.setdefault(rec["trace_id"], {})[sid] = rec
        for ev in rec.get("events", ()):
            if not isinstance(ev, dict) or "name" not in ev or "t_s" not in ev:
                errors.append(f"{where}: malformed event {ev!r}")
                continue
            if not rec["start_s"] <= ev["t_s"] <= rec["end_s"]:
                errors.append(
                    f"{where}: event {ev['name']!r} at {ev['t_s']} outside span"
                )
    for trace_id, members in sorted(by_trace.items()):
        roots = [r for r in members.values() if r.get("parent_id") is None]
        if not roots:
            errors.append(f"trace {trace_id!r}: orphan trace (no root span)")
        for rec in members.values():
            parent = rec.get("parent_id")
            if parent is not None and parent not in members:
                errors.append(
                    f"trace {trace_id!r}: span {rec['span_id']!r} parent "
                    f"{parent!r} does not resolve within the trace"
                )
    return errors


def validate_spans_jsonl(text: str) -> list[str]:
    """Parse + schema-check a JSONL span export."""
    errors: list[str] = []
    records: list[dict] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {lineno}: invalid JSON ({exc.msg})")
            continue
        if not isinstance(rec, dict):
            errors.append(f"line {lineno}: not a JSON object")
            continue
        records.append(rec)
    return errors + validate_span_records(records)


def _parse_labels(raw: str | None) -> dict[str, str] | None:
    """Parse a ``{k="v",...}`` block; None on malformed content."""
    if raw is None:
        return {}
    body = raw[1:-1].strip()
    if not body:
        return {}
    out: dict[str, str] = {}
    pos = 0
    while pos < len(body):
        m = _LABEL_ITEM_RE.match(body, pos)
        if m is None:
            return None
        out[m.group(1)] = m.group(2)
        pos = m.end()
        if pos < len(body):
            if body[pos] != ",":
                return None
            pos += 1
    return out


def validate_prometheus_text(text: str) -> list[str]:
    """Check an exposition dump for malformed lines and histogram shape."""
    errors: list[str] = []
    types: dict[str, str] = {}
    # (base name, labels-minus-le) -> list of (le, cumulative count)
    hist_buckets: dict[tuple[str, tuple], list[tuple[float, float]]] = {}
    hist_counts: dict[tuple[str, tuple], float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            if len(parts) != 4 or parts[3] not in ("counter", "gauge", "histogram"):
                errors.append(f"line {lineno}: malformed TYPE comment")
                continue
            types[parts[2]] = parts[3]
            continue
        if line.startswith("#"):
            errors.append(f"line {lineno}: unknown comment {line!r}")
            continue
        sample = _split_sample(line)
        if sample is None:
            errors.append(f"line {lineno}: malformed sample line {line!r}")
            continue
        name, labels_raw, value_str = sample
        labels = _parse_labels(labels_raw)
        if labels is None:
            errors.append(f"line {lineno}: malformed label block in {line!r}")
            continue
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        if base not in types:
            errors.append(f"line {lineno}: sample {name!r} has no TYPE comment")
            continue
        if types.get(base) == "histogram" and name == f"{base}_bucket":
            le = labels.pop("le", None)
            if le is None:
                errors.append(f"line {lineno}: histogram bucket without le label")
                continue
            bound = float("inf") if le == "+Inf" else float(le)
            key = (base, tuple(sorted(labels.items())))
            hist_buckets.setdefault(key, []).append((bound, float(value_str)))
        elif types.get(base) == "histogram" and name == f"{base}_count":
            key = (base, tuple(sorted(labels.items())))
            hist_counts[key] = float(value_str)
    for key, buckets in sorted(hist_buckets.items()):
        name = f"{key[0]}{dict(key[1]) or ''}"
        bounds = [b for b, _ in buckets]
        counts = [c for _, c in buckets]
        if bounds != sorted(bounds):
            errors.append(f"histogram {name}: bucket bounds out of order")
        if counts != sorted(counts):
            errors.append(f"histogram {name}: bucket counts are not cumulative")
        if not bounds or bounds[-1] != float("inf"):
            errors.append(f"histogram {name}: missing +Inf bucket")
        elif key in hist_counts and counts[-1] != hist_counts[key]:
            errors.append(
                f"histogram {name}: +Inf bucket ({counts[-1]:.0f}) != "
                f"_count ({hist_counts[key]:.0f})"
            )
    return errors


def validate_metrics_snapshot_text(text: str) -> list[str]:
    """Parse + schema-check a JSON registry-snapshot export."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"invalid JSON ({exc.msg})"]
    return validate_metrics_snapshot(doc)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.validate",
        description="Schema-validate exported spans.jsonl / metrics.prom artifacts",
    )
    parser.add_argument("--spans", type=Path, default=None, help="JSONL span export")
    parser.add_argument(
        "--metrics", type=Path, default=None, help="Prometheus exposition dump"
    )
    parser.add_argument(
        "--fleet-snapshot",
        type=Path,
        default=None,
        help="fleet metrics snapshot JSON (a FleetMetrics registry snapshot)",
    )
    args = parser.parse_args(argv)
    checks = [
        (path, check, ok)
        for path, check, ok in (
            (args.spans, validate_spans_jsonl, "{n} spans ok"),
            (args.metrics, validate_prometheus_text, "exposition ok"),
            (args.fleet_snapshot, validate_metrics_snapshot_text, "fleet snapshot ok"),
        )
        if path is not None
    ]
    if not checks:
        parser.error(
            "nothing to validate: pass --spans, --metrics and/or --fleet-snapshot"
        )
    failed = False
    for path, check, ok in checks:
        text = path.read_text()
        errors = check(text)
        failed = failed or bool(errors)
        for e in errors:
            print(f"{path}: {e}", file=sys.stderr)
        if not errors:
            n = sum(1 for line in text.splitlines() if line.strip())
            print(f"{path}: {ok.format(n=n)}")
    return 1 if failed else 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
