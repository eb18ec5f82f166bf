"""Structured tracing: spans, span buffers, and the tracer.

One :class:`Span` is a named, timed interval with attributes and point
events, linked into a trace by ``(trace_id, span_id, parent_id)``.  A
:class:`Tracer` hands out spans either as context managers (nested spans
auto-parent through a :mod:`contextvars` slot within one thread) or
retroactively via :meth:`Tracer.add_span` when the caller already holds
the timestamps (the serving executor records queue/kernel children in
its own clock domain after the fact).

Arming mirrors the :func:`repro.faults.maybe_inject` pattern: the
process-wide tracer defaults to :data:`NULL_TRACER`, whose every method
is a constant-time no-op, so instrumentation sites stay in production
code unconditionally.  ``set_tracer(Tracer())`` arms collection;
``use_tracer`` scopes it.

All timing comes from the tracer's injectable ``clock`` (default
``time.monotonic``) or from explicit ``*_s`` arguments, so tests and
chaos runs are deterministic with a :class:`ManualClock`.
"""

from __future__ import annotations

import contextvars
import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .metrics import get_metrics


class ManualClock:
    """Deterministic monotonic clock for tests: ``advance`` to move time."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)
        self._lock = threading.Lock()

    def __call__(self) -> float:
        with self._lock:
            return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time only moves forward")
        with self._lock:
            self._now += dt
            return self._now


@dataclass
class SpanEvent:
    """A point-in-time annotation inside a span (retry, route hop, trip)."""

    name: str
    t_s: float
    attrs: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "t_s": self.t_s, "attrs": dict(self.attrs)}


@dataclass
class Span:
    """One named, timed interval of a trace."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    start_s: float
    end_s: float | None = None
    attrs: dict = field(default_factory=dict)
    events: list[SpanEvent] = field(default_factory=list)

    @property
    def duration_s(self) -> float:
        return (self.end_s - self.start_s) if self.end_s is not None else 0.0

    @property
    def ended(self) -> bool:
        return self.end_s is not None

    def set_attr(self, key: str, value) -> None:
        self.attrs[key] = value

    def add_event(self, name: str, t_s: float, **attrs) -> SpanEvent:
        ev = SpanEvent(name=name, t_s=t_s, attrs=attrs)
        self.events.append(ev)
        return ev

    def to_dict(self) -> dict:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "attrs": dict(self.attrs),
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, rec: dict) -> "Span":
        """Rebuild a span from its :meth:`to_dict` record.

        Used by the shard router to ingest spans shipped over the wire
        from worker processes into the local buffer.
        """
        span = cls(
            trace_id=rec["trace_id"],
            span_id=rec["span_id"],
            parent_id=rec.get("parent_id"),
            name=rec["name"],
            start_s=rec["start_s"],
            end_s=rec.get("end_s"),
            attrs=dict(rec.get("attrs") or {}),
        )
        for ev in rec.get("events", ()):
            span.events.append(
                SpanEvent(
                    name=ev["name"], t_s=ev["t_s"], attrs=dict(ev.get("attrs") or {})
                )
            )
        return span


#: Default :class:`SpanBuffer` capacity.  At ~1 KiB per serialized span
#: this bounds an undrained armed tracer near 100 MiB instead of letting
#: a long traced shard-tier run grow without limit.
DEFAULT_MAX_SPANS = 100_000


class SpanBuffer:
    """Thread-safe in-memory sink of completed spans, bounded.

    A full buffer drops the *incoming* span (keeping the earliest ones
    preserves trace roots, so parent resolution of what survives still
    works), counts it in :attr:`dropped`, and increments the
    ``repro_obs_spans_dropped_total`` counter.  ``max_spans=None``
    disables the bound.
    """

    def __init__(self, max_spans: int | None = DEFAULT_MAX_SPANS) -> None:
        if max_spans is not None and max_spans < 1:
            raise ValueError("max_spans must be >= 1 (or None for unbounded)")
        self.max_spans = max_spans
        self.dropped = 0
        self._spans: list[Span] = []
        self._lock = threading.Lock()

    def add(self, span: Span) -> None:
        with self._lock:
            if self.max_spans is not None and len(self._spans) >= self.max_spans:
                self.dropped += 1
            else:
                self._spans.append(span)
                return
        # Outside the lock: the metrics registry takes its own.
        get_metrics().metric("repro_obs_spans_dropped_total").inc()

    def snapshot(self) -> list[Span]:
        with self._lock:
            return list(self._spans)

    def drain(self) -> list[Span]:
        with self._lock:
            out = self._spans
            self._spans = []
            return out

    def clear(self) -> None:
        with self._lock:
            self._spans.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: Ambient parent span for context-manager nesting (per thread/context).
_CURRENT: contextvars.ContextVar[Span | None] = contextvars.ContextVar(
    "repro_obs_current_span", default=None
)


class Tracer:
    """Produces and records :class:`Span` records.

    ``clock`` is the monotonic time source for implicit timestamps;
    explicit ``start_s``/``end_s``/``t_s`` arguments bypass it so
    callers timing work with their *own* injectable clock (the serving
    executor) stay in one consistent time domain.

    ``id_prefix`` namespaces every generated trace/span id.  Ids are
    process-local counters, so two processes contributing spans to one
    export (the shard tier: router + N workers) would collide without
    it; each worker tracer uses a ``w{shard}i{incarnation}.`` prefix.
    """

    #: Instrumentation sites may guard expensive attr construction on this.
    enabled = True

    def __init__(
        self,
        clock: Callable[[], float] = time.monotonic,
        buffer: SpanBuffer | None = None,
        id_prefix: str = "",
    ) -> None:
        self.clock = clock
        self.buffer = buffer if buffer is not None else SpanBuffer()
        self.id_prefix = id_prefix
        self._trace_ids = itertools.count(1)
        self._span_ids = itertools.count(1)

    # -- ids -------------------------------------------------------------------

    def new_trace_id(self) -> str:
        return f"{self.id_prefix}t{next(self._trace_ids):08x}"

    def _new_span_id(self) -> str:
        return f"{self.id_prefix}s{next(self._span_ids):08x}"

    # -- span lifecycle --------------------------------------------------------

    def start_span(
        self,
        name: str,
        parent: Span | None = None,
        trace_id: str | None = None,
        start_s: float | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Open a span (not yet recorded); end it with :meth:`end_span`.

        ``parent=None`` adopts the ambient context-manager span if one is
        active; a fresh ``trace_id`` is allocated for parentless spans.
        """
        if parent is None:
            parent = _CURRENT.get()
        if parent is not None:
            trace_id = parent.trace_id
        elif trace_id is None:
            trace_id = self.new_trace_id()
        return Span(
            trace_id=trace_id,
            span_id=self._new_span_id(),
            parent_id=parent.span_id if parent is not None else None,
            name=name,
            start_s=self.clock() if start_s is None else start_s,
            attrs=dict(attrs) if attrs else {},
        )

    def end_span(self, span: Span, end_s: float | None = None) -> None:
        """Close a span and record it; idempotent for already-ended spans."""
        if span.ended:
            return
        span.end_s = self.clock() if end_s is None else end_s
        if span.end_s < span.start_s:
            span.end_s = span.start_s
        self.buffer.add(span)

    @contextmanager
    def span(
        self,
        name: str,
        parent: Span | None = None,
        trace_id: str | None = None,
        attrs: dict | None = None,
    ) -> Iterator[Span]:
        """Context manager: open, make ambient, end + record on exit."""
        s = self.start_span(name, parent=parent, trace_id=trace_id, attrs=attrs)
        token = _CURRENT.set(s)
        try:
            yield s
        except BaseException:
            s.set_attr("error", True)
            raise
        finally:
            _CURRENT.reset(token)
            self.end_span(s)

    def add_span(
        self,
        name: str,
        start_s: float,
        end_s: float,
        parent: Span | None = None,
        trace_id: str | None = None,
        attrs: dict | None = None,
    ) -> Span:
        """Record a completed span retroactively from explicit timestamps."""
        s = self.start_span(
            name, parent=parent, trace_id=trace_id, start_s=start_s, attrs=attrs
        )
        self.end_span(s, end_s=end_s)
        return s

    def event(
        self,
        name: str,
        attrs: dict | None = None,
        span: Span | None = None,
        t_s: float | None = None,
    ) -> None:
        """Attach an event to ``span`` (or the ambient span).

        With no span in scope — a circuit breaker tripping outside any
        request — the event is recorded as an instant root span so it
        still lands in the export.
        """
        t = self.clock() if t_s is None else t_s
        target = span if span is not None else _CURRENT.get()
        if target is not None:
            target.add_event(name, t, **(attrs or {}))
            return
        self.add_span(name, start_s=t, end_s=t, attrs=attrs)

    @property
    def current_span(self) -> Span | None:
        return _CURRENT.get()


class _NullSpan:
    """Inert span: every mutator is a no-op, every read is empty."""

    __slots__ = ()
    trace_id = span_id = name = ""
    parent_id = None
    start_s = 0.0
    end_s: float | None = 0.0
    duration_s = 0.0
    ended = True
    attrs: dict = {}
    events: list = []

    def set_attr(self, key: str, value) -> None:
        pass

    def add_event(self, name: str, t_s: float, **attrs) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


NULL_SPAN = _NullSpan()


class _NullSpanContext:
    """Reusable, reentrant context manager yielding :data:`NULL_SPAN`."""

    __slots__ = ()

    def __enter__(self) -> _NullSpan:
        return NULL_SPAN

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_CM = _NullSpanContext()


class NullTracer:
    """Disarmed tracer: every call is a constant-time no-op.

    Mirrors ``FaultPlan.maybe_inject``'s disarmed cost: instrumentation
    left in production code costs an attribute load and a no-op call.
    """

    enabled = False
    clock = staticmethod(time.monotonic)
    buffer = SpanBuffer()  # class-level; stays empty

    def new_trace_id(self) -> str:
        return ""

    def start_span(self, name, parent=None, trace_id=None, start_s=None, attrs=None):
        return NULL_SPAN

    def end_span(self, span, end_s=None) -> None:
        pass

    def span(self, name, parent=None, trace_id=None, attrs=None):
        return _NULL_CM

    def add_span(self, name, start_s, end_s, parent=None, trace_id=None, attrs=None):
        return NULL_SPAN

    def event(self, name, attrs=None, span=None, t_s=None) -> None:
        pass

    @property
    def current_span(self):
        return None


NULL_TRACER = NullTracer()

#: Process-wide tracer consulted by instrumentation sites.
_TRACER: Tracer | NullTracer = NULL_TRACER
_TRACER_LOCK = threading.Lock()


def get_tracer() -> Tracer | NullTracer:
    """The armed process-wide tracer (:data:`NULL_TRACER` when off)."""
    return _TRACER


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Arm (or with ``None``/:data:`NULL_TRACER` disarm) the global tracer.

    Returns the previously armed tracer so callers can restore it.
    """
    global _TRACER
    with _TRACER_LOCK:
        previous = _TRACER
        _TRACER = tracer if tracer is not None else NULL_TRACER
    return previous


@contextmanager
def use_tracer(tracer: Tracer | NullTracer) -> Iterator[Tracer | NullTracer]:
    """Scope the process-wide tracer to one block (restores on exit)."""
    previous = set_tracer(tracer)
    try:
        yield tracer
    finally:
        set_tracer(previous)


def remote_parent(trace_id: str, span_id: str, name: str = "remote") -> Span:
    """A non-recorded stand-in for a span owned by another process.

    The shard router ships ``(trace_id, span_id)`` of its root
    ``serve.request`` span in the wire header; the worker wraps its
    executor submit in ``attach_span(remote_parent(...))`` so locally
    created spans parent under the router's root.  The stand-in itself
    is never ended or buffered — the owning process records the real
    span.
    """
    return Span(
        trace_id=trace_id, span_id=span_id, parent_id=None, name=name, start_s=0.0
    )


@contextmanager
def attach_span(span: Span | None) -> Iterator[Span | None]:
    """Make ``span`` the ambient parent for the block (restores on exit).

    Unlike :meth:`Tracer.span` this neither creates nor ends anything —
    it only sets the contextvar that ``start_span(parent=None)``
    consults, which is how a remote (or otherwise pre-existing) span
    becomes the parent of locally started ones.
    """
    token = _CURRENT.set(span)
    try:
        yield span
    finally:
        _CURRENT.reset(token)
