"""Circuit breakers steering traffic onto fallback routes under faults.

One :class:`CircuitBreaker` guards one (matrix, route) pair in the
executor.  Repeated failures of the Jigsaw kernel for a matrix trip its
``jigsaw`` breaker and the group's traffic falls to the hybrid route;
repeated hybrid failures trip to dense.  After ``cooldown_s`` the
breaker goes *half-open* and admits a single probe batch — success
re-closes it (the fast path is restored), failure re-opens it for
another cooldown.

States follow the classic pattern:

* ``closed`` — traffic flows; ``failure_threshold`` consecutive
  failures trip to open.
* ``open`` — traffic is refused until ``cooldown_s`` elapses.
* ``half_open`` — exactly one probe is admitted at a time; its outcome
  decides closed vs. open.  A probe whose caller never reports an
  outcome (executor torn down mid-probe, a non-route exception between
  ``allow()`` and the record call) is reclaimed after ``probe_ttl_s``
  so the breaker cannot wedge half-open forever.
"""

from __future__ import annotations

import threading
from time import monotonic
from typing import Callable

from repro.obs import get_metrics, get_tracer

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Closed/open/half-open breaker with a single-probe half-open state.

    ``clock`` is injectable for deterministic tests (defaults to
    ``time.monotonic``).  ``name`` labels the breaker in emitted
    observability events (the executor uses ``"matrix/route"``); every
    state transition is emitted as a ``breaker.transition`` trace event
    and counted in ``repro_breaker_transitions_total``.

    ``probe_ttl_s`` bounds how long a half-open probe slot may stay
    claimed without a ``record_success``/``record_failure``: after the
    TTL the slot is handed to the next ``allow()`` caller.  ``None``
    defaults to ``cooldown_s`` — an abandoned probe then costs no more
    wall time than an open period would have.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 0.25,
        clock: Callable[[], float] = monotonic,
        name: str = "",
        probe_ttl_s: float | None = None,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        if cooldown_s < 0:
            raise ValueError("cooldown_s must be >= 0")
        if probe_ttl_s is not None and probe_ttl_s < 0:
            raise ValueError("probe_ttl_s must be >= 0 (or None for cooldown_s)")
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_ttl_s = cooldown_s if probe_ttl_s is None else probe_ttl_s
        self.clock = clock
        self.name = name
        self.trips = 0
        self._state = CLOSED
        self._failures = 0
        self._opened_at = 0.0
        self._probe_in_flight = False
        self._probe_started_at = 0.0
        self._lock = threading.Lock()

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def _emit_transition(self, old: str, new: str) -> None:
        """Emit one state transition (called outside the breaker lock)."""
        get_tracer().event(
            "breaker.transition",
            attrs={"breaker": self.name, "from": old, "to": new},
        )
        get_metrics().metric("repro_breaker_transitions_total").inc(to=new)

    def allow(self) -> bool:
        """Whether a request (or probe) may take this route now."""
        transition = None
        with self._lock:
            if self._state == CLOSED:
                return True
            if self._state == OPEN:
                if self.clock() - self._opened_at < self.cooldown_s:
                    return False
                transition = (OPEN, HALF_OPEN)
                self._state = HALF_OPEN
                self._probe_in_flight = True
                self._probe_started_at = self.clock()
            elif self._probe_in_flight:
                # Half-open: one probe at a time — but an abandoned
                # probe (no outcome ever recorded) releases its slot
                # after the TTL so the breaker cannot wedge.
                if self.clock() - self._probe_started_at < self.probe_ttl_s:
                    return False
                self._probe_started_at = self.clock()
            else:
                self._probe_in_flight = True
                self._probe_started_at = self.clock()
        if transition is not None:
            self._emit_transition(*transition)
        return True

    def record_success(self) -> None:
        transition = None
        with self._lock:
            if self._state != CLOSED:
                transition = (self._state, CLOSED)
            self._failures = 0
            self._probe_in_flight = False
            self._state = CLOSED
        if transition is not None:
            self._emit_transition(*transition)

    def record_failure(self) -> None:
        transition = None
        with self._lock:
            self._probe_in_flight = False
            if self._state == CLOSED:
                self._failures += 1
                if self._failures < self.failure_threshold:
                    return
                self.trips += 1
            elif self._state == HALF_OPEN:
                self.trips += 1
            if self._state != OPEN:
                transition = (self._state, OPEN)
            self._state = OPEN
            self._failures = 0
            self._opened_at = self.clock()
        if transition is not None:
            self._emit_transition(*transition)


class BreakerBoard:
    """Lazy per-key :class:`CircuitBreaker` collection.

    The executor keys breakers by ``(matrix, route)``; a key's breaker is
    created closed on first use.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_s: float = 0.25,
        clock: Callable[[], float] = monotonic,
        probe_ttl_s: float | None = None,
    ) -> None:
        self.failure_threshold = failure_threshold
        self.cooldown_s = cooldown_s
        self.probe_ttl_s = probe_ttl_s
        self.clock = clock
        self._breakers: dict[tuple[str, str], CircuitBreaker] = {}
        self._lock = threading.Lock()

    def get(self, matrix: str, route: str) -> CircuitBreaker:
        key = (matrix, route)
        with self._lock:
            br = self._breakers.get(key)
            if br is None:
                br = CircuitBreaker(
                    failure_threshold=self.failure_threshold,
                    cooldown_s=self.cooldown_s,
                    clock=self.clock,
                    name=f"{matrix}/{route}",
                    probe_ttl_s=self.probe_ttl_s,
                )
                self._breakers[key] = br
            return br

    def snapshot(self) -> dict[str, str]:
        """Current state per key, rendered as ``"matrix/route" -> state``."""
        with self._lock:
            items = list(self._breakers.items())
        return {f"{m}/{r}": br.state for (m, r), br in items}

    @property
    def trips(self) -> int:
        with self._lock:
            return sum(br.trips for br in self._breakers.values())
