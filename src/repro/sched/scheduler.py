"""SLO-aware scheduling policy: admission + EDF batch forming + routing.

:class:`Scheduler` is the policy object a
:class:`~repro.serve.executor.BatchExecutor` consults at its three
decision points:

* **admit** — at submit time, the per-tenant
  :class:`~repro.sched.tenancy.AdmissionController` may shed the
  request with a typed :class:`~repro.sched.errors.ThrottledError`;
* **form** — pending groups dispatch in **earliest-deadline-first**
  order weighted by priority class, and a group whose tightest
  deadline would expire before the linger window closes is *promoted*
  (dispatched early) instead of discovered-expired at dequeue;
* **route** — the :class:`~repro.sched.cost.CostModel` orders the
  fallback chain cheapest-measured-first, fed by the per-route kernel
  timings the executor already collects.

Every piece is optional: ``Scheduler()`` with no arguments gives EDF
forming alone; an executor with no scheduler at all keeps the original
FIFO/static behavior.  All time arrives through explicit ``now``
arguments so the scheduler shares the executor's injectable clock.
"""

from __future__ import annotations

import threading
from typing import Iterable

from repro.obs import get_metrics

from .cost import CostModel
from .tenancy import PRIORITY_WEIGHTS, AdmissionController

#: Weight assumed for tenants when no admission controller is configured.
DEFAULT_WEIGHT = PRIORITY_WEIGHTS["batch"]


def group_sort_key(
    weight: int, min_deadline_t: float | None, fallback_t: float
) -> tuple[int, float]:
    """EDF dispatch key for one ready group: ``(class weight, urgency)``.

    Priority class dominates; within a class, the group's tightest
    absolute deadline orders it, with deadline-less groups falling back
    to their linger expiry ``fallback_t``.  Sorting ready groups by this
    key can never place a lower-priority group ahead of a higher-priority
    one — the no-priority-inversion property the chaos suite asserts.
    """
    return (weight, min_deadline_t if min_deadline_t is not None else fallback_t)


class Scheduler:
    """Admission + EDF + cost-model policy bundle for the executor.

    ``promote_margin_s`` is how long before a request's deadline its
    group is promoted: large enough to cover dispatch + launch, small
    enough not to defeat batching.  ``edf=False`` keeps FIFO forming
    while retaining admission and routing (useful for baselines).
    """

    def __init__(
        self,
        admission: AdmissionController | None = None,
        cost_model: CostModel | None = None,
        edf: bool = True,
        promote_margin_s: float = 0.005,
    ) -> None:
        if promote_margin_s < 0:
            raise ValueError("promote_margin_s must be >= 0")
        self.admission = admission
        self.cost_model = cost_model
        self.edf = edf
        self.promote_margin_s = promote_margin_s
        self._promoted = 0
        self._lock = threading.Lock()

    # -- admission -------------------------------------------------------------

    def admit(self, tenant: str, now: float) -> None:
        """Shed or pass one request (raises :class:`ThrottledError`)."""
        if self.admission is not None:
            self.admission.admit(tenant, now)

    def weight(self, tenant: str) -> int:
        if self.admission is not None:
            return self.admission.weight(tenant)
        return DEFAULT_WEIGHT

    @property
    def throttled(self) -> int:
        return self.admission.throttled if self.admission is not None else 0

    def throttled_by_tenant(self) -> dict[str, int]:
        return (
            self.admission.throttled_by_tenant() if self.admission is not None else {}
        )

    # -- batch forming ---------------------------------------------------------

    def due_t(
        self, oldest_t: float, window_s: float, min_deadline_t: float | None
    ) -> float:
        """When a group should dispatch: linger expiry, or earlier if a
        deadline would otherwise be missed (EDF promotion)."""
        due = oldest_t + window_s
        if self.edf and min_deadline_t is not None:
            due = min(due, min_deadline_t - self.promote_margin_s)
        return due

    def note_promoted(self, n: int) -> None:
        """Count ``n`` requests dispatched early to protect their deadlines."""
        if n <= 0:
            return
        with self._lock:
            self._promoted += n
        get_metrics().metric("repro_sched_promoted_total").inc(n)

    @property
    def promoted(self) -> int:
        with self._lock:
            return self._promoted

    # -- routing ---------------------------------------------------------------

    def plan_routes(
        self, matrix: str, candidates: Iterable[str], cols: int
    ) -> list[str]:
        """Order the available routes for one group (cheapest first)."""
        cands = list(candidates)
        if self.cost_model is None or len(cands) <= 1:
            return cands
        ordered = self.cost_model.plan(matrix, cands, cols)
        get_metrics().metric("repro_sched_route_plans_total").inc(route=ordered[0])
        return ordered

    def observe(self, matrix: str, route: str, us: float, cols: int) -> None:
        """Feed one launch's measured kernel time back into the model."""
        if self.cost_model is not None:
            self.cost_model.observe(matrix, route, us, cols)
