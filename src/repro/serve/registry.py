"""Budgeted in-memory plan registry with LRU eviction.

The paper's economics (Sections 3.1, 4.5) amortize one reorder over many
SpMM launches — which only works if the preprocessed plan is *there*
when a request arrives.  A serving process holds many stationary weight
matrices but cannot keep every compressed format resident, so
:class:`PlanRegistry` manages the derived preprocessing artifacts (the
per-BLOCK_TILE :class:`~repro.core.format.JigsawMatrix` formats a
:class:`~repro.core.api.JigsawPlan` builds) under a configurable byte
budget with least-recently-used eviction.

The raw weight matrices belong to the model and are registered once;
only the derived formats count against the budget.  When the registry is
constructed with ``cache_dir``, every resident plan persists its formats
through PR 1's on-disk plan cache, so an evicted plan's re-admission
loads the artifacts and performs **zero reorder work** — eviction trades
memory for a disk load, never for a recompute.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from pathlib import Path

import numpy as np

from repro.core.api import JigsawPlan
from repro.core.tiles import BLOCK_TILE_SIZES
from repro.faults import FaultPlan, maybe_inject
from repro.obs import get_metrics, get_tracer

from .stats import RegistryStats

#: Fixed per-plan accounting overhead (object + stats bookkeeping),
#: so even a plan with no formats built yet has nonzero cost.
PLAN_OVERHEAD_BYTES = 1024


def plan_resident_bytes(plan: JigsawPlan) -> int:
    """Bytes the registry charges one resident plan: the storage of its
    built formats (rigid 2:4 *and* any resolved V:N:M storage) plus a
    fixed overhead.  Grows as v4's autotune builds more BLOCK_TILE
    formats or the ``jigsaw@vnm`` route resolves its compressed layout,
    so the budget is re-enforced after runs."""
    total = PLAN_OVERHEAD_BYTES
    for jm in plan._formats.values():
        total += jm.storage_bytes()["total"]
    # Charged only once resolved: the accounting read never forces a
    # V:N:M detection sweep (see JigsawPlan.vnm_resident_bytes).
    total += plan.vnm_resident_bytes()
    return total


class PlanRegistry:
    """Named :class:`JigsawPlan` store under a memory budget.

    ``budget_bytes=None`` disables eviction.  A budget smaller than one
    plan still serves: the most-recently-used plan is never evicted, so
    the working plan stays resident while everything else spills.
    """

    def __init__(
        self,
        budget_bytes: int | None = None,
        cache_dir: str | Path | None = None,
        block_tiles: tuple[int, ...] = BLOCK_TILE_SIZES,
        avoid_bank_conflicts: bool = True,
        workers: int | None = None,
        fault_plan: FaultPlan | None = None,
        quarantine_max_bytes: int | None = None,
        quarantine_max_files: int | None = None,
    ) -> None:
        if budget_bytes is not None and budget_bytes <= 0:
            raise ValueError("budget_bytes must be positive (or None for unlimited)")
        self.budget_bytes = budget_bytes
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.block_tiles = tuple(block_tiles)
        self.avoid_bank_conflicts = avoid_bank_conflicts
        self.workers = workers
        self.fault_plan = fault_plan
        self.quarantine_max_bytes = quarantine_max_bytes
        self.quarantine_max_files = quarantine_max_files
        self.stats = RegistryStats()
        self._matrices: dict[str, np.ndarray] = {}
        self._plans: OrderedDict[str, JigsawPlan] = OrderedDict()
        #: Cached byte charge per resident plan + its running total.
        #: Plans grow lazily (v4 autotune builds more formats), so the
        #: cache is a *snapshot*: ``_recharge_locked`` re-measures every
        #: resident plan in one O(n) pass, after which budget loops and
        #: gauges read the cached values instead of re-walking all plans
        #: per iteration (the eviction loop used to be O(n^2)).
        self._entry_bytes: dict[str, int] = {}
        self._resident_total = 0
        #: Monotonic dynamic-sparsity version per matrix name (absent =
        #: 0).  Bumped by :meth:`apply_update`; admission passes it to
        #: the plan so artifact cache keys are version-qualified.
        self._versions: dict[str, int] = {}
        #: Version-qualified artifact paths of retired plan versions,
        #: kept on disk (both versions coexist) until :meth:`gc_stale`.
        self._stale_artifacts: dict[str, list[Path]] = {}
        self._lock = threading.RLock()
        #: reorder work done by plans that have since been evicted.
        self._retired_reorder_runs = 0
        self._retired_repairs = 0
        self._retired_cache_hits = 0
        self._retired_cache_misses = 0
        self._retired_quarantined = 0
        self._retired_quarantine_evicted = 0
        self._retired_store_failures = 0

    # -- matrices --------------------------------------------------------------

    def register(self, name: str, a: np.ndarray) -> None:
        """Register a stationary weight matrix under ``name``.

        Idempotent for identical content; re-registering different
        content under a taken name is an error (it would silently serve
        stale plans).
        """
        if a.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        mat = np.ascontiguousarray(a, dtype=np.float16)
        with self._lock:
            existing = self._matrices.get(name)
            if existing is not None:
                if existing.shape != mat.shape or not np.array_equal(existing, mat):
                    raise ValueError(
                        f"matrix {name!r} already registered with different content"
                    )
                return
            self._matrices[name] = mat

    def matrix(self, name: str) -> np.ndarray:
        try:
            return self._matrices[name]
        except KeyError:
            raise KeyError(
                f"unknown matrix {name!r}; register it first"
            ) from None

    def names(self) -> list[str]:
        return list(self._matrices)

    # -- plans -----------------------------------------------------------------

    def resident(self, name: str) -> bool:
        """Whether ``name``'s plan is currently in memory (no LRU touch)."""
        with self._lock:
            return name in self._plans

    def get(self, name: str) -> JigsawPlan:
        """The plan for ``name``: LRU-touched if resident, admitted if not.

        Admission of an evicted plan goes through the on-disk plan cache
        (when ``cache_dir`` is set), so it does zero reorder work.
        """
        maybe_inject("registry.get", self.fault_plan)
        lookups = get_metrics().metric("repro_registry_lookups_total")
        with self._lock:
            plan = self._plans.get(name)
            if plan is not None:
                self.stats.hits += 1
                lookups.inc(outcome="hit")
                self._plans.move_to_end(name)
                return plan
            self.stats.misses += 1
            lookups.inc(outcome="miss")
            with get_tracer().span("registry.admit", attrs={"matrix": name}):
                plan = JigsawPlan(
                    self.matrix(name),
                    block_tiles=self.block_tiles,
                    avoid_bank_conflicts=self.avoid_bank_conflicts,
                    workers=self.workers,
                    cache_dir=self.cache_dir,
                    fault_plan=self.fault_plan,
                    quarantine_max_bytes=self.quarantine_max_bytes,
                    quarantine_max_files=self.quarantine_max_files,
                    content_version=self._versions.get(name, 0),
                )
                self._plans[name] = plan
                self._charge_locked(name, plan)
                self._evict_over_budget(keep=name)
            self._update_gauges_locked()
            return plan

    def warm(self, name: str | None = None) -> None:
        """Build (or load) every BLOCK_TILE format for one or all names.

        Populates the on-disk plan cache so later evictions re-admit
        from disk; runs budget enforcement afterwards.
        """
        names = [name] if name is not None else self.names()
        for n in names:
            plan = self.get(n)
            for bt in self.block_tiles:
                plan.format_for(bt)
        self.enforce_budget()

    def evict(self, name: str) -> bool:
        """Drop one plan from memory (its disk artifacts remain)."""
        with self._lock:
            plan = self._plans.pop(name, None)
            if plan is None:
                return False
            self._resident_total -= self._entry_bytes.pop(name, 0)
            self._retire(plan)
            self.stats.evictions += 1
            get_metrics().metric("repro_registry_evictions_total").inc()
            get_tracer().event("registry.evict", attrs={"matrix": name})
            self._update_gauges_locked()
            return True

    def clear(self) -> None:
        with self._lock:
            for name in list(self._plans):
                self.evict(name)

    # -- dynamic sparsity ------------------------------------------------------

    def version(self, name: str) -> int:
        """Current dynamic-sparsity version of ``name`` (0 = never updated)."""
        with self._lock:
            return self._versions.get(name, 0)

    def apply_update(
        self,
        name: str,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> int:
        """Dynamic-sparsity update of a registered matrix; returns the new
        version.

        Sets ``A[rows, cols] = values`` on the stored weight matrix and
        bumps the name's monotonic version.  If the plan is resident, a
        repaired successor (:meth:`JigsawPlan.updated` — only dirty
        BLOCK_TILE slabs re-reordered) is swapped in under the new
        version: the old version's residency charge is released exactly
        once (counted as an eviction), its version-qualified disk
        artifacts are kept and tracked for :meth:`gc_stale`, and the old
        plan *object* is never mutated — in-flight batches that captured
        it complete bit-identically on the old version.
        """
        with self._lock:
            mat = self.matrix(name).copy()
            r = np.atleast_1d(np.asarray(rows, dtype=np.int64))
            c = np.atleast_1d(np.asarray(cols, dtype=np.int64))
            mat[r, c] = np.asarray(values, dtype=np.float16).reshape(r.shape)
            self._matrices[name] = mat
            new_version = self._versions.get(name, 0) + 1
            self._versions[name] = new_version
            old = self._plans.pop(name, None)
            if old is not None:
                self._stale_artifacts.setdefault(name, []).extend(
                    old.artifact_paths()
                )
                # Release the retired version's charge exactly once; the
                # successor is charged fresh below.
                self._resident_total -= self._entry_bytes.pop(name, 0)
                self._retire(old)
                self.stats.evictions += 1
                get_metrics().metric("repro_registry_evictions_total").inc()
                new_plan = old.updated(rows, cols, values)
                self._plans[name] = new_plan
                self._charge_locked(name, new_plan)
                self._evict_over_budget(keep=name)
            get_metrics().metric("repro_registry_updates_total").inc()
            get_tracer().event(
                "registry.update", attrs={"matrix": name, "version": new_version}
            )
            self._update_gauges_locked()
            return new_version

    def stale_artifacts(self, name: str) -> list[Path]:
        """Retired versions' artifact paths still on disk for ``name``."""
        with self._lock:
            return list(self._stale_artifacts.get(name, []))

    def gc_stale(self, name: str | None = None) -> int:
        """Delete retired versions' disk artifacts; returns files removed.

        Until called, the disk cache holds the artifacts of both the
        current and the retired versions (their cache keys are
        version-qualified, so they never collide).
        """
        removed = 0
        with self._lock:
            names = [name] if name is not None else list(self._stale_artifacts)
            for n in names:
                for path in self._stale_artifacts.pop(n, []):
                    try:
                        path.unlink(missing_ok=True)
                        removed += 1
                    except OSError:
                        continue
        if removed:
            get_metrics().metric(
                "repro_registry_stale_artifacts_removed_total"
            ).inc(removed)
        return removed

    # -- budget ----------------------------------------------------------------

    def _charge_locked(self, name: str, plan: JigsawPlan) -> None:
        """(Re)measure one plan's byte charge into the running total."""
        new = plan_resident_bytes(plan)
        self._resident_total += new - self._entry_bytes.get(name, 0)
        self._entry_bytes[name] = new

    def _recharge_locked(self) -> None:
        """One O(n) re-measure of every resident plan's byte charge.

        Needed because formats build lazily: a plan admitted at one size
        can grow after a v4 autotune run without the registry hearing
        about it.  Budget loops call this once and then work off the
        cached total.
        """
        for name, plan in self._plans.items():
            self._charge_locked(name, plan)

    def resident_bytes(self) -> int:
        with self._lock:
            self._recharge_locked()
            return self._resident_total

    @property
    def resident_plans(self) -> int:
        with self._lock:
            return len(self._plans)

    def enforce_budget(self) -> int:
        """Evict LRU plans until the budget holds; returns evictions.

        Formats build lazily, so a plan admitted under budget can grow
        past it after a v4 autotune run — callers re-enforce after
        executing.
        """
        with self._lock:
            return self._evict_over_budget(keep=None)

    def _evict_over_budget(self, keep: str | None) -> int:
        if self.budget_bytes is None:
            return 0
        # One O(n) re-measure up front; each loop iteration then only
        # subtracts the victim's cached charge (previously every
        # iteration re-walked all resident plans: O(n^2) per enforce).
        self._recharge_locked()
        evicted = 0
        # ``len > 1`` keeps the most-recently-used plan resident even
        # when it alone exceeds the budget: a budget smaller than one
        # plan still serves (the working plan stays, everything else
        # spills) instead of thrashing evict/re-admit on every request.
        while len(self._plans) > 1 and self._resident_total > self.budget_bytes:
            victim = next(iter(self._plans))
            if victim == keep:
                # Never evict the plan being admitted; try the next-LRU.
                names = iter(self._plans)
                next(names)
                victim = next(names, None)
                if victim is None:
                    break
            self.evict(victim)
            evicted += 1
        return evicted

    def _update_gauges_locked(self) -> None:
        """Refresh the residency gauges (caller holds the lock)."""
        metrics = get_metrics()
        metrics.metric("repro_registry_resident_plans").set(len(self._plans))
        metrics.metric("repro_registry_resident_bytes").set(self._resident_total)

    def _retire(self, plan: JigsawPlan) -> None:
        self._retired_reorder_runs += plan.stats.reorder_runs
        self._retired_repairs += plan.stats.repairs
        self._retired_cache_hits += plan.stats.plan_cache_hits
        self._retired_cache_misses += plan.stats.plan_cache_misses
        self._retired_quarantined += plan.stats.quarantined
        self._retired_quarantine_evicted += plan.stats.quarantine_evicted
        self._retired_store_failures += plan.stats.store_failures

    # -- aggregated plan counters ----------------------------------------------

    @property
    def reorder_runs(self) -> int:
        """Actual reorder executions across resident *and* evicted plans.

        Zero after warm-up is the acceptance guarantee: once artifacts
        are on disk, eviction/re-admission cycles never reorder again.
        """
        with self._lock:
            return self._retired_reorder_runs + sum(
                p.stats.reorder_runs for p in self._plans.values()
            )

    @property
    def repairs(self) -> int:
        """Incremental plan repairs across resident *and* retired plans."""
        with self._lock:
            return self._retired_repairs + sum(
                p.stats.repairs for p in self._plans.values()
            )

    @property
    def plan_cache_hits(self) -> int:
        with self._lock:
            return self._retired_cache_hits + sum(
                p.stats.plan_cache_hits for p in self._plans.values()
            )

    @property
    def plan_cache_misses(self) -> int:
        with self._lock:
            return self._retired_cache_misses + sum(
                p.stats.plan_cache_misses for p in self._plans.values()
            )

    @property
    def quarantined(self) -> int:
        """Corrupt artifacts moved to quarantine across all plans."""
        with self._lock:
            return self._retired_quarantined + sum(
                p.stats.quarantined for p in self._plans.values()
            )

    @property
    def quarantine_evicted(self) -> int:
        """Quarantined artifacts evicted to hold the quarantine budget."""
        with self._lock:
            return self._retired_quarantine_evicted + sum(
                p.stats.quarantine_evicted for p in self._plans.values()
            )

    @property
    def store_failures(self) -> int:
        """Failed artifact persists across all plans (served from memory)."""
        with self._lock:
            return self._retired_store_failures + sum(
                p.stats.store_failures for p in self._plans.values()
            )
