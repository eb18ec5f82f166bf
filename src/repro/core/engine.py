"""Preprocessing engine: one-time cost, measured and amortized.

The paper's premise (Sections 3.1, 4.5) is that the reorder +
compression preprocessing runs once per weight matrix and is amortized
over many SpMM launches.  This module makes that cost a first-class
concern:

* :func:`preprocess` runs the two stages — the (optionally parallel)
  multi-granularity reorder and the format compression — under a wall
  clock and returns the built :class:`~repro.core.format.JigsawMatrix`
  together with a :class:`PreprocessStats` record (per-stage seconds,
  cover-cache hit rate, eviction/split counts, worker-pool width);
* :func:`plan_cache_key` content-hashes ``(A, TileConfig,
  avoid_bank_conflicts)`` so :class:`~repro.core.api.JigsawPlan` can key
  a persistent on-disk artifact cache — repeated runs (benchmarks,
  serving restarts) skip preprocessing entirely;
* :class:`PlanStats` aggregates both across a plan's lifetime, which is
  what the acceptance checks and ``repro reorder``/``--plan-cache``
  observability read.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.obs import get_metrics, get_tracer

from . import serialization
from .format import JigsawMatrix
from .formatspec import FormatSpec
from .reorder import reorder_matrix
from .tiles import TileConfig


@dataclass
class PreprocessStats:
    """Observability record of one preprocessing run (or cache load)."""

    shape: tuple[int, int] = (0, 0)
    block_tile: int = 0
    reorder_seconds: float = 0.0
    compress_seconds: float = 0.0
    load_seconds: float = 0.0
    workers_used: int = 1
    slabs: int = 0
    evictions: int = 0
    split_groups: int = 0
    cover_cache_hits: int = 0
    cover_cache_misses: int = 0
    #: Slabs re-reordered by an incremental repair (zero for full builds
    #: and cache loads).  ``repaired_slabs / slabs`` is the fraction of
    #: a full rebuild's reorder work the repair actually performed.
    repaired_slabs: int = 0
    #: "off" (no plan cache), "miss" (built then stored), "hit" (loaded),
    #: "repair" (incrementally repaired from a previous version).
    plan_cache: str = "off"

    @property
    def total_seconds(self) -> float:
        return self.reorder_seconds + self.compress_seconds + self.load_seconds

    @property
    def cover_cache_hit_rate(self) -> float:
        lookups = self.cover_cache_hits + self.cover_cache_misses
        return self.cover_cache_hits / lookups if lookups else 0.0


@dataclass
class PlanStats:
    """Aggregated preprocessing activity of one :class:`JigsawPlan`.

    ``reorder_runs`` counts actual reorder executions — a plan whose
    formats all come from the persistent cache keeps it at zero, which is
    the "second construction performs zero reorder work" guarantee.
    """

    reorder_runs: int = 0
    plan_cache_hits: int = 0
    plan_cache_misses: int = 0
    #: Corrupt artifacts moved to ``<cache>/quarantine/`` before rebuild.
    quarantined: int = 0
    #: Quarantined artifacts evicted (oldest first) to hold the
    #: quarantine directory under its byte/count budget.
    quarantine_evicted: int = 0
    #: Artifact stores that failed (IO/injected faults); the in-memory
    #: format still serves, so a store failure is a counter, not a crash.
    store_failures: int = 0
    #: Incremental repairs applied (``JigsawPlan.updated``).  Counted
    #: separately from ``reorder_runs`` so the zero-reorder-on-cache-hit
    #: guarantee stays meaningful for freshly constructed plans.
    repairs: int = 0
    runs: list[PreprocessStats] = field(default_factory=list)

    @property
    def reorder_seconds(self) -> float:
        return sum(r.reorder_seconds for r in self.runs)

    @property
    def compress_seconds(self) -> float:
        return sum(r.compress_seconds for r in self.runs)

    @property
    def total_seconds(self) -> float:
        return sum(r.total_seconds for r in self.runs)

    @property
    def evictions(self) -> int:
        return sum(r.evictions for r in self.runs)

    @property
    def split_groups(self) -> int:
        return sum(r.split_groups for r in self.runs)

    @property
    def cover_cache_hit_rate(self) -> float:
        hits = sum(r.cover_cache_hits for r in self.runs)
        lookups = hits + sum(r.cover_cache_misses for r in self.runs)
        return hits / lookups if lookups else 0.0

    @property
    def repaired_slabs(self) -> int:
        return sum(r.repaired_slabs for r in self.runs)


def preprocess(
    a: np.ndarray,
    config: TileConfig | None = None,
    avoid_bank_conflicts: bool = True,
    workers: int | None = None,
    clock: Callable[[], float] | None = None,
) -> tuple[JigsawMatrix, PreprocessStats]:
    """Reorder + compress ``a`` with per-stage timing.

    Equivalent to ``JigsawMatrix.build`` (bit-identical output) but also
    returns the :class:`PreprocessStats` observability record.

    ``clock`` injects the stage timer (default ``time.perf_counter``);
    when the process-wide :class:`~repro.obs.Tracer` is armed, a
    ``preprocess`` span with ``preprocess.reorder`` /
    ``preprocess.compress`` children is recorded in that clock's domain,
    carrying the cover-cache outcome as span attrs.
    """
    config = config or TileConfig()
    clock = clock or time.perf_counter
    t0 = clock()
    reorder = reorder_matrix(
        a, config, avoid_bank_conflicts=avoid_bank_conflicts, workers=workers
    )
    t1 = clock()
    jm = JigsawMatrix.from_reorder(
        a, reorder, avoid_bank_conflicts=avoid_bank_conflicts
    )
    t2 = clock()
    stats = PreprocessStats(
        shape=jm.shape,
        block_tile=config.block_tile,
        reorder_seconds=t1 - t0,
        compress_seconds=t2 - t1,
        workers_used=reorder.workers_used,
        slabs=len(reorder.slabs),
        evictions=reorder.total_evictions,
        split_groups=sum(s.split_groups for s in reorder.slabs),
        cover_cache_hits=reorder.cover_cache_hits,
        cover_cache_misses=reorder.cover_cache_misses,
    )
    _observe_preprocess(stats, t0, t1, t2)
    return jm, stats


def _observe_preprocess(
    stats: PreprocessStats, t0: float, t1: float, t2: float
) -> None:
    """Emit the preprocess span tree + stage metrics for one build."""
    tracer = get_tracer()
    if tracer.enabled:
        root = tracer.add_span(
            "preprocess",
            start_s=t0,
            end_s=t2,
            attrs={
                "shape": list(stats.shape),
                "block_tile": stats.block_tile,
                "workers_used": stats.workers_used,
                "slabs": stats.slabs,
                "cover_cache_hits": stats.cover_cache_hits,
                "cover_cache_misses": stats.cover_cache_misses,
                "plan_cache": stats.plan_cache,
            },
        )
        tracer.add_span("preprocess.reorder", start_s=t0, end_s=t1, parent=root)
        tracer.add_span("preprocess.compress", start_s=t1, end_s=t2, parent=root)
    metrics = get_metrics()
    seconds = metrics.metric("repro_preprocess_seconds_total")
    seconds.inc(stats.reorder_seconds, stage="reorder")
    seconds.inc(stats.compress_seconds, stage="compress")
    metrics.metric("repro_preprocess_runs_total").inc()
    cover = metrics.metric("repro_cover_cache_total")
    if stats.cover_cache_hits:
        cover.inc(stats.cover_cache_hits, outcome="hit")
    if stats.cover_cache_misses:
        cover.inc(stats.cover_cache_misses, outcome="miss")


def plan_cache_key(
    a: np.ndarray,
    config: TileConfig,
    avoid_bank_conflicts: bool,
    format_spec: FormatSpec | None = None,
    content_version: int = 0,
) -> str:
    """Content hash identifying one preprocessing outcome.

    Covers everything the result depends on: the matrix bytes (and
    dtype/shape), the full tile geometry (``block_tile``,
    ``block_tile_n``, ``mma_tile``), the bank-conflict preference, the
    plan's storage-format spec (None means the default ``2:4``), the
    plan's dynamic-update ``content_version``, and the artifact
    :data:`~repro.core.serialization.FORMAT_VERSION` (so artifacts of
    another version are never looked up).  Two matrices with equal
    hashes build byte-identical artifacts; differing settings can never
    alias.
    """
    spec = FormatSpec.coerce(format_spec)
    h = hashlib.sha256()
    h.update(f"jigsaw-plan-v{serialization.FORMAT_VERSION}".encode())
    h.update(
        np.asarray(
            [
                a.shape[0],
                a.shape[1],
                config.block_tile,
                config.block_tile_n,
                config.mma_tile,
                int(avoid_bank_conflicts),
                *spec.header_fields(),
                int(content_version),
            ],
            dtype=np.int64,
        ).tobytes()
    )
    h.update(str(a.dtype).encode())
    h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:32]
