"""Public Jigsaw API: plan once, run many.

The sparse weight matrix is stationary across inference runs, so the
reorder + compression preprocessing is done once by :class:`JigsawPlan`
and amortized (paper Section 3.1).  ``jigsaw_spmm`` is the one-shot
convenience wrapper.

Typical use::

    plan = JigsawPlan(a)                      # one-time preprocessing
    result = plan.run(b)                      # v4 kernel, autotuned tiles
    c, time_us = result.c, result.profile.duration_us

Preprocessing goes through the engine (:mod:`repro.core.engine`): the
reorder fans out over a worker pool for large matrices, and passing
``cache_dir`` keys a persistent on-disk artifact cache on the content
hash of ``(A, TileConfig, avoid_bank_conflicts)`` — a restarted process
constructing the same plan loads the artifact and performs zero reorder
work (``plan.stats.reorder_runs == 0``).
"""

from __future__ import annotations

import itertools
import os
import stat
import threading
import time
from pathlib import Path
from typing import Callable

import numpy as np

from repro.faults import FaultPlan, maybe_inject
from repro.gpu.device import A100, DeviceSpec
from repro.obs import get_metrics, get_tracer

from .compiled import compiled_output, run_compiled_kernel
from .engine import PlanStats, PreprocessStats, plan_cache_key, preprocess
from .format import JigsawMatrix
from .formatspec import FormatSpec
from .kernels import (
    ALL_VERSIONS,
    JigsawRunResult,
    compute_output,  # noqa: F401 - module global that e2ebench/probes.py wraps
    compute_output_exact,
    run_jigsaw_kernel,
)
from .serialization import load_jigsaw, load_vnm, save_jigsaw, save_vnm
from .tiles import BLOCK_TILE_SIZES, TileConfig
from .vnm import VnmPlan, detect_vnm_spec, run_vnm_kernel

#: Per-process counter making every `_store` tmp file unique: pid alone
#: is not enough once multiple threads of one process (a serving
#: executor's pool) persist artifacts concurrently.
_TMP_COUNTER = itertools.count()

#: Sentinel distinguishing "V:N:M plan not resolved yet" from "resolved
#: to None" (the matrix fits no V:N:M spec) — both are cached.
_VNM_UNRESOLVED = object()


class JigsawPlan:
    """Reorder + compression plan for one sparse matrix.

    ``block_tiles`` are the BLOCK_TILE sizes v4 may tune over; formats are
    built lazily, so a plan used only with v0–v3 builds just BLOCK_TILE=64.

    ``workers`` sets the reorder's process-pool width (None = auto:
    parallel for large matrices, serial otherwise).  ``cache_dir`` turns
    on the persistent plan cache; ``plan.stats`` records cache traffic
    and per-stage preprocessing wall time.
    """

    #: BLOCK_TILE used by the fixed-tile kernel versions v0..v3
    #: (paper Section 4.4: "kernels for v0..v3 only support BLOCK_TILE=64").
    FIXED_BLOCK_TILE = 64

    #: Subdirectory of ``cache_dir`` corrupt artifacts are moved into.
    QUARANTINE_DIR = "quarantine"

    #: Default quarantine-directory budgets: forensic artifacts are kept
    #: newest-first up to these caps, so a long chaos run (or a flaky
    #: disk) cannot grow ``<cache>/quarantine/`` without bound.
    QUARANTINE_MAX_BYTES = 64 * 1024 * 1024
    QUARANTINE_MAX_FILES = 32

    def __init__(
        self,
        a: np.ndarray,
        block_tiles: tuple[int, ...] = BLOCK_TILE_SIZES,
        avoid_bank_conflicts: bool = True,
        workers: int | None = None,
        cache_dir: str | Path | None = None,
        fault_plan: FaultPlan | None = None,
        format_spec: FormatSpec | str | None = None,
        quarantine_max_bytes: int | None = None,
        quarantine_max_files: int | None = None,
        content_version: int = 0,
    ) -> None:
        if a.ndim != 2:
            raise ValueError("A must be a 2-D matrix")
        if not block_tiles:
            # v4's autotune loop would otherwise die on a bare assert.
            raise ValueError("block_tiles must name at least one BLOCK_TILE size")
        for bt in block_tiles:
            if bt not in BLOCK_TILE_SIZES:
                raise ValueError(f"unsupported BLOCK_TILE {bt}")
        self._a = np.ascontiguousarray(a, dtype=np.float16)
        self.block_tiles = tuple(block_tiles)
        self.avoid_bank_conflicts = avoid_bank_conflicts
        self.workers = workers
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.fault_plan = fault_plan
        #: The plan's storage-format dimension (see
        #: :mod:`repro.core.formatspec`).  ``"2:4"`` (default) serves
        #: through the rigid routes only; ``"vnm:{V}:{N}:{M}"`` pins the
        #: V:N:M layout; with the default, :meth:`vnm_plan` still
        #: auto-detects a lossless V:N:M fit so the serve tier can offer
        #: the ``jigsaw@vnm`` route and let the cost model choose.
        self.format_spec = FormatSpec.coerce(format_spec)
        self.quarantine_max_bytes = (
            self.QUARANTINE_MAX_BYTES
            if quarantine_max_bytes is None
            else quarantine_max_bytes
        )
        self.quarantine_max_files = (
            self.QUARANTINE_MAX_FILES
            if quarantine_max_files is None
            else quarantine_max_files
        )
        #: Monotonic dynamic-sparsity version (see :meth:`updated`);
        #: folded into every artifact cache key so repaired plans persist
        #: under version-qualified keys next to their ancestors.
        self.content_version = int(content_version)
        self.stats = PlanStats()
        self._formats: dict[tuple[int, bool], JigsawMatrix] = {}
        self._format_lock = threading.Lock()
        self._vnm: object = _VNM_UNRESOLVED
        self._vnm_lock = threading.Lock()
        self._paths: dict[tuple, Path] = {}

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape

    def format_for(self, block_tile: int, avoid_bank_conflicts: bool | None = None) -> JigsawMatrix:
        """The (cached) reorder-aware format for one BLOCK_TILE.

        Thread-safe: concurrent callers (a serving executor's pool)
        build each format exactly once and share the result.
        """
        avoid = self.avoid_bank_conflicts if avoid_bank_conflicts is None else avoid_bank_conflicts
        key = (block_tile, avoid)
        with self._format_lock:
            if key not in self._formats:
                self._formats[key] = self._load_or_build(block_tile, avoid)
            return self._formats[key]

    # -- preprocessing ---------------------------------------------------------

    def _artifact_path(
        self, family: str, config: TileConfig, avoid: bool, spec: FormatSpec
    ) -> Path:
        """One artifact's cache file.  Memoized: ``_a`` never changes
        (:meth:`updated` builds a new plan), so a plan hashes its matrix
        once per artifact, not again in :meth:`artifact_paths`."""
        assert self.cache_dir is not None
        memo = (family, config, avoid, spec)
        if memo not in self._paths:
            key = plan_cache_key(
                self._a,
                config,
                avoid,
                format_spec=spec,
                content_version=self.content_version,
            )
            self._paths[memo] = self.cache_dir / f"{family}-{key}.npz"
        return self._paths[memo]

    def _jigsaw_path(self, block_tile: int, avoid: bool) -> Path:
        return self._artifact_path(
            "jigsaw", TileConfig(block_tile=block_tile), avoid, self.format_spec
        )

    def _vnm_path(self, spec: FormatSpec) -> Path:
        return self._artifact_path(
            "vnm", TileConfig(), self.avoid_bank_conflicts, spec
        )

    def _load_or_build(self, block_tile: int, avoid: bool) -> JigsawMatrix:
        config = TileConfig(block_tile=block_tile)
        path: Path | None = None
        if self.cache_dir is not None:
            path = self._jigsaw_path(block_tile, avoid)
            t0 = time.perf_counter()
            jm = self._load(
                path,
                load_jigsaw,
                lambda jm: jm.config == config
                and jm.avoid_bank_conflicts == avoid
                and jm.format_spec == self.format_spec
                and jm.content_version == self.content_version,
            )
            if jm is not None:
                self._observe_load(jm, block_tile, t0, time.perf_counter())
                return jm
        jm, pstats = preprocess(
            self._a, config, avoid_bank_conflicts=avoid, workers=self.workers
        )
        jm.format_spec = self.format_spec
        jm.content_version = self.content_version
        self.stats.reorder_runs += 1
        if path is not None:
            pstats.plan_cache = "miss"
            self._store(jm, path, save_jigsaw)
        self.stats.runs.append(pstats)
        return jm

    def _observe_load(
        self, jm: JigsawMatrix, block_tile: int, t0: float, t1: float
    ) -> None:
        """Record a jigsaw plan-cache hit as a preprocessing run + span."""
        self.stats.runs.append(
            PreprocessStats(
                shape=jm.shape,
                block_tile=block_tile,
                load_seconds=t1 - t0,
                slabs=len(jm.reorder.table),
                plan_cache="hit",
            )
        )
        tracer = get_tracer()
        if tracer.enabled:
            tracer.add_span(
                "preprocess.load",
                start_s=t0,
                end_s=t1,
                attrs={
                    "block_tile": block_tile,
                    "plan_cache": "hit",
                    "slabs": len(jm.reorder.table),
                },
            )

    def _load(self, path: Path, load: Callable, fits: Callable) -> object | None:
        """One plan-cache lookup, for either artifact family.

        Returns the artifact ``load(path)`` read if it exists and
        ``fits(artifact)`` (was built with this plan's settings), else
        None, and the caller builds and persists with :meth:`_store`.
        Hits and misses are counted here.  A corrupt, unreadable, or
        other-version artifact is quarantined to
        ``<cache_dir>/quarantine/`` (keeping the bytes for forensics) and
        counts as a miss, so the plan is rebuilt from source instead of
        crashing the caller.
        """
        artifact = None
        if path.exists():
            try:
                maybe_inject("plan.cache.load", self.fault_plan)
                artifact = load(path)
            except Exception:
                self._quarantine(path)
        hit = artifact is not None and artifact.shape == self.shape and fits(artifact)
        if hit:
            self.stats.plan_cache_hits += 1
        else:
            self.stats.plan_cache_misses += 1
        get_metrics().metric("repro_plan_cache_total").inc(
            outcome="hit" if hit else "miss"
        )
        return artifact if hit else None

    def _store(self, artifact: object, path: Path, save: Callable) -> None:
        """Atomically persist an artifact with ``save`` (tmp file + rename).

        Never raises: a failed persist must not fail the build — the
        in-memory artifact serves, the next construction just rebuilds —
        so it is counted in ``stats.store_failures`` instead.
        """
        # Keep the .npz suffix: np.savez appends it to anything else.
        # The tmp name must be unique per *call*, not just per process:
        # concurrent threads writing the same artifact would otherwise
        # clobber (and unlink) each other's half-written tmp file.
        unique = f"{os.getpid()}-{threading.get_ident()}-{next(_TMP_COUNTER)}"
        tmp = path.with_name(f"{path.stem}.tmp-{unique}.npz")
        try:
            maybe_inject("plan.cache.store", self.fault_plan)
            path.parent.mkdir(parents=True, exist_ok=True)
            save(artifact, tmp)
            os.replace(tmp, path)
        except Exception:
            self.stats.store_failures += 1
            get_metrics().metric("repro_plan_artifact_events_total").inc(
                event="store_failure"
            )
        finally:
            if tmp.exists():
                tmp.unlink()

    def _quarantine(self, path: Path) -> None:
        """Move a corrupt artifact aside so it is never loaded again."""
        dest = path.parent / self.QUARANTINE_DIR / path.name
        try:
            dest.parent.mkdir(parents=True, exist_ok=True)
            os.replace(path, dest)
        except OSError:
            # Another thread already quarantined it (or the FS is gone);
            # either way the rebuild below proceeds.
            return
        self.stats.quarantined += 1
        get_metrics().metric("repro_plan_artifact_events_total").inc(
            event="quarantined"
        )
        get_tracer().event("plan.artifact.quarantined", attrs={"path": path.name})
        self._prune_quarantine(dest.parent)

    def _prune_quarantine(self, qdir: Path) -> None:
        """Evict oldest quarantined artifacts past the byte/count budget.

        The newest artifact always survives (the one just moved in is
        the evidence of the *current* incident); eviction is best-effort
        — a file another worker already removed no longer takes budget
        but is not counted as evicted here (the worker that removed it
        counted it).
        """
        try:
            listing = list(qdir.iterdir())
        except OSError:
            return
        entries = []
        for p in listing:
            try:
                st = p.stat()
            except OSError:
                continue  # evicted by another worker since the listing
            if stat.S_ISREG(st.st_mode):
                entries.append((st.st_mtime, st.st_size, p))
        entries.sort()  # oldest first
        total = sum(size for _, size, _ in entries)
        evicted = 0
        while len(entries) > 1 and (
            len(entries) > self.quarantine_max_files
            or total > self.quarantine_max_bytes
        ):
            _, size, victim = entries.pop(0)
            try:
                victim.unlink()
            except FileNotFoundError:
                total -= size  # another worker evicted (and counted) it
                continue
            except OSError:
                continue
            total -= size
            evicted += 1
            get_tracer().event(
                "plan.artifact.quarantine_evicted", attrs={"path": victim.name}
            )
        if evicted:
            self.stats.quarantine_evicted += evicted
            get_metrics().metric("repro_plan_artifact_events_total").inc(
                evicted, event="quarantine_evicted"
            )

    # -- V:N:M format dimension ------------------------------------------------

    def vnm_plan(self) -> VnmPlan | None:
        """The plan's (cached) V:N:M storage, or None if the format
        does not apply.

        With an explicit ``vnm`` :attr:`format_spec` the matrix must
        satisfy it losslessly (``ValueError`` otherwise).  With the
        default ``2:4`` spec, :func:`~repro.core.vnm.detect_vnm_spec`
        probes for a lossless fit — generic matrices resolve to None
        and serve through the rigid routes only, while VENOM-pruned
        ones gain the ``jigsaw@vnm`` serve route.  Both outcomes are
        cached (the None too); with ``cache_dir`` the compressed
        storage persists as a checksummed ``vnm-{key}.npz`` sibling of
        the jigsaw artifacts.
        """
        with self._vnm_lock:
            if self._vnm is not _VNM_UNRESOLVED:
                return self._vnm  # type: ignore[return-value]
            spec = (
                self.format_spec
                if self.format_spec.kind == "vnm"
                else detect_vnm_spec(self._a)
            )
            if spec is None:
                self._vnm = None
                return None
            path: Path | None = None
            if self.cache_dir is not None:
                path = self._vnm_path(spec)
                vp = self._load(path, load_vnm, lambda vp: vp.spec == spec)
                if vp is not None:
                    self._vnm = vp
                    return vp
            vp = VnmPlan.from_dense(self._a, spec)
            if path is not None:
                self._store(vp, path, save_vnm)
            self._vnm = vp
            return vp

    def vnm_resident_bytes(self) -> int:
        """Compressed V:N:M bytes currently held in memory.

        Zero while :meth:`vnm_plan` is unresolved *or* resolved to None —
        this is the registry-accounting read, and it must never force a
        detection sweep just to charge a budget.
        """
        with self._vnm_lock:
            vp = self._vnm
        if vp is _VNM_UNRESOLVED or vp is None:
            return 0
        return vp.storage_bytes()["total"]  # type: ignore[union-attr]

    def run_vnm(
        self,
        b: np.ndarray,
        device: DeviceSpec = A100,
        want_output: bool = True,
    ) -> JigsawRunResult:
        """One V:N:M launch: compressed-format SpMM ``C = A @ B``.

        Raises ``ValueError`` when :meth:`vnm_plan` resolves to None —
        serve routing filters the ``jigsaw@vnm`` route out before it
        can get here.
        """
        vp = self.vnm_plan()
        if vp is None:
            raise ValueError(
                "matrix satisfies no V:N:M spec; the vnm route does not apply"
            )
        return run_vnm_kernel(vp, np.asarray(b), device, want_output=want_output)

    # -- dynamic sparsity ------------------------------------------------------

    def updated(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        values: np.ndarray,
    ) -> "JigsawPlan":
        """Dynamic-sparsity update ``A[rows, cols] = values`` with
        incremental plan repair.

        Returns a **new** plan at ``content_version + 1``; ``self`` is
        never mutated, so in-flight consumers of the old version keep
        computing bit-identical results.  Every format already built on
        this plan is repaired in place of a rebuild: only the BLOCK_TILE
        slabs containing updated rows are re-reordered/re-compressed,
        which is exact because the per-slab reorder is deterministic and
        slabs are independent; a format that was compiled is recompiled
        (see :meth:`~repro.core.format.JigsawMatrix.repaired`).  Repairs
        are counted in ``stats.repairs`` and per run as
        ``PreprocessStats(plan_cache="repair", repaired_slabs=…)`` —
        never in ``reorder_runs``.  With a ``cache_dir``, repaired
        artifacts persist under the new version-qualified key; the old
        version's artifacts stay on disk until garbage-collected.
        """
        rows = np.atleast_1d(np.asarray(rows, dtype=np.int64))
        cols = np.atleast_1d(np.asarray(cols, dtype=np.int64))
        vals = np.asarray(values, dtype=np.float16).reshape(rows.shape)
        a_new = self._a.copy()
        a_new[rows, cols] = vals
        new = JigsawPlan(
            a_new,
            block_tiles=self.block_tiles,
            avoid_bank_conflicts=self.avoid_bank_conflicts,
            workers=self.workers,
            cache_dir=self.cache_dir,
            fault_plan=self.fault_plan,
            format_spec=self.format_spec,
            quarantine_max_bytes=self.quarantine_max_bytes,
            quarantine_max_files=self.quarantine_max_files,
            content_version=self.content_version + 1,
        )
        with self._format_lock:
            built = dict(self._formats)
        for (bt, avoid), jm in built.items():
            dirty = {int(r) // bt for r in rows.tolist()}
            t0 = time.perf_counter()
            rjm = jm.repaired(a_new, dirty)
            t1 = time.perf_counter()
            new._formats[(bt, avoid)] = rjm
            new.stats.repairs += 1
            new.stats.runs.append(
                PreprocessStats(
                    shape=rjm.shape,
                    block_tile=bt,
                    reorder_seconds=t1 - t0,
                    slabs=len(rjm.reorder.table),
                    repaired_slabs=len(dirty),
                    plan_cache="repair",
                )
            )
            get_metrics().metric("repro_plan_repairs_total").inc()
            get_metrics().metric("repro_plan_repaired_slabs_total").inc(len(dirty))
            if new.cache_dir is not None:
                new._store(rjm, new._jigsaw_path(bt, avoid), save_jigsaw)
        return new

    def artifact_paths(self) -> list[Path]:
        """On-disk artifact paths of this plan's built formats.

        The version-qualified cache files this plan version owns (jigsaw
        formats plus a resolved V:N:M sibling) — what a versioned
        registry garbage-collects once the version is retired.  Empty
        without a ``cache_dir``.
        """
        if self.cache_dir is None:
            return []
        with self._format_lock:
            keys = list(self._formats)
        paths = [self._jigsaw_path(bt, avoid) for bt, avoid in keys]
        with self._vnm_lock:
            vp = self._vnm
        if vp is not _VNM_UNRESOLVED and vp is not None:
            paths.append(self._vnm_path(vp.spec))  # type: ignore[union-attr]
        return paths

    # -- execution -------------------------------------------------------------

    @property
    def reorder_success(self) -> bool:
        """Paper's Section 4.3 criterion on the fixed-tile format."""
        return self.format_for(self.FIXED_BLOCK_TILE).reorder_success

    def compiled(self):
        """The plan's whole-plan lowering (see :mod:`repro.core.compiled`).

        Built from (and bit-identical to) the fixed BLOCK_TILE=64
        format on first use, and cached on the format.
        """
        return self.format_for(self.FIXED_BLOCK_TILE).compiled_plan()

    def run_compiled(
        self,
        b: np.ndarray,
        device: DeviceSpec = A100,
        want_output: bool = True,
    ) -> JigsawRunResult:
        """One compiled whole-plan launch: flat gathers + batched matmul.

        Steady-state serving path: no per-tile Python, no per-launch
        autotune.  The output is bit-identical to the BLOCK_TILE=64
        tile-by-tile route.
        """
        return run_compiled_kernel(
            self.compiled(), np.asarray(b), device, want_output=want_output
        )

    def run(
        self,
        b: np.ndarray,
        version: str = "v4",
        device: DeviceSpec = A100,
        want_output: bool = True,
        exact: bool = False,
    ) -> JigsawRunResult:
        """Simulate one SpMM launch ``C = A @ B`` with a kernel version.

        v0–v3 run on BLOCK_TILE=64; v4 times every size in
        ``block_tiles`` and keeps the fastest (the paper's Section 4.2
        configuration).  Profiles are memoized per format
        (:func:`~repro.core.kernels.base.jigsaw_profile`), so a warm
        launch runs no timing model.  The output comes from the chosen
        format's compiled flat arrays, bit-identical to the per-tile
        :func:`compute_output`; ``exact=True`` runs the per-instruction
        ``mma_sp`` model instead.
        """
        if version not in ALL_VERSIONS:
            raise ValueError(f"unknown kernel version {version!r}")
        spec = ALL_VERSIONS[version]
        if version != "v4":
            # v0 predates the conflict-avoiding reorder preference.
            avoid = version != "v0"
            jm = self.format_for(self.FIXED_BLOCK_TILE, avoid_bank_conflicts=avoid)
            best = run_jigsaw_kernel(jm, b, spec, device, want_output=False)
        else:
            # v4 autotune: one simulated execution per candidate.  The
            # winner's profile is returned as-is, from the execution that
            # won the selection.
            best = None
            for bt in self.block_tiles:
                cand = self.format_for(bt)
                res = run_jigsaw_kernel(cand, b, spec, device, want_output=False)
                if best is None or res.profile.duration_us < best.profile.duration_us:
                    best, jm = res, cand
            assert best is not None
        if want_output:
            best.c = (
                compute_output_exact(jm, b)
                if exact
                else compiled_output(jm.compiled_plan(), b)
            )
        return best


def jigsaw_spmm(
    a: np.ndarray,
    b: np.ndarray,
    version: str = "v4",
    device: DeviceSpec = A100,
    block_tiles: tuple[int, ...] = BLOCK_TILE_SIZES,
    workers: int | None = None,
    cache_dir: str | Path | None = None,
) -> JigsawRunResult:
    """One-shot SpMM: build a plan, run once, return output + profile.

    ``workers`` and ``cache_dir`` are forwarded to :class:`JigsawPlan`,
    so even the one-shot path gets the parallel reorder and the
    persistent plan cache (a repeated call over the same matrix loads
    the artifact instead of reordering).
    """
    plan = JigsawPlan(a, block_tiles=block_tiles, workers=workers, cache_dir=cache_dir)
    return plan.run(b, version=version, device=device)
