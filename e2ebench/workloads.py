"""The benchmark's three workloads: fixed weights, seeded traffic, set-up, oracle.

Every workload is closed loop with one client thread: the client submits a
whole burst, calls ``flush()`` and waits for every future before it sends the
next burst.  The executor's ``batch_window_s`` is longer than any run, so a
group dispatches only when it is full or on that flush, which makes batch
composition and routing pure functions of the seed.  Weights come from fixed
seeds; the run seed varies only the traffic (matrix choice, panel widths,
panel values and update values).

Each workload drives the program through its public API only
(``repro.core``, ``repro.serve``, ``repro.sched``, ``repro.graph``);
``repro.formats.venom_prune`` builds the V:N:M weights.
"""

from __future__ import annotations

import hashlib
import threading
from concurrent.futures import Future
from dataclasses import dataclass
from time import perf_counter

import numpy as np

from repro.core import JigsawPlan, roundtrip_equal
from repro.formats import venom_prune
from repro.graph import INPUT, GraphExecutor, ModelGraph
from repro.sched import CostModel, Scheduler
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest

#: Linger longer than any run: groups dispatch only when full or on flush.
BATCH_WINDOW_S = 3600.0

#: Oracle tolerance against a dense fp32 product (tile, V:N:M, hybrid and
#: dense routes).  Kernels accumulate the same fp16 operands in fp32 in a
#: different order, so they agree to ~1e-6 relative; a wrong tile, column or
#: row is off by O(1).
RTOL = 1e-3
ATOL = 1e-3

#: Nonzeros rewritten by one dynamic-sparsity update, all in the matrix's
#: first 16-row MMA tile, so every BLOCK_TILE repairs exactly one slab.
UPDATE_NNZ = 24

#: Seconds a burst may take before the client gives up on it.
BURST_TIMEOUT_S = 120.0

#: Registered name of the update probe's matrix (workloads whose timed
#: window applies no updates): a copy of one served matrix that the window
#: never requests.
PROBE = "probe"


def vector_sparse(m: int, k: int, sparsity: float, v: int, seed: int) -> np.ndarray:
    """A fp16 matrix whose nonzeros are dense v-tall column vectors."""
    rng = np.random.default_rng(seed)
    mask = np.repeat(rng.random((m // v, k)) >= sparsity, v, axis=0)
    vals = rng.standard_normal((m, k)).astype(np.float16)
    vals = np.where(np.abs(vals) < 0.05, np.float16(0.5), vals)
    return np.where(mask, vals, np.float16(0))


def nonzero_values(rng: np.random.Generator, n: int) -> np.ndarray:
    """fp16 values bounded away from zero."""
    vals = rng.standard_normal(n).astype(np.float16)
    return np.where(np.abs(vals) < 0.05, np.float16(0.5), vals)


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


@dataclass(frozen=True)
class Req:
    """One request of a burst: the matrix it multiplies (None for a graph
    request), the B-panel width and which pool panel it carries."""

    matrix: str | None
    width: int
    panel: int = 0


#: Distinct B panels per (rows, width) a run draws its requests from.
POOL = 16


class PanelPool:
    """The run's B panels, drawn from the run seed and cached.

    Requests pick pool panels, so the oracle computes each reference once
    per (matrix, width, panel) instead of once per request.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._panels: dict[tuple[int, int, int], np.ndarray] = {}

    def get(self, k: int, width: int, i: int) -> np.ndarray:
        key = (k, width, i)
        if key not in self._panels:
            rng = np.random.default_rng([self.seed, k, width, i])
            self._panels[key] = rng.standard_normal((k, width)).astype(np.float16)
        return self._panels[key]


@dataclass(frozen=True)
class Update:
    """One quiesced ``PlanRegistry.apply_update`` call."""

    matrix: str
    rows: np.ndarray
    cols: np.ndarray
    values: np.ndarray


@dataclass
class Outcome:
    """What the client saw for one request."""

    output: np.ndarray | None
    route: str
    error: BaseException | None = None


class Session:
    """One set-up serving stack: registry + executor (+ graph executor)."""

    def __init__(self, registry: PlanRegistry, executor: BatchExecutor,
                 graph: GraphExecutor | None = None) -> None:
        self.registry = registry
        self.executor = executor
        self.graph = graph

    def submit(self, req: Req, panel: np.ndarray) -> Future:
        if self.graph is not None:
            return self.graph.submit(panel)
        return self.executor.submit(SpmmRequest(matrix=req.matrix, b=panel))

    def run_burst(self, burst: list[Req], panels: list[np.ndarray]):
        """Submit a whole burst, flush, wait for every future.

        Returns ``(outcomes, latencies_s, end_t)``: each latency runs from
        the request's submit to its future's completion callback.
        """
        n = len(burst)
        done_t = [0.0] * n
        left = [n]
        lock = threading.Lock()
        all_done = threading.Event()

        def on_done(j: int):
            def cb(_f: Future) -> None:
                done_t[j] = perf_counter()
                with lock:
                    left[0] -= 1
                    if left[0] == 0:
                        all_done.set()
            return cb

        submit_t: list[float] = []
        futures: list[Future] = []
        for j, (req, panel) in enumerate(zip(burst, panels)):
            submit_t.append(perf_counter())
            f = self.submit(req, panel)
            f.add_done_callback(on_done(j))
            futures.append(f)
        self.executor.flush()
        all_done.wait(BURST_TIMEOUT_S)
        outcomes = []
        for f in futures:
            try:
                res = f.result(timeout=BURST_TIMEOUT_S)
            except Exception as exc:  # a failed request counts, it never aborts the run
                outcomes.append(Outcome(output=None, route="error", error=exc))
                continue
            if self.graph is not None:
                routes = sorted(set(res.routes.values()))
                outcomes.append(Outcome(output=res.output, route="+".join(routes)))
            else:
                outcomes.append(Outcome(output=res.c, route=res.stats.route))
        latencies = [d - s for d, s in zip(done_t, submit_t)]
        return outcomes, latencies, max(done_t)

    def apply_update(self, upd: Update) -> float:
        """One timed ``apply_update``; returns its wall seconds."""
        t0 = perf_counter()
        self.registry.apply_update(upd.matrix, upd.rows, upd.cols, upd.values)
        return perf_counter() - t0

    def repair_record(self, matrix: str) -> dict:
        """Repair stats of ``matrix``'s current plan (read after an update)."""
        runs = [r for r in self.registry.get(matrix).stats.runs if r.plan_cache == "repair"]
        return {
            "repair_s": sum(r.reorder_seconds for r in runs),
            "repaired_slabs": sum(r.repaired_slabs for r in runs),
            "total_slabs": sum(r.slabs for r in runs),
        }

    def close(self) -> None:
        self.executor.close()


class Oracle:
    """Reference results from the direct API, kept in step with updates.

    Routes in ``exact_routes`` must be bit-identical (``np.array_equal``) to
    the ``exact`` reference; every other route must be ``allclose`` to the
    dense fp32 product at ``RTOL``/``ATOL``.  References are cached per
    (matrix, width, pool panel) until an update changes the matrix.
    """

    exact_routes: tuple[str, ...] = ()

    def __init__(self, weights: dict[str, np.ndarray]) -> None:
        self.matrices = {n: a.copy() for n, a in weights.items()}
        self._refs: dict[tuple, np.ndarray] = {}

    def update(self, upd: Update) -> None:
        a = self.matrices[upd.matrix].copy()
        a[upd.rows, upd.cols] = upd.values
        self.matrices[upd.matrix] = a
        self._refs = {k: v for k, v in self._refs.items() if k[1] != upd.matrix}

    def reference(self, kind: str, req: Req, panel: np.ndarray) -> np.ndarray:
        key = (kind, req.matrix, req.width, req.panel)
        if key not in self._refs:
            self._refs[key] = self.compute(kind, req, panel)
        return self._refs[key]

    def compute(self, kind: str, req: Req, panel: np.ndarray) -> np.ndarray:
        a = self.matrices[req.matrix].astype(np.float32)
        return a @ panel.astype(np.float32)

    def check(self, req: Req, panel: np.ndarray, outcome: Outcome) -> bool:
        out = outcome.output
        if out is None:
            return False
        if outcome.route in self.exact_routes:
            return bool(np.array_equal(out, self.reference("exact", req, panel)))
        ref = self.reference("dense", req, panel)
        return out.shape == ref.shape and bool(np.allclose(out, ref, rtol=RTOL, atol=ATOL))

    def final_check(self, session: Session) -> bool:
        """The program's stored weights match the reference history."""
        return all(
            np.array_equal(session.registry.matrix(n), a)
            for n, a in self.matrices.items()
        )


class CompiledOracle(Oracle):
    """Compiled-route outputs must be bit-identical to a single-request
    ``JigsawPlan.run_compiled`` on an independently built plan."""

    exact_routes = ("compiled",)

    def __init__(self, weights: dict[str, np.ndarray]) -> None:
        super().__init__(weights)
        self.plans: dict[str, JigsawPlan] = {}

    def plan(self, matrix: str) -> JigsawPlan:
        if matrix not in self.plans:
            self.plans[matrix] = JigsawPlan(
                self.matrices[matrix], block_tiles=(JigsawPlan.FIXED_BLOCK_TILE,), workers=1
            )
        return self.plans[matrix]

    def update(self, upd: Update) -> None:
        plan = self.plan(upd.matrix)  # the reference at the pre-update version
        super().update(upd)
        self.plans[upd.matrix] = plan.updated(upd.rows, upd.cols, upd.values)

    def compute(self, kind, req, panel):
        if kind == "exact":
            return self.plan(req.matrix).run_compiled(panel).c
        return super().compute(kind, req, panel)

    def final_check(self, session: Session) -> bool:
        """Repair equals rebuild: every repaired reference plan matches a
        plan preprocessed from scratch on the updated matrix."""
        if not super().final_check(session):
            return False
        bt = JigsawPlan.FIXED_BLOCK_TILE
        for name, plan in self.plans.items():
            if plan.content_version == 0:
                continue
            fresh = JigsawPlan(
                self.matrices[name],
                block_tiles=(bt,),
                workers=1,
                content_version=plan.content_version,
            )
            if not roundtrip_equal(plan.format_for(bt), fresh.format_for(bt)):
                return False
        return True


class GraphOracle(CompiledOracle):
    """A graph request's output must be bit-identical to running its layer
    chain one single-request ``run_compiled`` at a time; a graph request
    served off the compiled route counts as failed."""

    def __init__(self, weights: dict[str, np.ndarray], graph: ModelGraph) -> None:
        super().__init__(weights)
        self.graph = graph

    def update(self, upd: Update) -> None:
        super().update(upd)
        self._refs.clear()  # every cached chain ran through the updated layer

    def compute(self, kind, req, panel):
        x = panel.astype(self.graph.input_cast)
        for node in self.graph.topo_order():
            x = node.apply_post(self.plan(node.matrix).run_compiled(x).c)
        return x

    def check(self, req, panel, outcome):
        return outcome.route == "compiled" and super().check(req, panel, outcome)


class Workload:
    """One workload: its weights, traffic and serving configuration."""

    name = ""
    why = ""
    max_batch = 4
    burst_size = 4
    #: Bursts of timed work per requested second, sized on a 2-core x86-64
    #: VM so ``--seconds S`` times about S seconds of serving.
    bursts_per_s = 1.0
    #: The burst count is a multiple of this (graph_update: one update
    #: period per 4 bursts, times the 10 throughput chunks).
    burst_multiple = 10
    #: SpMM requests one client request makes (graph requests: one per layer).
    spmm_per_request = 1
    #: Whether the timed window applies updates (else the update probe does).
    update_in_window = False

    def weights(self) -> dict[str, np.ndarray]:
        raise NotImplementedError

    def n_bursts(self, seconds: float, min_requests: int = 0) -> int:
        """Bursts for ``seconds`` of timed work, a multiple of
        ``burst_multiple`` holding at least ``min_requests`` requests."""
        m = self.burst_multiple
        least = -(-min_requests // (self.burst_size * m)) * m
        return max(m, least, int(round(seconds * self.bursts_per_s / m)) * m)

    def traffic(self, seed: int, n_bursts: int) -> list[list[Req]]:
        raise NotImplementedError

    def rows(self, weights, req: Req) -> int:
        """B-panel rows of one request."""
        return weights[req.matrix].shape[1]

    def panels(self, weights, pool: PanelPool, burst: list[Req]) -> list[np.ndarray]:
        return [pool.get(self.rows(weights, r), r.width, r.panel) for r in burst]

    def update_before(self, weights, seed: int, index: int) -> Update | None:
        """An update the timed window applies before burst ``index``."""
        return None

    def open(self, weights, cache_dir: str) -> Session:
        """Register, warm and build the executor (timed as set-up)."""
        raise NotImplementedError

    def warmup(self, traffic: list[list[Req]]) -> list[list[Req]]:
        """Bursts touching every (matrix, launch width, route) the timed
        window will use, so no profile or lazy build lands in the window."""
        raise NotImplementedError

    def oracle(self, weights) -> Oracle:
        raise NotImplementedError

    # -- update probe (workloads without updates in their timed window) ------

    probe_updates = 16

    def probe_points(self, n_bursts: int) -> set[int]:
        """Bursts after which the probe applies one quiesced update of the
        ``PROBE`` matrix, spread evenly over the window but outside its timed
        segments, so its samples see the same machine as the window."""
        if self.update_in_window:
            return set()
        k = self.probe_updates
        return {(2 * i + 1) * n_bursts // (2 * k) for i in range(k)}

    def probe_update(self, weights, seed: int, u: int) -> Update:
        return first_tile_update(weights, PROBE, [seed, 1 << 31, u])

    def probe_burst(self) -> list[Req]:
        """Served after the window: the updated probe matrix must still
        compute the right product."""
        return [Req(PROBE, 16, i) for i in range(self.max_batch)]


def with_probe(weights: dict[str, np.ndarray], source: str) -> dict[str, np.ndarray]:
    """Add the update probe's matrix, a copy of ``source``.  Same content, so
    set-up loads its plan from ``source``'s plan-cache artifact."""
    return {**weights, PROBE: weights[source].copy()}


def first_tile_update(weights, matrix: str, seed_parts, pruned_share: float = 0.0) -> Update:
    """Rewrite the first ``UPDATE_NNZ`` nonzeros of ``matrix``'s first MMA
    tile rows: a seeded ``pruned_share`` of them become zero (pruned), the
    rest get fresh nonzero values (kept or regrown)."""
    rows, cols = np.nonzero(weights[matrix][:16])
    rows, cols = rows[:UPDATE_NNZ], cols[:UPDATE_NNZ]
    rng = np.random.default_rng(seed_parts)
    vals = nonzero_values(rng, len(rows))
    vals[rng.random(len(rows)) < pruned_share] = 0
    return Update(matrix, rows, cols, vals)


def launch_widths(burst: list[Req], max_batch: int) -> list[tuple[str, int]]:
    """(matrix, launch width) of every launch one burst makes: a group
    launches when it reaches ``max_batch``, the remainder on flush."""
    out, forming = [], {}
    for req in burst:
        g = forming.setdefault(req.matrix, [])
        g.append(req.width)
        if len(g) == max_batch:
            out.append((req.matrix, sum(g)))
            forming[req.matrix] = []
    out.extend((m, sum(g)) for m, g in forming.items() if g)
    return out


class TileRoute(Workload):
    name = "tile_route"
    why = ("v4 tile route: each launch runs the per-tile timing model over "
           "BLOCK_TILE 16/32/64; a cached tile profile must show here")
    bursts_per_s = 12.0
    WIDTH = 16

    def weights(self):
        served = {f"tile{i}": vector_sparse(256, 256, 0.9, 8, 101 + i) for i in range(3)}
        return with_probe(served, "tile0")

    def traffic(self, seed, n_bursts):
        rng = np.random.default_rng(seed)
        return [
            [Req(name, self.WIDTH, int(p)) for p in rng.integers(POOL, size=self.burst_size)]
            for name in (f"tile{int(rng.integers(3))}" for _ in range(n_bursts))
        ]

    def open(self, weights, cache_dir):
        registry = PlanRegistry(cache_dir=cache_dir, workers=1)
        for n, a in weights.items():
            registry.register(n, a)
        registry.warm()
        executor = BatchExecutor(
            registry, max_batch=self.max_batch, batch_window_s=BATCH_WINDOW_S, max_workers=1
        )
        return Session(registry, executor)

    def warmup(self, traffic):
        used = sorted({b[0].matrix for b in traffic})
        return [[Req(n, self.WIDTH)] * self.burst_size for n in used] + [self.probe_burst()]

    def oracle(self, weights):
        return Oracle(weights)


#: Six DLMC catalogue shapes (90% sparse, v=8) and two VENOM 64:2:8 shapes.
DLMC_SHAPES = ((128, 128), (256, 128), (256, 256), (512, 256), (512, 512), (128, 1152))
VENOM_SHAPES = ((256, 256), (512, 512))
#: Route chain with V:N:M first; the cost model keeps this prior order for
#: unmeasured routes, so V:N:M matrices take ``jigsaw@vnm`` and the rest
#: ``compiled`` (the V:N:M route is filtered where the format does not apply).
MIX_CHAIN = ("jigsaw@vnm", "compiled", "hybrid", "dense")
MIX_WIDTHS = (8, 16, 32, 64)


class CompiledMix(Workload):
    name = "compiled_mix"
    why = ("warm compiled and V:N:M routes under Scheduler(CostModel): host "
           "time is serve/sched overhead plus compiled math; control for tile work")
    burst_size = 16
    bursts_per_s = 135.0

    def weights(self):
        out = {}
        for i, (m, k) in enumerate(DLMC_SHAPES):
            out[f"dlmc_{m}x{k}"] = vector_sparse(m, k, 0.9, 8, 201 + i)
        for i, (m, k) in enumerate(VENOM_SHAPES):
            dense = np.random.default_rng(251 + i).standard_normal((m, k)).astype(np.float16)
            out[f"venom_{m}x{k}"] = venom_prune(dense, v=64, n=2, m=8)
        return with_probe(out, "dlmc_256x256")

    def traffic(self, seed, n_bursts):
        rng = np.random.default_rng(seed)
        names = [f"dlmc_{m}x{k}" for m, k in DLMC_SHAPES] + [
            f"venom_{m}x{k}" for m, k in VENOM_SHAPES
        ]
        return [
            [
                Req(
                    names[int(rng.integers(len(names)))],
                    MIX_WIDTHS[int(rng.integers(len(MIX_WIDTHS)))],
                    int(rng.integers(POOL)),
                )
                for _ in range(self.burst_size)
            ]
            for _ in range(n_bursts)
        ]

    def open(self, weights, cache_dir):
        registry = PlanRegistry(
            cache_dir=cache_dir, workers=1, block_tiles=(JigsawPlan.FIXED_BLOCK_TILE,)
        )
        for n, a in weights.items():
            registry.register(n, a)
        registry.warm()
        executor = BatchExecutor(
            registry,
            max_batch=self.max_batch,
            batch_window_s=BATCH_WINDOW_S,
            max_workers=1,
            chain=MIX_CHAIN,
            scheduler=Scheduler(cost_model=CostModel(chain=MIX_CHAIN)),
        )
        return Session(registry, executor)

    def warmup(self, traffic):
        needed: dict[str, set[int]] = {}
        for burst in traffic:
            for m, w in launch_widths(burst, self.max_batch):
                needed.setdefault(m, set()).add(w)
        # One single-request launch per (matrix, launch width); round r holds
        # each matrix's r-th width, so no two requests of a round group.
        widths = {m: sorted(ws) for m, ws in sorted(needed.items())}
        rounds = max(len(ws) for ws in widths.values())
        return [
            [Req(m, ws[r]) for m, ws in widths.items() if r < len(ws)]
            for r in range(rounds)
        ] + [self.probe_burst()]

    def oracle(self, weights):
        return CompiledOracle(weights)


GRAPH_LAYERS = 4
GRAPH_SIZE = 512
#: Widths of a burst's four requests, one set per update period (seeded),
#: in seeded order.  All bursts of a period launch at one width (120, 128 or
#: 136 columns), so every period recomputes the updated layer's simulated
#: profile exactly once, while the mix of periods varies with the seed.
GRAPH_WIDTHS = ((24, 32, 32, 32), (24, 32, 32, 40), (24, 32, 40, 40))
#: Share of an update's entries pruned to zero (the rest regrow), so the
#: slab's sparsity pattern changes from version to version.
GRAPH_PRUNED_SHARE = 0.25
#: One quiesced update of ``enc0`` before every ``UPDATE_EVERY``-th burst.
UPDATE_EVERY = 4
GRAPH_CHAIN = ("compiled", "hybrid", "dense")


class GraphUpdate(Workload):
    name = "graph_update"
    why = ("4-layer 512x512 encoder graph on the compiled route with an "
           "apply_update of enc0 every 4th burst: slab repair and plan store")
    bursts_per_s = 25.0
    burst_multiple = 10 * UPDATE_EVERY
    spmm_per_request = GRAPH_LAYERS
    update_in_window = True

    def rows(self, weights, req):
        return GRAPH_SIZE

    def weights(self):
        return {
            f"enc{i}": vector_sparse(GRAPH_SIZE, GRAPH_SIZE, 0.9, 8, 301 + i)
            for i in range(GRAPH_LAYERS)
        }

    def model(self, weights) -> ModelGraph:
        graph = ModelGraph(input_cast="float16")
        prev = INPUT
        for i in range(GRAPH_LAYERS):
            node = graph.add_layer(
                f"enc{i}",
                weight=weights[f"enc{i}"],
                inputs=(prev,),
                activation="relu" if i < GRAPH_LAYERS - 1 else "none",
                cast="float16",
            )
            prev = node.name
        return graph

    def traffic(self, seed, n_bursts):
        rng = np.random.default_rng(seed)
        bursts = []
        for i in range(n_bursts):
            if i % UPDATE_EVERY == 0:
                widths = GRAPH_WIDTHS[int(rng.integers(len(GRAPH_WIDTHS)))]
            bursts.append([
                Req(None, int(w), int(p))
                for w, p in zip(rng.permutation(widths), rng.integers(POOL, size=self.burst_size))
            ])
        return bursts

    def update_before(self, weights, seed, index):
        if index % UPDATE_EVERY:
            return None
        return first_tile_update(weights, "enc0", [seed, index, 1], GRAPH_PRUNED_SHARE)

    def open(self, weights, cache_dir):
        registry = PlanRegistry(
            cache_dir=cache_dir, workers=1, block_tiles=(JigsawPlan.FIXED_BLOCK_TILE,)
        )
        graph = self.model(weights)
        graph.register(registry)
        registry.warm()
        executor = BatchExecutor(
            registry,
            max_batch=self.max_batch,
            batch_window_s=BATCH_WINDOW_S,
            max_workers=1,
            chain=GRAPH_CHAIN,
        )
        return Session(registry, executor, GraphExecutor(graph, executor))

    def warmup(self, traffic):
        return [[Req(None, w) for w in widths] for widths in GRAPH_WIDTHS]

    def oracle(self, weights):
        return GraphOracle(weights, self.model(weights))


WORKLOADS: dict[str, Workload] = {
    w.name: w for w in (TileRoute(), CompiledMix(), GraphUpdate())
}
