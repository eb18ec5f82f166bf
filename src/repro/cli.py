"""Command-line interface: run SpMMs, inspect reorders, regenerate figures.

Examples::

    python -m repro spmm --m 1024 --k 1024 --n 512 --sparsity 0.95 --v 8
    python -m repro reorder --m 512 --k 512 --sparsity 0.9 --v 4 --block-tile 32
    python -m repro figure fig1
    python -m repro figure table3 --size 512
    python -m repro device
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Sequence

import numpy as np


def _make_matrix(m: int, k: int, sparsity: float, v: int, seed: int) -> np.ndarray:
    from repro.data import expand_to_vector_sparse

    rng = np.random.default_rng(seed)
    base = rng.random((m // v, k)) >= sparsity
    return expand_to_vector_sparse(base, v, rng)


def _make_venom_matrix(m: int, k: int, v: int, n: int, mm: int, seed: int) -> np.ndarray:
    """A VENOM V:N:M-pruned dense matrix (n <= 2, so 2:4 routes apply too)."""
    from repro.formats import venom_prune

    rng = np.random.default_rng(seed)
    return venom_prune(rng.standard_normal((m, k)).astype(np.float16), v=v, n=n, m=mm)


def cmd_spmm(args: argparse.Namespace) -> int:
    """Time one SpMM on the requested systems."""
    from repro.analysis import render_table
    from repro.baselines import (
        clasp_spmm,
        cublas_hgemm,
        cusparse_spmm,
        magicube_spmm,
        sparta_spmm,
        sputnik_spmm,
        vectorsparse_spmm,
    )
    from repro.core import JigsawPlan

    a = _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    b = rng.standard_normal((args.k, args.n)).astype(np.float16)

    runners = {
        "jigsaw": lambda: JigsawPlan(
            a, workers=args.workers, cache_dir=args.plan_cache
        ).run(b, want_output=False).profile,
        "cublas": lambda: cublas_hgemm(a, b, want_output=False).profile,
        "clasp": lambda: clasp_spmm(a, b, want_output=False).profile,
        "magicube": lambda: magicube_spmm(a, b, v=args.v, want_output=False).profile,
        "sputnik": lambda: sputnik_spmm(a, b, want_output=False).profile,
        "sparta": lambda: sparta_spmm(a, b, want_output=False).profile,
        "cusparse": lambda: cusparse_spmm(a, b, want_output=False).profile,
        "vectorsparse": lambda: vectorsparse_spmm(a, b, want_output=False).profile,
    }
    wanted = args.systems.split(",") if args.systems else ["jigsaw", "cublas"]
    unknown = [s for s in wanted if s not in runners]
    if unknown:
        print(f"unknown systems: {unknown}; choose from {sorted(runners)}", file=sys.stderr)
        return 2

    profiles = {name: runners[name]() for name in wanted}
    base = profiles.get("cublas")
    rows = []
    for name, p in sorted(profiles.items(), key=lambda kv: kv[1].duration_us):
        speed = f"{base.duration_us / p.duration_us:.2f}x" if base else "-"
        rows.append([name, f"{p.duration_us:.2f}", speed, p.bound, str(p.smem_bank_conflicts)])
    print(
        render_table(["system", "duration_us", "vs cuBLAS", "bound", "bank_conflicts"], rows)
    )
    return 0


def cmd_reorder(args: argparse.Namespace) -> int:
    """Inspect the multi-granularity reorder of one matrix."""
    from repro.analysis import render_preprocessing, render_table
    from repro.core import JigsawPlan

    a = _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed)
    plan = JigsawPlan(
        a,
        block_tiles=(args.block_tile,),
        workers=args.workers,
        cache_dir=args.plan_cache,
    )
    jm = plan.format_for(args.block_tile)
    r = jm.reorder
    print(f"matrix {args.m}x{args.k}, sparsity {args.sparsity:.0%}, v={args.v}")
    print(f"BLOCK_TILE={args.block_tile}: {len(jm.slabs)} slabs")
    print(f"reorder success (K not grown): {jm.reorder_success}")
    print(f"zero-column work skipped: {r.skipped_column_fraction:.1%}")
    print(f"retry evictions: {r.total_evictions}")
    sizes = jm.storage_bytes()
    rows = [[key, str(val)] for key, val in sizes.items()]
    rows.append(["dense equivalent", str(jm.dense_bytes())])
    print(render_table(["component", "bytes"], rows))
    if plan.stats.runs:
        print()
        print(render_preprocessing(plan.stats.runs[-1]))
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Regenerate one of the paper's figures/tables (reduced grids)."""
    from repro import analysis as an
    from repro.data import DlmcDataset

    name = args.name
    size = args.size
    if name == "fig1":
        ds = DlmcDataset(methods=("random",))
        print(an.render_fig1(an.build_fig1(dataset=ds)))
    elif name == "fig10":
        series = an.build_fig10(
            sparsities=(0.8, 0.95),
            vector_widths=(2, 8),
            n_values=(256, 512, 1024),
            shapes=((size, size),),
        )
        print(an.render_fig10(series))
    elif name == "fig11":
        print(an.render_fig11(an.build_fig11(max_matrices=args.max_matrices)))
    elif name == "fig12":
        print(an.render_fig12(an.build_fig12(shapes=((size, size),), n_values=(256, 512))))
    elif name == "table2":
        rows = an.build_table2(
            n_values=(256, 1024), shapes=((size, size),)
        )
        print(an.render_table2(rows))
    elif name == "table3":
        print(an.render_table3(an.build_table3(shape=(size, size), n=size)))
    elif name == "overhead":
        print(
            an.render_overhead(
                {bt: an.paper_overhead_model(bt) for bt in (16, 32, 64)}
            )
        )
    else:  # pragma: no cover - argparse choices guard this
        return 2
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    """Speed-of-light style report of one Jigsaw launch."""
    from repro.core import JigsawPlan
    from repro.gpu import render_timeline

    a = _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed)
    rng = np.random.default_rng(args.seed + 1)
    b = rng.standard_normal((args.k, args.n)).astype(np.float16)
    plan = JigsawPlan(a, workers=args.workers, cache_dir=args.plan_cache)
    res = plan.run(b, version=args.version, want_output=False)
    print(render_timeline(res.profile))
    return 0


def cmd_reproduce(args: argparse.Namespace) -> int:
    """Regenerate every paper artifact in one run (reduced grids)."""
    import io

    from repro import analysis as an
    from repro.data import DlmcDataset

    out = io.StringIO()

    def block(title, body):
        bar = "=" * max(len(title), 20)
        out.write(f"{bar}\n{title}\n{bar}\n{body}\n\n")

    size = args.size
    block(
        "Figure 1: native 2:4 support",
        an.render_fig1(an.build_fig1(dataset=DlmcDataset(methods=("random",)))),
    )
    block(
        "Figure 10: speedup over cuBLAS",
        an.render_fig10(
            an.build_fig10(
                sparsities=(0.8, 0.95),
                vector_widths=(2, 8),
                n_values=(256, 1024),
                shapes=((size, size),),
            )
        ),
    )
    block(
        "Figure 11: reorder success",
        an.render_fig11(an.build_fig11(max_matrices=args.max_matrices)),
    )
    block(
        "Figure 12: ablation v0..v4",
        an.render_fig12(an.build_fig12(shapes=((size, size),), n_values=(256, 1024))),
    )
    block(
        "Table 2: avg/max speedups",
        an.render_table2(
            an.build_table2(n_values=(256, 1024), shapes=((size, size),))
        ),
    )
    block(
        "Table 3: vs VENOM / cuSparseLt",
        an.render_table3(an.build_table3(shape=(1024, 1024), n=1024)),
    )
    block(
        "Section 4.6: memory overhead (paper model)",
        an.render_overhead({bt: an.paper_overhead_model(bt) for bt in (16, 32, 64)}),
    )
    text = out.getvalue()
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text)
    return 0


@contextmanager
def _observability(args: argparse.Namespace):
    """Arm tracing + a fresh metrics registry for one CLI run.

    Active only when ``--trace-out`` or ``--metrics-out`` was given;
    otherwise the process keeps the disarmed :data:`NULL_TRACER` and the
    command pays no tracing cost.  On exit the artifacts are written,
    the dashboard is printed, and the previous tracer/registry are
    restored even if the command raised.
    """
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    if not trace_out and not metrics_out:
        yield None
        return

    from repro.analysis import render_dashboard
    from repro.obs import (
        MetricsRegistry,
        Tracer,
        export_metrics,
        export_spans_jsonl,
        set_metrics,
        set_tracer,
    )

    tracer = Tracer()
    registry = MetricsRegistry()
    prev_tracer = set_tracer(tracer)
    prev_metrics = set_metrics(registry)
    try:
        yield tracer
    finally:
        set_tracer(prev_tracer)
        set_metrics(prev_metrics)
        print()
        print(render_dashboard(metrics=registry, spans=tracer))
        if trace_out:
            n = export_spans_jsonl(tracer, trace_out)
            print(f"\n{n} spans written to {trace_out}")
        if metrics_out:
            export_metrics(registry, metrics_out)
            print(f"metrics written to {metrics_out}")


def cmd_serve_bench(args: argparse.Namespace) -> int:
    """Drive the serving engine with synthetic traffic and report stats."""
    with _observability(args):
        return _serve_bench(args)


def _serve_bench(args: argparse.Namespace) -> int:
    import tempfile
    from time import perf_counter

    from repro.analysis import (
        SubmitTimer,
        build_bench_serving,
        render_serving,
        render_table,
        scenario_record,
        write_bench_serving,
    )
    from repro.core import JigsawPlan
    from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest

    rng = np.random.default_rng(args.seed)
    cache_dir = args.plan_cache or tempfile.mkdtemp(prefix="jigsaw-serve-")
    registry = PlanRegistry(
        budget_bytes=args.budget_mb * (1 << 20) if args.budget_mb else None,
        cache_dir=cache_dir,
        workers=args.workers,
    )
    matrices = {}
    for i in range(args.matrices):
        name = f"w{i}"
        matrices[name] = (
            _make_venom_matrix(args.m, args.k, args.venom_v, 2, args.venom_m, args.seed + i)
            if args.compare_formats
            else _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed + i)
        )
        registry.register(name, matrices[name])

    names = list(matrices)
    if args.compare_formats:
        return _serve_bench_formats(args, registry, names, rng)
    if args.compare_compiled:
        return _serve_bench_compare(args, registry, names, rng)
    requests = [
        SpmmRequest(
            matrix=names[i % len(names)],
            b=rng.standard_normal((args.k, args.n)).astype(np.float16),
            deadline_s=args.deadline_ms / 1e3 if args.deadline_ms else None,
        )
        for i in range(args.requests)
    ]

    # Sequential baseline: one plan.run per request, no batching.
    seq_us = 0.0
    plans = {n: JigsawPlan(m, workers=args.workers, cache_dir=cache_dir) for n, m in matrices.items()}
    for r in requests:
        seq_us += plans[r.matrix].run(r.b, want_output=False).profile.duration_us

    timer = SubmitTimer()
    with BatchExecutor(
        registry, max_batch=args.max_batch, max_workers=args.pool_workers
    ) as executor:
        wall_t0 = perf_counter()
        timer.run(executor, requests)
        wall_s = perf_counter() - wall_t0
        stats = executor.stats()
    latencies = timer.latencies_s

    if args.bench_json:
        path = write_bench_serving(
            build_bench_serving(
                [
                    scenario_record(
                        "serve",
                        stats,
                        latencies,
                        wall_s,
                        deadline_requests=(
                            len(requests) if args.deadline_ms else 0
                        ),
                    )
                ]
            ),
            args.bench_json,
        )
        print(f"bench report written to {path}")
    print(render_serving(stats))
    print()
    batched_us = stats.batch_kernel_us_total
    speed = seq_us / batched_us if batched_us else float("inf")
    print(
        render_table(
            ["comparison", "simulated kernel time"],
            [
                [f"sequential ({len(requests)} launches)", f"{seq_us:.2f} us"],
                [f"batched ({stats.batches} launches)", f"{batched_us:.2f} us"],
                ["batching speedup", f"{speed:.2f}x"],
            ],
        )
    )
    return 0


def _serve_bench_compare(args, registry, names, rng) -> int:
    """Tile-by-tile baseline vs the cost-model-discovered compiled route.

    Two scenarios over identical steady traffic (one request per matrix
    per round): ``tile`` pins ``chain=("jigsaw", "hybrid", "dense")`` so
    the compiled route cannot run, ``compiled_cost`` serves the full
    chain under a :class:`~repro.sched.CostModel` — no manual pinning;
    the model has to *discover* the compiled route via its exploration
    cadence.  Each scenario runs an untimed warmup phase first (formats
    built, compiled plans lowered, cost model converged), so the timed
    window measures steady-state serving throughput — the number the
    committed ``BENCH_serving.json`` records.
    """
    from time import perf_counter

    from repro.analysis import (
        SubmitTimer,
        build_bench_serving,
        render_serving,
        render_table,
        scenario_record,
        write_bench_serving,
    )
    from repro.sched import CostModel, Scheduler
    from repro.serve import FALLBACK_CHAIN, BatchExecutor, SpmmRequest

    registry.warm()  # neither scenario pays reorder/IO inside the timed window

    def make_round():
        return [
            SpmmRequest(
                matrix=name,
                b=rng.standard_normal((args.k, args.n)).astype(np.float16),
            )
            for name in names
        ]

    timed = max(1, args.requests // len(names))
    warm_rounds = [make_round() for _ in range(args.warmup_rounds)]
    timed_rounds = [make_round() for _ in range(timed)]

    def run_scenario(name, chain, scheduler):
        kwargs = dict(
            max_batch=args.max_batch,
            max_workers=args.pool_workers,
            chain=chain,
            scheduler=scheduler,
        )
        # Warmup in a throwaway executor: the cost model lives on the
        # scheduler and carries its estimates over, so the timed
        # executor's stats cover exactly the timed traffic.
        with BatchExecutor(registry, **kwargs) as executor:
            for burst in warm_rounds:
                executor.run(burst)
        timer = SubmitTimer()
        with BatchExecutor(registry, **kwargs) as executor:
            wall_t0 = perf_counter()
            for burst in timed_rounds:
                timer.run(executor, burst)
            wall_s = perf_counter() - wall_t0
            stats = executor.stats()
        record = scenario_record(name, stats, timer.latencies_s, wall_s, 0)
        return record, stats, wall_s

    tile_rec, _, tile_wall = run_scenario(
        "tile", ("jigsaw", "hybrid", "dense"), None
    )
    # explore_every=8: the probe cadence discovers the compiled route
    # during warmup, then costs one re-probe launch per 8 decisions in
    # steady state.
    sched = Scheduler(cost_model=CostModel(explore_every=8))
    comp_rec, comp_stats, comp_wall = run_scenario(
        "compiled_cost", FALLBACK_CHAIN, sched
    )

    doc = build_bench_serving(
        [tile_rec, comp_rec], baseline="tile", contender="compiled_cost"
    )
    comp = doc["comparison"]
    comp["baseline_throughput_rps"] = tile_rec["throughput_rps"]
    comp["contender_throughput_rps"] = comp_rec["throughput_rps"]
    comp["throughput_speedup"] = (
        comp_rec["throughput_rps"] / tile_rec["throughput_rps"]
        if tile_rec["throughput_rps"]
        else float("inf")
    )
    if args.bench_json:
        path = write_bench_serving(doc, args.bench_json)
        print(f"bench report written to {path}")
    print(render_serving(comp_stats))
    print()
    print(
        render_table(
            ["steady-state serving", "tile", "compiled_cost"],
            [
                [
                    "throughput",
                    f"{tile_rec['throughput_rps']:.1f} req/s",
                    f"{comp_rec['throughput_rps']:.1f} req/s",
                ],
                [
                    "timed wall",
                    f"{tile_wall * 1e3:.0f} ms",
                    f"{comp_wall * 1e3:.0f} ms",
                ],
                [
                    "route mix",
                    _fmt_route_mix(tile_rec["route_mix"]),
                    _fmt_route_mix(comp_rec["route_mix"]),
                ],
                ["throughput speedup", "1.00x", f"{comp['throughput_speedup']:.2f}x"],
            ],
        )
    )
    return 0


def _serve_bench_formats(args, registry, names, rng) -> int:
    """Format zoo drill: rigid-2:4 chain vs the cost-model-discovered
    ``jigsaw@vnm`` route on VENOM-pruned matrices.

    Both scenarios serve identical steady traffic under a
    :class:`~repro.sched.CostModel` — the only difference is the chain:
    ``rigid`` carries the four format-free routes, ``format_cost``
    additionally offers ``jigsaw@vnm``.  Nothing pins the V:N:M route;
    the model has to measure it cheaper (smaller operand streams,
    per-panel metadata amortized over V rows) and rank it first.  The
    report's ``comparison.format_selection`` block records the learned
    us/col per (matrix, route) plus the contender's route mix so CI can
    assert convergence.
    """
    from time import perf_counter

    from repro.analysis import (
        SubmitTimer,
        build_bench_serving,
        render_serving,
        render_table,
        scenario_record,
        write_bench_serving,
    )
    from repro.sched import CostModel, Scheduler
    from repro.serve import FALLBACK_CHAIN, BatchExecutor, SpmmRequest

    registry.warm()  # neither scenario pays reorder/IO inside the timed window

    def make_round():
        return [
            SpmmRequest(
                matrix=name,
                b=rng.standard_normal((args.k, args.n)).astype(np.float16),
            )
            for name in names
        ]

    timed = max(1, args.requests // len(names))
    warm_rounds = [make_round() for _ in range(args.warmup_rounds)]
    timed_rounds = [make_round() for _ in range(timed)]

    def run_scenario(name, chain, scheduler):
        kwargs = dict(
            max_batch=args.max_batch,
            max_workers=args.pool_workers,
            chain=chain,
            scheduler=scheduler,
        )
        with BatchExecutor(registry, **kwargs) as executor:
            for burst in warm_rounds:
                executor.run(burst)
        timer = SubmitTimer()
        with BatchExecutor(registry, **kwargs) as executor:
            wall_t0 = perf_counter()
            for burst in timed_rounds:
                timer.run(executor, burst)
            wall_s = perf_counter() - wall_t0
            stats = executor.stats()
        record = scenario_record(name, stats, timer.latencies_s, wall_s, 0)
        return record, stats, wall_s

    # explore_every=4 (tighter than --compare-compiled's 8): the zoo has
    # one more route to visit, and the probe cadence must reach
    # jigsaw@vnm within the warmup window (probe #1 samples compiled,
    # probe #2 samples jigsaw@vnm; from then on the measurement wins).
    rigid_chain = tuple(r for r in FALLBACK_CHAIN if "@" not in r)
    rigid_rec, _, rigid_wall = run_scenario(
        "rigid", rigid_chain, Scheduler(cost_model=CostModel(explore_every=4))
    )
    sched = Scheduler(cost_model=CostModel(explore_every=4))
    fmt_rec, fmt_stats, fmt_wall = run_scenario("format_cost", FALLBACK_CHAIN, sched)

    doc = build_bench_serving(
        [rigid_rec, fmt_rec], baseline="rigid", contender="format_cost"
    )
    comp = doc["comparison"]
    comp["baseline_throughput_rps"] = rigid_rec["throughput_rps"]
    comp["contender_throughput_rps"] = fmt_rec["throughput_rps"]
    comp["throughput_speedup"] = (
        fmt_rec["throughput_rps"] / rigid_rec["throughput_rps"]
        if rigid_rec["throughput_rps"]
        else float("inf")
    )
    comp["format_selection"] = {
        "venom_spec": f"vnm:{args.venom_v}:2:{args.venom_m}",
        "costs_us_per_col": sched.cost_model.snapshot(),
        "contender_route_mix": dict(fmt_rec["route_mix"]),
    }
    if args.bench_json:
        path = write_bench_serving(doc, args.bench_json)
        print(f"bench report written to {path}")
    print(render_serving(fmt_stats))
    print()
    print(
        render_table(
            ["steady-state serving", "rigid", "format_cost"],
            [
                [
                    "throughput",
                    f"{rigid_rec['throughput_rps']:.1f} req/s",
                    f"{fmt_rec['throughput_rps']:.1f} req/s",
                ],
                [
                    "timed wall",
                    f"{rigid_wall * 1e3:.0f} ms",
                    f"{fmt_wall * 1e3:.0f} ms",
                ],
                [
                    "route mix",
                    _fmt_route_mix(rigid_rec["route_mix"]),
                    _fmt_route_mix(fmt_rec["route_mix"]),
                ],
                ["throughput speedup", "1.00x", f"{comp['throughput_speedup']:.2f}x"],
            ],
        )
    )
    return 0


def _fmt_route_mix(mix: dict) -> str:
    return " ".join(f"{r}:{n}" for r, n in mix.items() if n)


def cmd_sched_bench(args: argparse.Namespace) -> int:
    """SLO drill: FIFO baseline vs EDF + cost-model scheduling.

    Drives a skewed two-tenant workload (a minority ``svc`` tenant with
    launch deadlines, a majority ``bulk`` tenant without) through the
    same executor twice — once FIFO (no scheduler), once with the full
    :class:`~repro.sched.Scheduler` — and writes the machine-readable
    ``BENCH_serving.json`` comparison CI schema-checks.
    """
    with _observability(args):
        return _sched_bench(args)


def _sched_bench(args: argparse.Namespace) -> int:
    import tempfile
    from time import perf_counter

    from repro.analysis import (
        SubmitTimer,
        build_bench_serving,
        render_serving,
        render_table,
        scenario_record,
        write_bench_serving,
    )
    from repro.sched import AdmissionController, CostModel, Scheduler, ThrottledError
    from repro.serve import BatchExecutor, PlanRegistry, RejectedError, SpmmRequest

    rng = np.random.default_rng(args.seed)
    cache_dir = args.plan_cache or tempfile.mkdtemp(prefix="jigsaw-sched-")
    registry = PlanRegistry(cache_dir=cache_dir, workers=args.workers)
    for i in range(args.matrices):
        registry.register(
            f"w{i}", _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed + i)
        )
    registry.warm()  # pre-build plans so both scenarios measure scheduling alone

    # Skewed two-tenant load: every 4th request is the interactive
    # tenant carrying a launch deadline; the rest are bulk background
    # traffic keeping the linger windows busy.
    deadline_s = args.deadline_ms / 1e3
    requests = [
        SpmmRequest(
            matrix=f"w{i % args.matrices}",
            b=rng.standard_normal((args.k, args.n)).astype(np.float16),
            deadline_s=deadline_s if i % 4 == 0 else None,
            tenant="svc" if i % 4 == 0 else "bulk",
        )
        for i in range(args.requests)
    ]
    deadline_requests = sum(1 for r in requests if r.deadline_s is not None)

    def make_scheduler() -> Scheduler:
        admission = AdmissionController()
        admission.configure("svc", priority="interactive")
        if args.bulk_rate is not None:
            admission.configure(
                "bulk",
                priority="best_effort",
                rate_per_s=args.bulk_rate,
                burst=args.bulk_burst,
            )
        else:
            admission.configure("bulk", priority="best_effort")
        return Scheduler(
            admission=admission,
            cost_model=CostModel(),
            promote_margin_s=args.promote_margin_ms / 1e3,
        )

    def run_scenario(name: str, scheduler: Scheduler | None):
        timer = SubmitTimer()
        with BatchExecutor(
            registry,
            max_batch=args.max_batch,
            batch_window_s=args.window_ms / 1e3,
            max_workers=args.pool_workers,
            scheduler=scheduler,
        ) as executor:
            wall_t0 = perf_counter()
            futures = []
            for r in requests:
                try:
                    futures.append(timer.submit(executor.submit, r))
                except (ThrottledError, RejectedError):
                    continue  # shed bulk requests become holes
            for f in futures:
                f.result(timeout=180)
            wall_s = perf_counter() - wall_t0
            stats = executor.stats()
        record = scenario_record(
            name, stats, timer.latencies_s, wall_s, deadline_requests
        )
        return record, stats

    fifo_record, _ = run_scenario("fifo", None)
    edf_record, edf_stats = run_scenario("edf_cost", make_scheduler())

    doc = build_bench_serving(
        [fifo_record, edf_record], baseline="fifo", contender="edf_cost"
    )
    path = write_bench_serving(doc, args.bench_json)
    print(f"bench report written to {path}")
    print()
    print(render_serving(edf_stats))
    print()
    comp = doc["comparison"]
    print(
        render_table(
            ["scheduling", "fifo", "edf_cost"],
            [
                [
                    "deadline miss rate",
                    f"{comp['baseline_miss_rate']:.1%}",
                    f"{comp['contender_miss_rate']:.1%}",
                ],
                [
                    "p99 latency",
                    f"{fifo_record['latency_s']['p99'] * 1e3:.1f} ms",
                    f"{edf_record['latency_s']['p99'] * 1e3:.1f} ms",
                ],
                [
                    "throttled / promoted",
                    f"{fifo_record['throttled']} / {fifo_record['promoted']}",
                    f"{edf_record['throttled']} / {edf_record['promoted']}",
                ],
            ],
        )
    )
    return 0


def cmd_graph_bench(args: argparse.Namespace) -> int:
    """Model-graph drill: pipelined vs sequential DAG execution.

    Runs an encoder-style stack of vector-sparse layers through
    :class:`~repro.graph.GraphExecutor` twice — once strictly
    sequentially (each request completes before the next starts), once
    pipelined (layer k+1 of request i overlaps layer k of request i+1)
    — applying a dynamic-sparsity update
    (:meth:`~repro.serve.PlanRegistry.apply_update`) every
    ``--update-every`` requests mid-stream, and writes the
    machine-readable ``graph`` block CI schema-checks.
    """
    with _observability(args):
        return _graph_bench(args)


def _graph_bench(args: argparse.Namespace) -> int:
    import tempfile
    from time import perf_counter

    from repro.analysis import (
        build_bench_serving,
        render_table,
        scenario_record,
        write_bench_serving,
    )
    from repro.core import JigsawPlan, roundtrip_equal
    from repro.graph import INPUT, GraphExecutor, ModelGraph
    from repro.serve import BatchExecutor, PlanRegistry

    rng = np.random.default_rng(args.seed)
    cache_dir = args.plan_cache or tempfile.mkdtemp(prefix="jigsaw-graph-")

    # Encoder-style chain of square vector-sparse layers.  The default
    # sparsity keeps the reorder succeeding, so every layer serves on
    # the jigsaw route — the exact code path direct API calls take.
    weights = [
        _make_matrix(args.size, args.size, args.sparsity, args.v, args.seed + i)
        for i in range(args.layers)
    ]
    graph = ModelGraph(input_cast="float16")
    prev = INPUT
    for i, w in enumerate(weights):
        node = graph.add_layer(
            f"enc{i}",
            weight=w,
            inputs=(prev,),
            activation="relu" if i < args.layers - 1 else "none",
            cast="float16",
        )
        prev = node.name
    panels = [
        rng.standard_normal((args.size, args.n)).astype(np.float16)
        for _ in range(args.requests)
    ]

    # Dynamic-sparsity updates: rewrite a handful of already-nonzero
    # entries in the first layer's leading MMA tile (one dirty slab for
    # any BLOCK_TILE), with one deterministic value batch per update
    # point so both scenarios replay the identical version history.
    upd_r, upd_c = (idx[: args.update_nnz] for idx in np.nonzero(weights[0][:16]))
    n_updates = (args.requests - 1) // args.update_every if args.update_every else 0
    upd_values = [
        rng.standard_normal(len(upd_r)).astype(np.float16) for _ in range(n_updates)
    ]

    def run_scenario(name: str, pipelined: bool):
        registry = PlanRegistry(cache_dir=cache_dir, workers=args.workers)
        graph.register(registry)
        registry.warm()
        # Both scenarios share the executor config: the sequential run
        # only ever has one request in flight, so it forms singleton
        # groups, while the pipelined run fills per-layer groups to
        # max_batch.  Batched launches compute each request's columns
        # independently and this workload's uniform panel width keeps
        # v4's autotuned BLOCK_TILE stable, so grouping cannot change
        # outputs — which the caller asserts (nonzero exit otherwise).
        with BatchExecutor(
            registry,
            max_batch=args.max_batch,
            batch_window_s=args.window_ms / 1e3,
            max_workers=args.pool_workers,
        ) as executor:
            gx = GraphExecutor(graph, executor)
            updates = iter(upd_values)
            results = []
            pending = []

            def drain() -> None:
                executor.flush()
                while pending:
                    results.append(pending.pop(0).result(timeout=180))
                    executor.flush()

            wall_t0 = perf_counter()
            for i, panel in enumerate(panels):
                if args.update_every and i and i % args.update_every == 0:
                    # Quiesce before the version bump so every request's
                    # layer chain runs against one content version — the
                    # sequential reference then sees the same plan
                    # versions at the same request indices.
                    drain()
                    registry.apply_update("enc0", upd_r, upd_c, next(updates))
                pending.append(gx.submit(panel))
                if not pipelined:
                    drain()
            drain()
            wall_s = perf_counter() - wall_t0
            stats = executor.stats()
        latencies = [r.duration_s for r in results]
        return scenario_record(name, stats, latencies, wall_s, 0), results

    seq_record, seq_results = run_scenario("graph_sequential", pipelined=False)
    pip_record, pip_results = run_scenario("graph_pipelined", pipelined=True)
    identical = all(
        np.array_equal(a.output, b.output)
        for a, b in zip(seq_results, pip_results)
    )
    speedup = (
        pip_record["throughput_rps"] / seq_record["throughput_rps"]
        if seq_record["throughput_rps"] > 0
        else 0.0
    )

    # Repair-vs-rebuild drill: apply one update batch to a standalone
    # plan (incremental slab repair) and compare against preprocessing
    # the updated matrix from scratch at the same content version.
    values = upd_values[0] if upd_values else rng.standard_normal(
        len(upd_r)
    ).astype(np.float16)
    base_plan = JigsawPlan(weights[0], workers=args.workers)
    base_plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
    t0 = perf_counter()
    repaired_plan = base_plan.updated(upd_r, upd_c, values)
    repair_s = perf_counter() - t0
    rjm = repaired_plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
    a_new = weights[0].copy()
    a_new[upd_r, upd_c] = values.astype(np.float16)
    t0 = perf_counter()
    rebuilt_plan = JigsawPlan(
        a_new, workers=args.workers, content_version=repaired_plan.content_version
    )
    bjm = rebuilt_plan.format_for(JigsawPlan.FIXED_BLOCK_TILE)
    rebuild_s = perf_counter() - t0
    repair_stats = repaired_plan.stats.runs[-1]

    doc = build_bench_serving(
        [seq_record, pip_record],
        baseline="graph_sequential",
        contender="graph_pipelined",
    )
    doc["comparison"].update(
        {
            "baseline_throughput_rps": seq_record["throughput_rps"],
            "contender_throughput_rps": pip_record["throughput_rps"],
            "throughput_speedup": speedup,
        }
    )
    doc["graph"] = {
        "layers": args.layers,
        "concurrency": args.pool_workers,
        "requests": args.requests,
        "update_every": args.update_every,
        "sequential_rps": seq_record["throughput_rps"],
        "pipelined_rps": pip_record["throughput_rps"],
        "pipelined_speedup": speedup,
        "bit_identical": identical,
        "repair": {
            "repair_seconds": repair_s,
            "rebuild_seconds": rebuild_s,
            "repaired_slabs": repair_stats.repaired_slabs,
            "total_slabs": repair_stats.slabs,
            "bit_identical": roundtrip_equal(rjm, bjm),
        },
    }
    path = write_bench_serving(doc, args.bench_json)
    print(f"bench report written to {path}")
    print()
    print(
        render_table(
            ["graph", "sequential", "pipelined"],
            [
                [
                    "throughput",
                    f"{seq_record['throughput_rps']:.2f} req/s",
                    f"{pip_record['throughput_rps']:.2f} req/s ({speedup:.2f}x)",
                ],
                [
                    "p99 latency",
                    f"{seq_record['latency_s']['p99'] * 1e3:.1f} ms",
                    f"{pip_record['latency_s']['p99'] * 1e3:.1f} ms",
                ],
                [
                    "outputs bit-identical",
                    "-",
                    "yes" if identical else "NO",
                ],
            ],
        )
    )
    print()
    print(
        f"repair: {repair_stats.repaired_slabs}/{repair_stats.slabs} slabs in "
        f"{repair_s * 1e3:.1f} ms vs full rebuild {rebuild_s * 1e3:.1f} ms "
        f"(bit-identical: {doc['graph']['repair']['bit_identical']})"
    )
    return 0 if identical else 1


def cmd_chaos_bench(args: argparse.Namespace) -> int:
    """Chaos drill: inject kernel faults + one corrupt artifact, then heal.

    Phase 1 serves traffic with the fault plan armed (jigsaw kernel
    faults at ``--fault-rate``, one on-disk artifact corrupted); phase 2
    disables injection and serves again, demonstrating the half-open
    breaker probes restoring the fast path.  Exit status is nonzero if
    any request's future raised.
    """
    with _observability(args):
        return _chaos_bench(args)


def _chaos_bench(args: argparse.Namespace) -> int:
    import tempfile
    from pathlib import Path

    from repro.analysis import render_serving, render_table
    from repro.faults import CLOSED, BreakerBoard, FaultPlan
    from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest

    rng = np.random.default_rng(args.seed)
    cache_dir = Path(args.plan_cache or tempfile.mkdtemp(prefix="jigsaw-chaos-"))
    fp = FaultPlan(seed=args.seed).add(
        "executor.kernel.jigsaw", probability=args.fault_rate
    )
    fp.disable()  # armed only during the chaos phase

    registry = PlanRegistry(cache_dir=cache_dir, workers=args.workers, fault_plan=fp)
    matrices = {}
    for i in range(args.matrices):
        name = f"w{i}"
        matrices[name] = _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed + i)
        registry.register(name, matrices[name])
    registry.warm()  # persist artifacts so there is something to corrupt

    artifacts = sorted(cache_dir.glob("*.npz"))
    if artifacts:
        victim = artifacts[0]
        victim.write_bytes(victim.read_bytes()[: max(64, len(victim.read_bytes()) // 2)])
    registry.clear()  # force re-admission through the (corrupt) disk cache

    def traffic(executor, n_requests):
        reqs = [
            SpmmRequest(
                matrix=f"w{i % args.matrices}",
                b=rng.standard_normal((args.k, args.n)).astype(np.float16),
            )
            for i in range(n_requests)
        ]
        futures = [executor.submit(r) for r in reqs]
        executor.flush()
        raised = 0
        for f in futures:
            if f.exception(timeout=120) is not None:
                raised += 1
        return raised

    breakers = BreakerBoard(
        failure_threshold=args.breaker_threshold, cooldown_s=args.breaker_cooldown_s
    )
    with BatchExecutor(
        registry,
        max_batch=args.max_batch,
        max_workers=args.pool_workers,
        max_pending=args.max_pending,
        breakers=breakers,
        fault_plan=fp,
    ) as executor:
        fp.enable()
        raised_chaos = traffic(executor, args.requests)
        chaos_stats = executor.stats()
        fp.disable()
        import time as _time

        _time.sleep(args.breaker_cooldown_s * 1.5)  # let probe windows open
        raised_heal = traffic(executor, args.requests)
        heal_stats = executor.stats()

    heal_routes = {
        r: heal_stats.route_counts.get(r, 0) - chaos_stats.route_counts.get(r, 0)
        for r in ("jigsaw", "hybrid", "dense")
    }
    reclosed = all(state == CLOSED for state in breakers.snapshot().values())
    print(render_serving(heal_stats))
    print()
    print(
        render_table(
            ["chaos drill", "value"],
            [
                ["faults injected", str(fp.total_fired)],
                ["chaos-phase futures raised", str(raised_chaos)],
                ["heal-phase futures raised", str(raised_heal)],
                [
                    "chaos-phase routes (j/h/d)",
                    "/".join(
                        str(chaos_stats.route_counts.get(r, 0))
                        for r in ("jigsaw", "hybrid", "dense")
                    ),
                ],
                [
                    "heal-phase routes (j/h/d)",
                    "/".join(str(heal_routes[r]) for r in ("jigsaw", "hybrid", "dense")),
                ],
                ["artifacts quarantined", str(heal_stats.quarantined)],
                ["breakers all re-closed", "yes" if reclosed else "no"],
            ],
        )
    )
    return 1 if (raised_chaos or raised_heal) else 0


def cmd_shard_bench(args: argparse.Namespace) -> int:
    """Crash-recovery drill: a supervised shard fleet under process chaos.

    Spawns ``--workers`` shard processes over a pre-warmed shared plan
    cache, then drives traffic while every worker hard-dies
    (``os._exit``) after serving ``--kill-every`` requests per
    incarnation.  The acceptance properties the report records:

    * zero lost non-poison requests (every future resolves);
    * results bit-identical to a single-process executor on the same
      cache (poisoned requests excepted — they serve dense by design);
    * zero reorder runs in any worker incarnation (respawns admit
      every plan from the shared on-disk cache).
    """
    with _observability(args):
        return _shard_bench(args)


def _shard_bench(args: argparse.Namespace) -> int:
    import tempfile
    from time import perf_counter

    from repro.analysis import (
        SubmitTimer,
        build_bench_serving,
        render_serving,
        render_table,
        scenario_record,
        write_bench_serving,
    )
    from repro.obs import SloPolicy, SloTracker, counter_by, export_alerts_jsonl
    from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest
    from repro.shard import Supervisor

    rng = np.random.default_rng(args.seed)
    cache_dir = args.plan_cache or tempfile.mkdtemp(prefix="jigsaw-shard-")
    # Pre-warm the shared plan cache in the parent: every worker
    # incarnation — including respawns mid-chaos — then admits its
    # plans from disk, which is what makes zero-reorder recovery hold.
    warm = PlanRegistry(cache_dir=cache_dir, block_tiles=(64,))
    matrices = {}
    for i in range(args.matrices):
        name = f"w{i}"
        matrices[name] = _make_matrix(args.m, args.k, args.sparsity, args.v, args.seed + i)
        warm.register(name, matrices[name])
    warm.warm()

    # version="v2" pins BLOCK_TILE=64 deterministically; v4's autotune
    # could legally pick different tiles for different batch shapes,
    # which would break the bit-identity comparison below.
    # --miss-storm N puts an unmeetable deadline on the first N requests:
    # each one is served dense and marked deadline_expired, which is a
    # deterministic burn-rate storm for the SLO tracker.  Storm requests
    # are excluded from the bit-identity check (dense is the degraded
    # route by design).
    storm = min(args.miss_storm, args.requests)
    requests = [
        SpmmRequest(
            matrix=f"w{i % args.matrices}",
            b=rng.standard_normal((args.k, args.n)).astype(np.float16),
            version="v2",
            deadline_s=1e-6 if i < storm else None,
        )
        for i in range(args.requests)
    ]

    fault_sites = []
    if args.kill_every:
        fault_sites.append(
            {
                "site": "shard.kill",
                "probability": 1.0,
                "after": args.kill_every - 1,
                "count": 1,
            }
        )
    slo = SloTracker(
        [
            SloPolicy(
                name="serving",
                deadline_miss_budget=args.slo_miss_budget,
                min_requests=5,
            )
        ],
        clock=perf_counter,  # the router feeds it its own clock domain
    )
    sup = Supervisor(
        workers=args.workers,
        cache_dir=cache_dir,
        max_redeliveries=args.max_redeliveries,
        fault_seed=args.fault_seed,
        fault_sites=fault_sites,
        traced=bool(getattr(args, "trace_out", None)),
        max_batch=args.max_batch,
        pool_workers=args.pool_workers,
        slo=slo,
        status_path=args.status_file,
    ).start()
    results: list = []
    timer = SubmitTimer()
    try:
        sup.wait_ready()
        for name, a in matrices.items():
            sup.router.register_matrix(name, a)
        wall_t0 = perf_counter()
        # Serial submission keeps the redelivery window tight: each kill
        # orphans at most one request, so recovery — not poison
        # escalation — is what the drill measures.
        for r in requests:
            future = timer.submit(sup.router.submit, r)
            try:
                results.append(future.result(timeout=120))
            except Exception:
                results.append(None)
        wall_s = perf_counter() - wall_t0
        stats = sup.router.stats()
        latencies = timer.latencies_s
        shard_block = {
            "workers": args.workers,
            "kill_every": args.kill_every,
            "crashes": sup.crashes,
            "respawns": sup.respawns,
            "redeliveries": sup.router.redeliveries,
            "poisoned_matrices": sorted(sup.router.poisoned_matrices),
            "poison_served": sup.router.poison_served,
            "reorder_runs_workers": sum(sup.router.worker_reorder_runs.values()),
        }
    finally:
        sup.stop()

    # Post-stop the fleet registry is final: every surviving worker's
    # bye flushed its last metrics delta during the drain; only crashed
    # incarnations lost theirs (at most kill-every requests each).
    reg = sup.router.fleet.registry
    fleet_mix = counter_by(reg, "repro_requests_total", "route", require=("shard",))
    fleet_total = int(sum(fleet_mix.values()))
    ground_truth = len(sup.router.request_stats()) - sup.router.poison_served
    # Undercount: unshipped final deltas of crashed incarnations;
    # overcount: redelivered requests served twice.
    slack = sup.crashes * max(args.kill_every, 1) + sup.router.redeliveries
    fleet_ok = abs(fleet_total - ground_truth) <= slack
    shard_block["fleet"] = {
        "requests_total": fleet_total,
        "route_mix": {r: int(n) for r, n in sorted(fleet_mix.items())},
        "ground_truth_requests": ground_truth,
        "slack": slack,
        "within_bound": fleet_ok,
        "snapshots_ingested": sup.router.fleet.snapshots_ingested,
        "ingest_errors": sup.router.fleet.ingest_errors,
        "dropped_on_crash": sup.router.fleet.dropped_on_crash,
    }
    shard_block["slo"] = {
        "miss_storm": storm,
        "alerts_fired": len(slo.alerts),
        "alerts_active_at_stop": len(slo.active_alerts()),
    }
    if args.alerts_out:
        export_alerts_jsonl(slo.alerts, args.alerts_out)
        print(f"{len(slo.alerts)} SLO alerts written to {args.alerts_out}")
    if args.fleet_snapshot_out:
        import json
        from pathlib import Path

        Path(args.fleet_snapshot_out).write_text(
            json.dumps(reg.snapshot(), indent=2, sort_keys=True) + "\n"
        )
        print(f"fleet metrics snapshot written to {args.fleet_snapshot_out}")

    lost = sum(1 for r in results if r is None)
    # Bit-identity reference: the same requests through a single-process
    # executor over the same warm cache.  Poisoned requests served dense
    # in the router are excluded — isolation, not identity, is their job.
    with BatchExecutor(
        PlanRegistry(cache_dir=cache_dir, block_tiles=(64,)),
        max_batch=args.max_batch,
        max_workers=args.pool_workers,
    ) as reference:
        for name, a in matrices.items():
            reference.registry.register(name, a)
        mismatched = 0
        compared = 0
        for i, (req, res) in enumerate(zip(requests, results)):
            if (
                res is None
                or i < storm  # served dense past its deadline, by design
                or req.matrix in shard_block["poisoned_matrices"]
            ):
                continue
            ref = reference.submit(
                SpmmRequest(matrix=req.matrix, b=req.b, version="v2")
            ).result(timeout=120)
            compared += 1
            if not np.array_equal(res.c, ref.c):
                mismatched += 1
    shard_block["lost"] = lost
    shard_block["bit_identical_compared"] = compared
    shard_block["bit_identical"] = mismatched == 0 and compared > 0
    if args.bench_json:
        doc = build_bench_serving(
            [scenario_record("shard_chaos", stats, latencies, wall_s, 0)]
        )
        doc["shard"] = shard_block
        path = write_bench_serving(doc, args.bench_json)
        print(f"bench report written to {path}")
        print()
    print(render_serving(stats))
    print()
    print(
        render_table(
            ["crash recovery", "value"],
            [
                ["workers / kill-every", f"{args.workers} / {args.kill_every or 'off'}"],
                ["crashes / respawns", f"{sup.crashes} / {sup.respawns}"],
                ["redeliveries", str(shard_block["redeliveries"])],
                [
                    "poisoned matrices",
                    ",".join(shard_block["poisoned_matrices"]) or "none",
                ],
                ["lost requests", str(lost)],
                [
                    "bit-identical vs single-process",
                    f"{'yes' if shard_block['bit_identical'] else 'no'}"
                    f" ({compared} compared)",
                ],
                ["worker reorder runs", str(shard_block["reorder_runs_workers"])],
                [
                    "fleet requests (ground truth)",
                    f"{fleet_total} ({ground_truth}, slack {slack})",
                ],
                ["fleet route mix", _fmt_route_mix(shard_block["fleet"]["route_mix"])],
                [
                    "fleet deltas ingested / errors / dropped",
                    f"{shard_block['fleet']['snapshots_ingested']} / "
                    f"{shard_block['fleet']['ingest_errors']} / "
                    f"{shard_block['fleet']['dropped_on_crash']}",
                ],
                [
                    "SLO alerts fired (storm)",
                    f"{len(slo.alerts)} ({storm})",
                ],
            ],
        )
    )
    storm_ok = storm == 0 or len(slo.alerts) >= 1
    ok = lost == 0 and shard_block["bit_identical"] and fleet_ok and storm_ok
    return 0 if ok else 1


def _read_fleet_status(path: str) -> dict | None:
    import json
    from pathlib import Path

    try:
        return json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError):
        # Mid-replace reads cannot happen (the supervisor writes via
        # os.replace), but the file may simply not exist yet.
        return None


def cmd_fleet_status(args: argparse.Namespace) -> int:
    """One-shot JSON dump of the supervisor's fleet status document."""
    import json

    doc = _read_fleet_status(args.status_file)
    if doc is None:
        print(f"no fleet status at {args.status_file}", file=sys.stderr)
        return 2
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """Live fleet dashboard: poll the status file, render, repeat.

    Keys (press Enter after each): ``q`` quit, ``p`` pause/resume the
    refresh, ``r`` refresh immediately.  Non-interactive stdin (pipes,
    CI) just polls on ``--interval``; ``--once`` renders a single frame
    and exits (2 if the status file is missing).
    """
    import select
    import time as _time

    from repro.analysis import render_fleet_top

    interactive = sys.stdin.isatty() and not args.once
    paused = False
    doc = None
    while True:
        if not paused:
            doc = _read_fleet_status(args.status_file)
            if sys.stdout.isatty() and not args.once:
                print("\x1b[2J\x1b[H", end="")
            if doc is None:
                print(f"waiting for fleet status at {args.status_file} ...")
            else:
                print(render_fleet_top(doc))
            if interactive:
                print("\nkeys (+Enter): q quit  p pause  r refresh")
        if args.once:
            return 0 if doc is not None else 2
        if interactive:
            ready, _, _ = select.select([sys.stdin], [], [], args.interval)
            if not ready:
                continue
            key = sys.stdin.readline().strip().lower()[:1]
            if key == "q":
                return 0
            if key == "p":
                paused = not paused
                if paused:
                    print("[paused — p to resume]")
            elif key == "r":
                paused = False  # refresh now (and resume if paused)
        else:
            _time.sleep(args.interval)


def cmd_verify(args: argparse.Namespace) -> int:
    """Cross-check every system's output against fp32 numpy."""
    from repro.analysis import render_verification, run_verification

    report = run_verification()
    print(render_verification(report))
    return 0 if report.all_passed else 1


def cmd_device(args: argparse.Namespace) -> int:
    """Print the simulated device's key constants."""
    from repro.analysis import render_table
    from repro.gpu import A100

    d = A100
    rows = [
        ["name", d.name],
        ["SMs", str(d.num_sms)],
        ["SM clock", f"{d.sm_clock_ghz:.2f} GHz"],
        ["dense TC fp16 peak", f"{d.peak_tc_fp16_tflops:.0f} TFLOP/s"],
        ["CUDA-core fp16 peak", f"{d.peak_cuda_fp16_tflops:.0f} TFLOP/s"],
        ["DRAM bandwidth", f"{d.dram_bandwidth_gbps:.0f} GB/s"],
        ["L2", f"{d.l2_bytes // (1024 * 1024)} MiB"],
        ["shared memory / block", f"{d.smem_per_sm_bytes // 1024} KiB"],
        ["smem banks", f"{d.smem_banks} x {d.smem_bank_bytes} B"],
    ]
    print(render_table(["property", "value"], rows))
    return 0


def _plan_cache_dir(value: str) -> str:
    from pathlib import Path

    p = Path(value)
    if p.exists() and not p.is_dir():
        raise argparse.ArgumentTypeError(f"{value!r} exists and is not a directory")
    return value


def _add_preprocessing_flags(p: argparse.ArgumentParser) -> None:
    """Preprocessing-engine knobs shared by the plan-building commands."""
    p.add_argument(
        "--workers",
        type=int,
        default=None,
        help="reorder worker processes (default: auto — parallel for large "
        "matrices, serial below the size threshold; 1 forces serial)",
    )
    p.add_argument(
        "--plan-cache",
        metavar="DIR",
        type=_plan_cache_dir,
        default=None,
        help="persistent plan-cache directory: preprocessing artifacts are "
        "stored/loaded by content hash, so repeated runs skip the reorder",
    )


def _add_observability_flags(p: argparse.ArgumentParser) -> None:
    """Tracing/metrics export flags shared by the serving commands."""
    p.add_argument(
        "--trace-out",
        metavar="FILE",
        default=None,
        help="arm the tracer and export a JSONL span trace of the run "
        "(one JSON object per completed span)",
    )
    p.add_argument(
        "--metrics-out",
        metavar="FILE",
        default=None,
        help="collect into a fresh metrics registry and export it in "
        "Prometheus text exposition format",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Jigsaw (ICPP'24) reproduction on a simulated A100",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spmm", help="time one SpMM across systems")
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--sparsity", type=float, default=0.95)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--systems",
        default="jigsaw,cublas,clasp,magicube,sputnik,sparta",
        help="comma-separated list",
    )
    _add_preprocessing_flags(p)
    p.set_defaults(func=cmd_spmm)

    p = sub.add_parser("reorder", help="inspect a matrix's reorder")
    p.add_argument("--m", type=int, default=512)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=4, choices=(2, 4, 8))
    p.add_argument("--block-tile", type=int, default=64, choices=(16, 32, 64))
    p.add_argument("--seed", type=int, default=0)
    _add_preprocessing_flags(p)
    p.set_defaults(func=cmd_reorder)

    p = sub.add_parser("figure", help="regenerate a paper figure/table")
    p.add_argument(
        "name",
        choices=("fig1", "fig10", "fig11", "fig12", "table2", "table3", "overhead"),
    )
    p.add_argument("--size", type=int, default=512, help="square shape edge")
    p.add_argument("--max-matrices", type=int, default=8)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("inspect", help="speed-of-light report of one launch")
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--n", type=int, default=1024)
    p.add_argument("--sparsity", type=float, default=0.95)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--version", default="v4", choices=("v0", "v1", "v2", "v3", "v4"))
    p.add_argument("--seed", type=int, default=0)
    _add_preprocessing_flags(p)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("reproduce", help="regenerate every paper artifact")
    p.add_argument("--size", type=int, default=512, help="square shape edge")
    p.add_argument("--max-matrices", type=int, default=6)
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "serve-bench", help="drive the batched serving engine with synthetic traffic"
    )
    p.add_argument("--matrices", type=int, default=3, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=24, help="total SpMM requests")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--pool-workers", type=int, default=4)
    p.add_argument(
        "--budget-mb",
        type=float,
        default=None,
        help="registry memory budget in MiB (evicted plans re-admit from disk)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        help="per-request queue deadline; expired requests take the dense fallback",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default=None,
        help="write a machine-readable repro.bench_serving/v1 report",
    )
    p.add_argument(
        "--compare-compiled",
        action="store_true",
        help="steady-state drill: tile-pinned baseline vs the cost-model-"
        "discovered compiled route (adds a throughput comparison to the report)",
    )
    p.add_argument(
        "--warmup-rounds",
        type=int,
        default=10,
        help="untimed warmup rounds per scenario in --compare-compiled / "
        "--compare-formats (lets the cost model's exploration discover "
        "the faster route)",
    )
    p.add_argument(
        "--compare-formats",
        action="store_true",
        help="format zoo drill on VENOM-pruned matrices: rigid-2:4 chain "
        "vs the cost-model-discovered jigsaw@vnm route (adds a "
        "format_selection block to the report)",
    )
    p.add_argument(
        "--venom-v",
        type=int,
        default=64,
        help="V:N:M vector length (panel rows) for --compare-formats matrices",
    )
    p.add_argument(
        "--venom-m",
        type=int,
        default=16,
        help="V:N:M group width M (N fixed at 2) for --compare-formats matrices",
    )
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_serve_bench)

    p = sub.add_parser(
        "sched-bench",
        help="SLO drill: FIFO vs EDF + cost-model scheduling on two tenants",
    )
    p.add_argument("--matrices", type=int, default=3, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=48, help="total SpMM requests")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-batch",
        type=int,
        default=64,
        help="group-size cap; keep it above requests/matrices so dispatch "
        "happens on the linger timer (where scheduling policy matters)",
    )
    p.add_argument("--pool-workers", type=int, default=4)
    p.add_argument(
        "--window-ms",
        type=float,
        default=250.0,
        help="batch linger window (FIFO holds partial groups this long)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=60.0,
        help="interactive-tenant launch deadline (below the linger window, "
        "so FIFO misses and EDF promotion meets it)",
    )
    p.add_argument(
        "--promote-margin-ms",
        type=float,
        default=20.0,
        help="how long before a deadline EDF promotes its group",
    )
    p.add_argument(
        "--bulk-rate",
        type=float,
        default=None,
        help="token-bucket rate limit for the bulk tenant (requests/s); "
        "omit for unlimited",
    )
    p.add_argument(
        "--bulk-burst",
        type=float,
        default=16.0,
        help="bulk tenant's bucket capacity when --bulk-rate is set",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default="BENCH_serving.json",
        help="machine-readable repro.bench_serving/v1 comparison report",
    )
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_sched_bench)

    p = sub.add_parser(
        "graph-bench",
        help="model-graph drill: pipelined vs sequential DAG execution "
        "with dynamic-sparsity updates mid-stream",
    )
    p.add_argument("--layers", type=int, default=4, help="encoder stack depth")
    p.add_argument("--requests", type=int, default=16, help="graph requests")
    p.add_argument(
        "--size", type=int, default=256, help="square layer dimension (m = k)"
    )
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument(
        "--sparsity",
        type=float,
        default=0.9,
        help="vector sparsity; the default keeps the reorder succeeding so "
        "every layer serves on the jigsaw route",
    )
    p.add_argument("--v", type=int, default=4, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-batch",
        type=int,
        default=8,
        help="per-(matrix, version) group cap; the pipelined run batches "
        "concurrent requests' same-layer SpMMs together, the sequential "
        "reference only ever forms singleton groups",
    )
    p.add_argument(
        "--window-ms",
        type=float,
        default=2.0,
        help="batch linger window before a partial group dispatches",
    )
    p.add_argument(
        "--update-every",
        type=int,
        default=8,
        help="apply a registry update (incremental plan repair + version "
        "bump) every N requests; 0 disables updates",
    )
    p.add_argument(
        "--update-nnz",
        type=int,
        default=8,
        help="nonzero entries rewritten per update (all within one slab)",
    )
    p.add_argument(
        "--pool-workers",
        type=int,
        default=4,
        help="executor pool width — the pipelined run's concurrency",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default="BENCH_serving.json",
        help="machine-readable repro.bench_serving/v1 report with a graph block",
    )
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_graph_bench)

    p = sub.add_parser(
        "chaos-bench",
        help="fault-injection drill: chaos phase then self-healing phase",
    )
    p.add_argument("--matrices", type=int, default=2, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=24, help="requests per phase")
    p.add_argument("--m", type=int, default=256)
    p.add_argument("--k", type=int, default=512)
    p.add_argument("--n", type=int, default=64, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fault-rate",
        type=float,
        default=0.25,
        help="per-attempt probability of an injected jigsaw kernel fault",
    )
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--pool-workers", type=int, default=4)
    p.add_argument(
        "--max-pending",
        type=int,
        default=None,
        help="admission-control bound on the pending queue",
    )
    p.add_argument("--breaker-threshold", type=int, default=3)
    p.add_argument("--breaker-cooldown-s", type=float, default=0.05)
    _add_preprocessing_flags(p)
    _add_observability_flags(p)
    p.set_defaults(func=cmd_chaos_bench)

    p = sub.add_parser(
        "shard-bench",
        help="crash-recovery drill: supervised shard fleet under kill-every-K chaos",
    )
    p.add_argument(
        "--workers", type=int, default=2, help="shard worker processes to supervise"
    )
    p.add_argument(
        "--kill-every",
        type=int,
        default=0,
        help="each worker incarnation hard-dies after serving this many "
        "requests (0 disables the chaos)",
    )
    p.add_argument("--matrices", type=int, default=3, help="distinct weight matrices")
    p.add_argument("--requests", type=int, default=24, help="total SpMM requests")
    p.add_argument("--m", type=int, default=128)
    p.add_argument("--k", type=int, default=256)
    p.add_argument("--n", type=int, default=32, help="B-panel width per request")
    p.add_argument("--sparsity", type=float, default=0.9)
    p.add_argument("--v", type=int, default=8, choices=(2, 4, 8))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        help="seed of the workers' fault plans (each incarnation folds its "
        "own index in, so kills stay deterministic across respawns)",
    )
    p.add_argument("--max-batch", type=int, default=8)
    p.add_argument("--pool-workers", type=int, default=2)
    p.add_argument(
        "--max-redeliveries",
        type=int,
        default=3,
        help="redeliveries before a request's matrix is declared poison "
        "and degrades to router-local dense isolation",
    )
    p.add_argument(
        "--plan-cache",
        metavar="DIR",
        type=_plan_cache_dir,
        default=None,
        help="shared plan-cache directory all worker incarnations warm from "
        "(default: a fresh temp dir, pre-warmed before the fleet starts)",
    )
    p.add_argument(
        "--bench-json",
        metavar="FILE",
        default=None,
        help="write a repro.bench_serving/v1 report with a crash-recovery "
        "'shard' block (crashes, respawns, lost, bit_identical, ...)",
    )
    p.add_argument(
        "--status-file",
        metavar="FILE",
        default=None,
        help="have the supervisor atomically refresh a repro.fleet_status/v1 "
        "JSON here every heartbeat ('repro top' renders it live)",
    )
    p.add_argument(
        "--miss-storm",
        type=int,
        default=0,
        help="give the first N requests an unmeetable deadline: a "
        "deterministic deadline-miss storm that must fire at least one "
        "SLO burn-rate alert (exit 1 otherwise)",
    )
    p.add_argument(
        "--slo-miss-budget",
        type=float,
        default=0.05,
        help="deadline-miss budget of the built-in 'serving' SLO policy",
    )
    p.add_argument(
        "--alerts-out",
        metavar="FILE",
        default=None,
        help="write fired SLO alerts as repro.slo_alerts/v1 JSONL",
    )
    p.add_argument(
        "--fleet-snapshot-out",
        metavar="FILE",
        default=None,
        help="write the final fleet-wide metrics registry as a "
        "repro.metrics_snapshot/v1 JSON document",
    )
    _add_observability_flags(p)
    p.set_defaults(func=cmd_shard_bench)

    p = sub.add_parser(
        "top",
        help="live per-shard dashboard over a supervisor's --status-file",
    )
    p.add_argument(
        "--status-file",
        metavar="FILE",
        required=True,
        help="fleet status JSON the supervisor refreshes (shard-bench "
        "--status-file, or Supervisor(status_path=...))",
    )
    p.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="refresh period in seconds",
    )
    p.add_argument(
        "--once",
        action="store_true",
        help="render a single frame and exit (2 if the file is missing)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "fleet-status",
        help="print a supervisor's fleet status document as JSON and exit",
    )
    p.add_argument("--status-file", metavar="FILE", required=True)
    p.set_defaults(func=cmd_fleet_status)

    p = sub.add_parser("verify", help="functional cross-check of every system")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("device", help="show the simulated device spec")
    p.set_defaults(func=cmd_device)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
