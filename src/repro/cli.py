"""Command-line interface: run SpMMs, inspect reorders, regenerate the paper.

Examples::

    python -m repro spmm --m 1024 --k 1024 --n 512 --sparsity 0.95 --v 8
    python -m repro reorder --m 512 --k 512 --sparsity 0.9 --v 4 --block-tile 32
    python -m repro reproduce fig10 table3
    python -m repro reproduce --out benchmarks/RESULTS.txt
    python -m repro device
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np


def _make_matrix(m: int, k: int, sparsity: float, v: int, seed: int) -> np.ndarray:
    from repro.data import expand_to_vector_sparse

    rng = np.random.default_rng(seed)
    base = rng.random((m // v, k)) >= sparsity
    return expand_to_vector_sparse(base, v, rng)


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
    """Regenerate the paper's artifacts: all of them, or the named keys."""
    from repro.analysis.artifacts import render_results

    text = render_results(tuple(args.keys))
    if args.out:
        from pathlib import Path

        Path(args.out).write_text(text)
        print(f"report written to {args.out}")
    else:
        print(text, end="")
    return 0


def _artifact_key(value: str) -> str:
    from repro.analysis.artifacts import BY_KEY

    if value not in BY_KEY:
        raise argparse.ArgumentTypeError(
            f"unknown artifact {value!r}; choose from {', '.join(BY_KEY)}"
        )
    return value


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

    p = sub.add_parser(
        "reproduce", help="regenerate the paper's artifacts (benchmarks/RESULTS.txt)"
    )
    p.add_argument(
        "keys",
        nargs="*",
        metavar="KEY",
        type=_artifact_key,
        help="artifacts to build, e.g. fig10 table3 overhead (default: all)",
    )
    p.add_argument("--out", default=None, help="write the report to a file")
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser(
        "top",
        help="live per-shard dashboard over a supervisor's --status-file",
    )
    p.add_argument(
        "--status-file",
        metavar="FILE",
        required=True,
        help="fleet status JSON the supervisor refreshes "
        "(Supervisor(status_path=...))",
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
