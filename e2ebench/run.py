"""Benchmark entry point: one workload, one seed, one result line.

    python3 e2ebench/run.py --workload compiled_mix --seed 1 --seconds 20 --trace 0

Runs ``harness.py`` in a fresh child process whose environment pins the
OpenBLAS/OpenMP/MKL thread pools to one thread before numpy loads (on a
2-core machine an unpinned ``np.matmul`` competes with the executor's
threads), limits glibc malloc to one arena, pins the child to one CPU and
puts the checkout's ``src`` on ``PYTHONPATH``.  It passes the
child's report through and prints, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones.  It exits non-zero without a result line when the program
sources are missing or the child fails.  See e2ebench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("tile_route", "compiled_mix", "graph_update")
#: The child must finish well inside the benchmark's 180 s limit.
CHILD_TIMEOUT_S = 170
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One glibc malloc arena: otherwise peak RSS depends on which of the
    # executor's threads first allocated where (±7% run to run).
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MALLOC_ARENA_MAX="1")
    env.update({var: "1" for var in PINNED_THREADS})
    # One CPU for the child and all its threads.  On a shared 2-vCPU guest a
    # hand-off between the client, dispatcher and pool threads that crosses
    # vCPUs waits for a vCPU the host may have descheduled: in interleaved
    # compiled_mix runs while the host stole time, throughput ranged 57%
    # unpinned and 15% pinned.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    cmd = [
        sys.executable, str(HERE / "harness.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    child = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = child.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.communicate()
        print(f"error: run exceeded {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = stdout.splitlines()
    if child.returncode != 0 or not lines:
        sys.stdout.write(stdout)
        print(f"error: benchmark child exited with {child.returncode}", file=sys.stderr)
        return child.returncode or 1
    doc = json.loads(lines[-1])
    print("\n".join(lines[:-1]))
    result = {k: doc[k] for k in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
