"""Shared helpers for the benchmark harness.

Each paper-artifact bench builds its result from
``repro.analysis.artifacts.ARTIFACTS`` under pytest-benchmark, prints
the block in the paper's layout (``pytest -s``) and asserts the paper's
shape on it.  The grid is the artifacts module's: reduced by default,
the full evaluation grids with ``REPRO_FULL_GRID=1``.  The printed
blocks are those of ``benchmarks/RESULTS.txt``, which
``python -m repro reproduce --out benchmarks/RESULTS.txt`` regenerates.
"""

from __future__ import annotations

from repro.analysis.artifacts import BY_KEY, current_grid, render_block

GRID = current_grid()


def run_artifact(key: str, benchmark=None):
    """Build one artifact (once, timed when ``benchmark`` is given) and
    print its block."""
    art = BY_KEY[key]
    if benchmark is None:
        result = art.build(GRID)
    else:
        result = benchmark.pedantic(art.build, args=(GRID,), rounds=1, iterations=1)
    emit(art.title, art.render(result))
    return result


def emit(title: str, body: str) -> None:
    """Print a paper-style block (pytest -s or captured on failure)."""
    print("\n" + render_block(title, body), flush=True)
