"""ASCII renderers used by the benchmark harness to print paper-style
tables and figure series."""

from __future__ import annotations

from typing import Sequence

from .figures import Fig1Point, Fig10Series, Fig11Point, Fig12Result
from .overhead import OverheadBreakdown
from .tables import Table2Row, Table3Cell


def render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """Minimal fixed-width table renderer."""
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(row):
        return "  ".join(str(c).rjust(w) for c, w in zip(row, widths))
    sep = "  ".join("-" * w for w in widths)
    return "\n".join([fmt(headers), sep] + [fmt(r) for r in rows])


def render_fig1(points: list[Fig1Point]) -> str:
    sparsities = sorted({p.sparsity for p in points})
    vs = sorted({p.v for p in points})
    lookup = {(p.sparsity, p.v): p.proportion for p in points}
    rows = [
        [f"{s:.0%}"] + [f"{lookup[(s, v)]:.1%}" for v in vs] for s in sparsities
    ]
    return render_table(["sparsity"] + [f"v={v}" for v in vs], rows)


def render_fig10(series: list[Fig10Series]) -> str:
    blocks = []
    for fig in series:
        header = (
            f"sparsity={fig.sparsity:.0%} v={fig.v} "
            f"M={fig.shape[0]} K={fig.shape[1]} (speedup over cuBLAS)"
        )
        names = [n for n in fig.series if n != "cublas"]
        rows = [
            [str(n)] + [f"{fig.series[name][i]:.2f}" for name in names]
            for i, n in enumerate(fig.n_values)
        ]
        blocks.append(header + "\n" + render_table(["N"] + names, rows))
    return "\n\n".join(blocks)


def render_fig11(points: list[Fig11Point]) -> str:
    sparsities = sorted({p.sparsity for p in points})
    combos = sorted({(p.v, p.block_tile) for p in points})
    lookup = {(p.sparsity, p.v, p.block_tile): p.success_rate for p in points}
    headers = ["sparsity"] + [f"v={v},BT={bt}" for v, bt in combos]
    rows = [
        [f"{s:.0%}"] + [f"{lookup[(s, v, bt)]:.1%}" for v, bt in combos]
        for s in sparsities
    ]
    return render_table(headers, rows)


def render_fig12(result: Fig12Result) -> str:
    rows = [[ver, f"{s:.2f}x"] for ver, s in result.avg_speedup.items()]
    top = render_table(["version", "avg speedup vs cuBLAS"], rows)
    metric_names = list(next(iter(result.probe_metrics.values())))
    rows2 = [
        [ver] + [f"{metrics[mname]:.2f}" for mname in metric_names]
        for ver, metrics in result.probe_metrics.items()
    ]
    bottom = render_table(["version"] + metric_names, rows2)
    return top + "\n\nNsight probe (M=N=K=512):\n" + bottom


def render_table2(rows: list[Table2Row]) -> str:
    baselines = list(rows[0].speedups)
    headers = ["sparsity", "v"] + [f"{b} (avg/max)" for b in baselines]
    out_rows = []
    for row in rows:
        cells = [f"{row.sparsity:.0%}", str(row.v)]
        for b in baselines:
            avg, mx = row.speedups[b]
            cells.append(f"{avg:.2f}/{mx:.2f}")
        out_rows.append(cells)
    return render_table(headers, out_rows)


def render_table3(cells: list[Table3Cell]) -> str:
    sparsities = sorted({c.sparsity for c in cells})
    vs = sorted({c.v for c in cells})
    lookup = {(c.sparsity, c.v): c for c in cells}
    headers = (
        ["sparsity"]
        + [f"VENOM V={v}" for v in vs]
        + [f"cuSparseLt V={v}" for v in vs]
    )
    rows = []
    for s in sparsities:
        row = [f"{s:.0%}"]
        row += [f"{lookup[(s, v)].vs_venom:.2f}x" for v in vs]
        row += [f"{lookup[(s, v)].vs_cusparselt:.2f}x" for v in vs]
        rows.append(row)
    return render_table(headers, rows)


def render_overhead(breakdowns: dict[int, OverheadBreakdown]) -> str:
    headers = ["BLOCK_TILE", "values", "col_idx", "block_col_idx", "sptc", "total"]
    rows = [
        [
            str(bt),
            f"{b.values_ratio:.2%}",
            f"{b.col_idx_ratio:.2%}",
            f"{b.block_col_idx_ratio:.2%}",
            f"{b.sptc_ratio:.2%}",
            f"{b.total_ratio:.2%}",
        ]
        for bt, b in sorted(breakdowns.items())
    ]
    return render_table(headers, rows)


def render_preprocessing(stats) -> str:
    """Render a PreprocessStats or PlanStats observability record."""
    from repro.core.engine import PlanStats

    from .overhead import plan_stats_rows, preprocessing_rows

    if isinstance(stats, PlanStats):
        rows = plan_stats_rows(stats)
    else:
        rows = preprocessing_rows(stats)
    return render_table(["preprocessing", "value"], rows)
