"""The committed paper results, checked against the code and the docs.

``benchmarks/RESULTS.txt`` is written by ``python -m repro reproduce
--out benchmarks/RESULTS.txt`` (CI regenerates and diffs it).  Here a
fast subset of its simulated-clock cells is rebuilt from ``ARTIFACTS``
and compared with the file, and every "measured" cell EXPERIMENTS.md
quotes is compared with the file too.
"""

import re
from dataclasses import replace
from pathlib import Path

import pytest

from repro.analysis.artifacts import ARTIFACTS, BY_KEY, REDUCED
from repro.gpu import A100

ROOT = Path(__file__).resolve().parents[2]
RESULTS = (ROOT / "benchmarks" / "RESULTS.txt").read_text()
EXPERIMENTS = (ROOT / "EXPERIMENTS.md").read_text()


def _blocks(text: str) -> dict[str, str]:
    """RESULTS.txt as {title: body}."""
    lines = text.splitlines()
    bodies: dict[str, list[str]] = {}
    i = 0
    while i < len(lines):
        if i + 2 < len(lines) and re.fullmatch("={20,}", lines[i]) and lines[i + 2] == lines[i]:
            title = lines[i + 1]
            bodies[title] = []
            i += 3
        else:
            bodies[title].append(lines[i])
            i += 1
    return {t: "\n".join(b).strip("\n") for t, b in bodies.items()}


BLOCKS = _blocks(RESULTS)


def _rows(body: str, caption: str | None = None) -> list[dict[str, str]]:
    """The fixed-width table under ``caption`` (else the first one) in a
    block body, as one {column: cell} dict per row."""
    for chunk in body.split("\n\n"):
        lines = chunk.splitlines()
        sep = next((i for i, ln in enumerate(lines) if ln and set(ln) <= {"-", " "}), None)
        if sep is None or (caption is not None and lines[:sep - 1] != [caption]):
            continue
        spans = [m.span() for m in re.finditer("-+", lines[sep])]
        header = [lines[sep - 1][a:b].strip() for a, b in spans]
        return [dict(zip(header, (ln[a:b].strip() for a, b in spans))) for ln in lines[sep + 1:]]
    raise KeyError(caption)


def _committed(key: str, caption: str | None = None) -> list[dict[str, str]]:
    return _rows(BLOCKS[BY_KEY[key].title], caption)


def _rebuilt(key: str, caption: str | None = None, **grid) -> list[dict[str, str]]:
    art = BY_KEY[key]
    return _rows(art.render(art.build(replace(REDUCED, **grid))), caption)


def test_results_has_one_block_per_artifact_in_order():
    assert list(BLOCKS) == [a.title for a in ARTIFACTS]


class TestPaperClock:
    """A fast subset of RESULTS.txt rebuilt from ARTIFACTS, cell for cell."""

    PROBE = "Nsight probe (M=N=K=512):"

    def test_fig12_probe(self):
        assert _rebuilt("fig12", self.PROBE, fig12_shapes=()) == _committed(
            "fig12", self.PROBE
        )

    def test_fig10_row(self):
        # The fourth series of the reduced grid, alone: its plan is the
        # cheapest of the four to build.
        caption = "sparsity=95% v=8 M=1024 K=1024 (speedup over cuBLAS)"
        row = _rebuilt(
            "fig10",
            caption,
            fig10_sparsities=(0.95,),
            fig10_vector_widths=(8,),
            fig10_n_values=(512,),
            fig10_seed=REDUCED.fig10_seed + 3,
        )
        assert row == [r for r in _committed("fig10", caption) if r["N"] == "512"]

    def test_table3_row(self):
        row = _rebuilt("table3", sparsities=(0.80,))
        assert row == [r for r in _committed("table3") if r["sparsity"] == "80%"]

    def test_a_one_percent_clock_change_fails_the_pin(self):
        fast = A100.with_(sm_clock_ghz=A100.sm_clock_ghz * 1.01)
        rebuilt = _rebuilt("fig12", self.PROBE, fig12_shapes=(), device=fast)
        assert rebuilt != _committed("fig12", self.PROBE)


def _md_rows(heading: str) -> list[list[str]]:
    """Body rows of the first markdown table after ``heading``."""
    rows = []
    for line in EXPERIMENTS[EXPERIMENTS.index(heading):].splitlines():
        if line.startswith("|"):
            rows.append([c.strip() for c in line.strip("|").split("|")])
        elif rows:
            break
    return rows[2:]


def _num(cell: str) -> float:
    """The measured number leading a cell: ``0.79 (0.77)`` -> 0.79."""
    return float(re.match(r"[\d.]+", cell).group())


class TestExperimentsDoc:
    """Every "measured" cell EXPERIMENTS.md quotes equals RESULTS.txt."""

    def test_fig1(self):
        committed = {r["sparsity"]: r for r in _committed("fig1")}
        rows = _md_rows("## Figure 1 ")
        assert [r[0] for r in rows] == list(committed)
        for label, *cells in rows:
            want = [_num(committed[label][f"v={v}"]) for v in (2, 4, 8)]
            assert [_num(c) for c in cells] == want, label

    def test_fig10_excerpt(self):
        rows = _md_rows("## Figure 10 ")
        assert rows
        for config, *cells, _shape in rows:
            sparsity, v, system = re.fullmatch(r"(\d+)%/v=(\d+) (\w+)", config).groups()
            caption = f"sparsity={sparsity}% v={v} M=1024 K=1024 (speedup over cuBLAS)"
            committed = {r["N"]: r[system] for r in _committed("fig10", caption)}
            assert [_num(c) for c in cells] == [
                _num(committed[n]) for n in ("256", "512", "1024")
            ], config

    def test_cublas_anomaly(self):
        section = EXPERIMENTS[EXPERIMENTS.index("**cuBLAS anomaly**"):]
        quoted = {n: us for us, n in re.findall(r"([\d.]+) us\s+\(N=(\d+)\)", section[:600])}
        assert quoted == {r["N"]: r["us"] for r in _committed("cublas_anomaly")}

    def test_table2(self):
        committed = {(r["sparsity"], r["v"]): list(r.values())[2:] for r in _committed("table2")}
        rows = _md_rows("## Table 2 ")
        assert len(rows) == len(committed)
        for sparsity, v, *cells in rows:
            want = [_num(c) for c in committed[(sparsity, v)]]
            assert [_num(c) for c in cells] == want, (sparsity, v)

    def test_fig12_averages(self):
        committed = {r["version"]: r["avg speedup vs cuBLAS"] for r in _committed("fig12")}
        rows = _md_rows("## Figure 12 ")
        assert len(rows) == len(committed)
        for label, _paper, measured in rows:
            assert measured == committed[label.split()[0]], label

    def test_table3(self):
        committed = {r["sparsity"]: list(r.values())[1:] for r in _committed("table3")}
        rows = _md_rows("## Table 3 ")
        assert len(rows) == len(committed)
        for sparsity, *cells in rows:
            want = [_num(c) for c in committed[sparsity]]
            assert [_num(c) for c in cells] == want, sparsity


@pytest.mark.parametrize("text", [EXPERIMENTS, (ROOT / "README.md").read_text()])
def test_docs_name_the_one_regeneration_command(text):
    assert "python -m repro reproduce --out benchmarks/RESULTS.txt" in text
