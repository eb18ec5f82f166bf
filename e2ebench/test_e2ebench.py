"""Self-tests of the benchmark.

    PYTHONPATH=src python -m pytest e2ebench -q

They run each workload on a small seeded traffic (one set-up, the minimum
burst count) in-process, so they check determinism and the oracle, not speed.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
from workloads import WORKLOADS, Outcome, launch_widths

ROOT = Path(__file__).resolve().parent.parent


def small_pass(name: str, seed: int, tamper=None) -> harness.PassResult:
    wl = WORKLOADS[name]
    weights = wl.weights()
    traffic = wl.traffic(seed, wl.burst_multiple)
    return harness.run_pass(wl, weights, traffic, seed, setup_reps=1, tamper=tamper)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_repeats_counts_and_sim_clock(name):
    a = small_pass(name, 7)
    b = small_pass(name, 7)
    assert a.failed == 0 and a.final_ok
    assert a.counts == b.counts
    assert a.counts["sim_us"] / a.counts["cols"] == b.counts["sim_us"] / b.counts["cols"]


def test_forming_model_predicts_every_launch():
    """The warm-up touches each launch width the window uses only if the
    benchmark's model of group forming matches the executor's."""
    wl = WORKLOADS["compiled_mix"]
    traffic = wl.traffic(3, wl.burst_multiple)
    res = small_pass("compiled_mix", 3)
    predicted = sum(len(launch_widths(b, wl.max_batch)) for b in traffic)
    assert predicted == res.counts["launches"]


def test_another_seed_changes_traffic_not_weights():
    a = small_pass("compiled_mix", 1)
    b = small_pass("compiled_mix", 2)
    assert a.counts["weights"] == b.counts["weights"]
    assert a.counts["traffic"] != b.counts["traffic"]
    assert a.counts["routes"] != b.counts["routes"]


def bump_first_output(burst: int, index: int, o: Outcome) -> Outcome:
    if burst == 0 and index == 0 and o.output is not None:
        out = o.output.copy()
        out.flat[0] += 1
        return Outcome(output=out, route=o.route)
    return o


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_oracle_fails_a_perturbed_output(name):
    res = small_pass(name, 5, tamper=bump_first_output)
    assert res.failed == 1


def test_run_fails_without_program_sources(tmp_path):
    """In a directory holding only the benchmark, the run exits non-zero
    without printing a result line."""
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(__file__).parent, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    p = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "compiled_mix",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert p.returncode != 0
    assert not any(is_result(line) for line in p.stdout.splitlines())


def is_result(line: str) -> bool:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError:
        return False
    return isinstance(doc, dict) and "metrics" in doc


def test_contract_matches_the_harness():
    """BENCHMARK.json names exactly the workloads and metrics a run reports."""
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in contract["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in contract["end_to_end"]} == {
        k: unit for k, (unit, _) in harness.END_TO_END.items()
    }
    assert {m["name"]: m["unit"] for m in contract["per_layer"]} == harness.LAYER_UNITS


def test_percentile_needs_ten_samples_beyond():
    samples = list(np.linspace(0.001, 0.1, 99))
    with pytest.raises(ValueError):
        harness.percentile_ms(samples, 90)
    assert harness.percentile_ms(samples + [0.1], 90) > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_chunk_has_a_p90_tail(name):
    wl = WORKLOADS[name]
    n = wl.n_bursts(1, harness.CHUNKS * harness.MIN_CHUNK_REQUESTS)
    assert n % wl.burst_multiple == 0
    assert n // harness.CHUNKS * wl.burst_size >= harness.MIN_CHUNK_REQUESTS
