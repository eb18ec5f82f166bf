"""SLO scheduling — EDF + cost-model serving vs the FIFO baseline.

A skewed two-tenant load (a minority interactive tenant whose requests
carry launch deadlines well inside the batch linger window, a majority
bulk tenant without deadlines) is served twice through the same
registry: once FIFO (no scheduler — partial groups wait out the full
linger window, so every deadline passes before dispatch), once with the
:class:`repro.sched.Scheduler` (EDF promotion dispatches the deadline
groups early).  The deadline-miss rate must collapse, and the resulting
``repro.bench_serving/v1`` records must pass the CI schema validator.
"""

import numpy as np

from repro.analysis import (
    SubmitTimer,
    build_bench_serving,
    render_serving,
    scenario_record,
)
from repro.data import expand_to_vector_sparse
from repro.obs import validate_bench_serving
from repro.sched import AdmissionController, CostModel, Scheduler
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest

from conftest import emit

#: Generous real-clock margins so the contrast is robust on slow CI
#: machines: the linger window dwarfs the deadline, and the promotion
#: margin leaves dispatch plenty of room to launch inside it.
WINDOW_S = 0.8
DEADLINE_S = 0.25
PROMOTE_MARGIN_S = 0.1


def _matrix(seed: int, m: int = 128, k: int = 256, sparsity: float = 0.9) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = rng.random((m // 8, k)) >= sparsity
    return expand_to_vector_sparse(base, 8, rng)


def _workload(rng, n_requests: int = 24):
    """Every 4th request is the interactive tenant with a deadline."""
    return [
        SpmmRequest(
            matrix=f"w{i % 2}",
            b=rng.standard_normal((256, 32)).astype(np.float16),
            deadline_s=DEADLINE_S if i % 4 == 0 else None,
            tenant="svc" if i % 4 == 0 else "bulk",
        )
        for i in range(n_requests)
    ]


def _run_scenario(name, registry, requests, scheduler):
    from time import perf_counter

    with BatchExecutor(
        registry,
        max_batch=64,  # groups never fill: dispatch is the policy's call
        batch_window_s=WINDOW_S,
        scheduler=scheduler,
    ) as executor:
        timer = SubmitTimer()
        t0 = perf_counter()
        futures = [timer.submit(executor.submit, r) for r in requests]
        results = [f.result(timeout=120) for f in futures]
        wall_s = perf_counter() - t0
        stats = executor.stats()
    deadline_requests = sum(1 for r in requests if r.deadline_s is not None)
    record = scenario_record(
        name, stats, timer.latencies_s, wall_s, deadline_requests
    )
    return record, stats, results


def test_edf_cost_scheduling_beats_fifo_on_deadline_misses(tmp_path):
    registry = PlanRegistry(cache_dir=tmp_path)
    for i in range(2):
        registry.register(f"w{i}", _matrix(20 + i))
    registry.warm()  # both scenarios measure scheduling, not reorders

    rng = np.random.default_rng(9)
    requests = _workload(rng)
    matrices = {f"w{i}": registry.matrix(f"w{i}") for i in range(2)}

    fifo_record, fifo_stats, fifo_results = _run_scenario(
        "fifo", registry, requests, scheduler=None
    )

    admission = (
        AdmissionController()
        .configure("svc", priority="interactive")
        .configure("bulk", priority="batch")
    )
    sched = Scheduler(
        admission=admission,
        cost_model=CostModel(),
        promote_margin_s=PROMOTE_MARGIN_S,
    )
    edf_record, edf_stats, edf_results = _run_scenario(
        "edf_cost", registry, requests, scheduler=sched
    )

    # Both scenarios serve every request numerically correctly.
    for results in (fifo_results, edf_results):
        for res, req in zip(results, requests):
            ref = matrices[req.matrix].astype(np.float32) @ req.b.astype(np.float32)
            np.testing.assert_allclose(res.c, ref, rtol=1e-3, atol=1e-2)

    doc = build_bench_serving(
        [fifo_record, edf_record], baseline="fifo", contender="edf_cost"
    )
    assert validate_bench_serving(doc) == []

    emit(
        "EDF + cost-model scheduling vs FIFO (skewed two-tenant load)",
        f"window {WINDOW_S * 1e3:.0f} ms, deadline {DEADLINE_S * 1e3:.0f} ms, "
        f"promote margin {PROMOTE_MARGIN_S * 1e3:.0f} ms\n"
        f"fifo     miss rate: {fifo_record['deadline_miss_rate']:.1%}  "
        f"p99 {fifo_record['latency_s']['p99'] * 1e3:.1f} ms\n"
        f"edf_cost miss rate: {edf_record['deadline_miss_rate']:.1%}  "
        f"p99 {edf_record['latency_s']['p99'] * 1e3:.1f} ms  "
        f"(promoted {edf_record['promoted']})\n\n" + render_serving(edf_stats),
    )

    # FIFO holds every deadline group for the full linger window, so the
    # deadline-carrying minority misses; EDF promotion rescues them.
    assert fifo_record["deadline_miss_rate"] == 1.0
    assert edf_record["deadline_miss_rate"] < fifo_record["deadline_miss_rate"]
    assert edf_record["deadline_miss_rate"] == 0.0
    assert edf_record["promoted"] == 6
    # The promoted requests ran the fast batched route, not the dense
    # expiry fallback FIFO degraded them to.
    assert fifo_stats.route_counts["dense"] == 6
    assert edf_stats.route_counts["dense"] == 0
    # Cost model saw every launch of the contender run.
    assert sched.cost_model.samples("w0", "jigsaw") > 0
