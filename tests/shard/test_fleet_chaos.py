"""Fleet metrics under chaos: aggregated counters track router ground truth.

The observability acceptance criterion as a tier-1 test: with workers
dying every K batches, the fleet-folded ``repro_requests_total`` stays
within the documented loss bound (one unshipped heartbeat delta per
crash, plus redelivered duplicates); with chaos off, the worker bye
frame flushes the final delta and the match is **exact**.  A deadline
miss storm fires an SLO burn-rate alert and leaves schema-valid alert,
status and metrics artifacts behind.
"""

import json

import numpy as np
import pytest

from repro.obs import (
    FLEET_STATUS_SCHEMA,
    SLO_ALERTS_SCHEMA,
    MetricsRegistry,
    SloPolicy,
    SloTracker,
    counter_by,
    export_alerts_jsonl,
    render_prometheus,
    set_metrics,
    validate_metrics_snapshot,
    validate_prometheus_text,
)
from repro.serve import PlanRegistry, SpmmRequest
from repro.shard import Supervisor
from tests.conftest import random_vector_sparse


@pytest.fixture(autouse=True)
def _fresh_metrics():
    """FleetMetrics folds into the process-global registry by default —
    swap in a private one so earlier suites' series can't contaminate
    the exact-match assertions."""
    prev = set_metrics(MetricsRegistry())
    try:
        yield
    finally:
        set_metrics(prev)


def _warm_cache(tmp_path, matrices):
    registry = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
    for name, a in matrices.items():
        registry.register(name, a)
    registry.warm()
    return registry


def _setup(rng, tmp_path, n_matrices=2, n_requests=8):
    matrices = {
        f"w{i}": random_vector_sparse(128, 256, v=8, sparsity=0.9, rng=rng)
        for i in range(n_matrices)
    }
    _warm_cache(tmp_path, matrices)
    requests = [
        SpmmRequest(
            matrix=f"w{i % n_matrices}",
            b=rng.standard_normal((256, 16)).astype(np.float16),
            version="v2",
        )
        for i in range(n_requests)
    ]
    return matrices, requests


def _fleet_requests(sup):
    """Fleet-folded route mix; ``require`` drops router-local series."""
    mix = counter_by(
        sup.router.fleet.registry,
        "repro_requests_total",
        "route",
        require=("shard",),
    )
    return mix, int(sum(mix.values()))


class TestCleanRunExactMatch:
    def test_bye_flush_makes_fleet_counters_exact(self, rng, tmp_path):
        matrices, requests = _setup(rng, tmp_path)
        status_path = tmp_path / "fleet-status.json"
        sup = Supervisor(workers=2, cache_dir=tmp_path, status_path=status_path)
        with sup:
            sup.wait_ready()
            for name, a in matrices.items():
                sup.router.register_matrix(name, a)
            for req in requests:
                assert sup.router.submit(req).result(timeout=120) is not None

        # No crash means no unshipped delta: graceful bye flushed the
        # final accruals and the fleet view equals router ground truth.
        assert sup.crashes == 0
        mix, total = _fleet_requests(sup)
        assert total == len(requests)
        served = {}
        for st in sup.router.request_stats():
            served[st.route] = served.get(st.route, 0) + 1
        assert {r: int(n) for r, n in mix.items()} == served
        assert sup.router.fleet.dropped_on_crash == 0
        assert sup.router.fleet.ingest_errors == 0

        # The supervisor kept the status file current through stop().
        doc = json.loads(status_path.read_text())
        assert doc["schema"] == "repro.fleet_status/v1"
        assert doc["fleet"]["requests_total"] == len(requests)
        assert doc["fleet"]["dropped_on_crash"] == 0
        assert len(doc["shards"]) == 2

    def test_fleet_snapshot_is_schema_valid(self, rng, tmp_path):
        matrices, requests = _setup(rng, tmp_path, n_requests=4)
        sup = Supervisor(workers=1, cache_dir=tmp_path)
        with sup:
            sup.wait_ready()
            for name, a in matrices.items():
                sup.router.register_matrix(name, a)
            for req in requests:
                sup.router.submit(req).result(timeout=120)
        snap = sup.router.fleet.registry.snapshot()
        assert validate_metrics_snapshot(snap) == []
        # Folded series carry the (shard, incarnation) provenance labels.
        rows = [
            m for m in snap["metrics"] if m["name"] == "repro_requests_total"
        ]
        assert rows
        for row in rows[0]["series"]:
            assert "shard" in row["labels"]
            assert "incarnation" in row["labels"]


class TestChaosLossBound:
    def test_kill_every_k_stays_within_one_heartbeat(self, rng, tmp_path):
        matrices, requests = _setup(rng, tmp_path, n_requests=12)
        status_path = tmp_path / "fleet-status.json"
        kill_every = 3
        sup = Supervisor(
            workers=2,
            cache_dir=tmp_path,
            status_path=status_path,
            fault_sites=[
                {
                    "site": "shard.kill",
                    "probability": 1.0,
                    "after": kill_every - 1,
                    "count": 1,
                }
            ],
        )
        results = []
        with sup:
            sup.wait_ready()
            for name, a in matrices.items():
                sup.router.register_matrix(name, a)
            for req in requests:
                results.append(sup.router.submit(req).result(timeout=120))

        assert all(r is not None for r in results)  # zero lost
        assert sup.crashes >= 1

        # Loss bound: each crash forfeits at most one heartbeat's delta
        # (<= kill_every requests of accrual), and each redelivery may
        # double-count a request served twice.
        mix, total = _fleet_requests(sup)
        ground_truth = len(sup.router.request_stats()) - sup.router.poison_served
        slack = sup.crashes * kill_every + sup.router.redeliveries
        assert abs(total - ground_truth) <= slack

        # Every crash was charged to the dropped-delta counter.
        assert sup.router.fleet.dropped_on_crash == sup.crashes
        assert sup.router.fleet.ingest_errors == 0

        doc = json.loads(status_path.read_text())
        assert doc["schema"] == "repro.fleet_status/v1"
        assert doc["crashes"] == sup.crashes
        assert doc["fleet"]["dropped_on_crash"] == sup.crashes


class TestMissStormAlerting:
    def test_miss_storm_fires_an_alert_and_leaves_valid_artifacts(
        self, rng, tmp_path, capsys
    ):
        from repro.cli import main

        matrices, requests = _setup(rng, tmp_path, n_requests=12)
        storm = 6
        for req in requests[:storm]:
            req.deadline_s = 1e-6  # unmeetable: served dense, marked missed
        # Windows longer than any run: whether the storm fires depends on
        # the outcome counts only, never on how long respawns take.
        slo = SloTracker(
            [
                SloPolicy(
                    name="serving",
                    deadline_miss_budget=0.05,
                    min_requests=5,
                    window_s=3600.0,
                    fast_window_s=3600.0,
                )
            ]
        )
        status_path = tmp_path / "fleet-status.json"
        sup = Supervisor(
            workers=2,
            cache_dir=tmp_path,
            slo=slo,
            status_path=status_path,
        )
        with sup:
            sup.wait_ready()
            for name, a in matrices.items():
                sup.router.register_matrix(name, a)
            for req in requests:
                assert sup.router.submit(req).result(timeout=120) is not None

        assert len(slo.alerts) >= 1
        alerts_path = export_alerts_jsonl(slo.alerts, tmp_path / "alerts.jsonl")
        lines = [json.loads(ln) for ln in alerts_path.read_text().splitlines()]
        assert len(lines) == len(slo.alerts)
        assert all(a["schema"] == SLO_ALERTS_SCHEMA for a in lines)
        assert all(a["policy"] == "serving" for a in lines)

        doc = json.loads(status_path.read_text())
        assert doc["schema"] == FLEET_STATUS_SCHEMA
        assert doc["alerts"]["fired_total"] == len(slo.alerts)

        fleet = sup.router.fleet
        assert fleet.snapshots_ingested > 0
        assert fleet.ingest_errors == 0
        assert validate_prometheus_text(render_prometheus(fleet.registry)) == []
        assert validate_metrics_snapshot(fleet.registry.snapshot()) == []

        # The live dashboard and the JSON dump both read the status file.
        assert main(["top", "--status-file", str(status_path), "--once"]) == 0
        assert main(["fleet-status", "--status-file", str(status_path)]) == 0
        assert "repro top" in capsys.readouterr().out
