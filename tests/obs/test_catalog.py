"""The metric catalog: every family declared once, documented, and used
with its declared labels."""

import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from repro.graph import GraphExecutor, ModelGraph
from repro.obs import MetricsRegistry, MetricTypeError, SloPolicy, SloTracker
from repro.obs.metrics import CATALOG, DEFAULT_BUCKETS
from repro.sched import AdmissionController, CostModel, Scheduler, ThrottledError
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest
from tests.conftest import random_vector_sparse

ROOT = Path(__file__).resolve().parents[2]
_ROW_RE = re.compile(r"^\| `(repro_[a-z_]+)` \| (\w+) \| ([^|]*) \| ([^|]*) \|$")


def _doc_rows() -> dict[str, tuple[str, tuple[str, ...], str]]:
    text = (ROOT / "docs" / "observability.md").read_text()
    rows = {}
    for line in text.splitlines():
        m = _ROW_RE.match(line.strip())
        if m:
            name, kind, labels, help = m.groups()
            rows[name] = (kind, tuple(re.findall(r"`(\w+)`", labels)), help.strip())
    return rows


class TestDocumented:
    def test_docs_table_equals_the_catalog(self):
        rows = _doc_rows()
        assert sorted(rows) == sorted(CATALOG)
        for name, spec in CATALOG.items():
            assert rows[name] == (spec.kind, spec.labels, spec.help), name


class TestAccessor:
    def test_unknown_name_raises_key_error(self):
        with pytest.raises(KeyError):
            MetricsRegistry().metric("repro_no_such_total")

    def test_family_comes_from_its_entry_once(self):
        reg = MetricsRegistry()
        batch = reg.metric("repro_batch_size")
        assert batch is reg.metric("repro_batch_size")
        assert batch.kind == "histogram"
        assert batch.help == CATALOG["repro_batch_size"].help
        assert batch.buckets == (1, 2, 4, 8, 16, 32, 64)
        assert reg.metric("repro_kernel_seconds").buckets == DEFAULT_BUCKETS

    def test_kind_clash_is_typed(self):
        reg = MetricsRegistry()
        reg.gauge("repro_requests_total")
        with pytest.raises(MetricTypeError):
            reg.metric("repro_requests_total")

    def test_first_use_races_create_one_family(self):
        # The hit path reads without the registry lock; racing first uses
        # must still land every increment in a single family.
        reg = MetricsRegistry()
        barrier = threading.Barrier(8)

        def bump():
            barrier.wait(timeout=10)
            for _ in range(500):
                reg.metric("repro_retries_total").inc()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert reg.metric("repro_retries_total").value() == 8 * 500

    def test_sites_name_catalogued_families_only(self):
        # No module but obs/metrics.py declares a family, and every name a
        # site asks for is catalogued (and every entry is asked for).
        src = ROOT / "src" / "repro"
        used: set[str] = set()
        for path in src.rglob("*.py"):
            text = path.read_text()
            if path != src / "obs" / "metrics.py":
                assert not re.search(r"\.(counter|gauge|histogram)\(", text), path
            used.update(re.findall(r'\.metric\(\s*"(\w+)"', text))
        assert used == set(CATALOG)


class TestDeclaredLabels:
    def test_series_carry_exactly_their_declared_labels(
        self, rng, tmp_path, metrics
    ):
        # Executor (throttle, deadline miss, batching), graph executor and
        # an SLO tracker, all into the private ``metrics`` registry.
        registry = PlanRegistry(cache_dir=tmp_path)
        graph = ModelGraph(input_cast="float16")
        graph.add_layer(
            "fc0", weight=random_vector_sparse(64, 64, 4, 0.9, rng), cast="float16"
        )
        graph.register(registry)
        registry.register("w", random_vector_sparse(64, 64, 4, 0.9, rng))
        registry.warm()
        adm = AdmissionController().configure(
            "slow", priority="interactive", rate_per_s=0.001, burst=1
        )
        sched = Scheduler(admission=adm, cost_model=CostModel())
        panel = rng.standard_normal((64, 8)).astype(np.float16)
        with BatchExecutor(registry, max_batch=4, scheduler=sched) as ex:
            ex.run([SpmmRequest("w", panel, tenant="slow")])
            with pytest.raises(ThrottledError):
                ex.run([SpmmRequest("w", panel, tenant="slow")])
            ex.run([SpmmRequest("w", panel, deadline_s=0.0)] * 2)
            GraphExecutor(graph, ex).run([panel, panel])
        slo = SloTracker(
            [SloPolicy(name="serving", deadline_miss_budget=0.1, min_requests=1)],
            registry=metrics,
        )
        slo.record("t", 0.01, True, now=0.0)

        seen = {m.name: m for m in metrics.metrics()}
        assert set(seen) <= set(CATALOG)
        assert {
            "repro_requests_total",
            "repro_deadline_missed_total",
            "repro_sched_throttled_total",
            "repro_graph_requests_total",
            "repro_slo_alerts_total",
            "repro_slo_burn_rate",
            "repro_batch_size",
        } <= set(seen)
        for name, family in seen.items():
            spec = CATALOG[name]
            assert family.kind == spec.kind, name
            for labels, _ in family.samples():
                assert sorted(labels) == sorted(spec.labels), (name, labels)
