"""Merge/delta semantics of metrics snapshots and the fleet fold.

The property tests pin the merge algebra the fleet depends on: counters
add, gauges last-write-win by capture time, histogram buckets add
element-wise, and mismatched bucket bounds raise the typed error instead
of silently inventing data.
"""

import json

import pytest

from repro.obs import (
    METRICS_SNAPSHOT_SCHEMA,
    BucketMismatchError,
    FleetMetrics,
    MetricsRegistry,
    MetricTypeError,
    SnapshotSchemaError,
    SnapshotShipper,
    counter_by,
    counter_total,
    diff_snapshot,
    histogram_percentiles,
    histogram_quantile,
    validate_metrics_snapshot,
)


def _hist_count(reg: MetricsRegistry, name: str) -> int:
    """Total observations across every label set of one histogram."""
    metric = reg.get(name)
    return sum(n for *_, n in metric.series()) if metric is not None else 0


def _worker_registry(jigsaw: int, dense: int, lat: list[float]) -> MetricsRegistry:
    reg = MetricsRegistry()
    c = reg.counter("repro_requests_total", help="requests")
    if jigsaw:
        c.inc(jigsaw, route="jigsaw")
    if dense:
        c.inc(dense, route="dense")
    h = reg.histogram("repro_kernel_seconds", buckets=(0.001, 0.01, 0.1))
    for v in lat:
        h.observe(v, route="jigsaw")
    reg.gauge("repro_pending").set(float(jigsaw + dense))
    return reg


class TestSnapshotRoundTrip:
    def test_snapshot_is_schema_stamped_json(self):
        snap = _worker_registry(3, 1, [0.005]).snapshot(captured_at=123.0)
        assert snap["schema"] == METRICS_SNAPSHOT_SCHEMA
        assert snap["captured_at"] == 123.0
        json.dumps(snap)  # plain JSON, no numpy/dataclass leakage
        assert validate_metrics_snapshot(snap) == []

    def test_merge_reconstructs_the_source(self):
        src = _worker_registry(3, 1, [0.005, 0.05])
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot())
        assert dst.counter("repro_requests_total").value(route="jigsaw") == 3
        assert dst.counter("repro_requests_total").value(route="dense") == 1
        assert dst.histogram("repro_kernel_seconds").count(route="jigsaw") == 2
        assert dst.gauge("repro_pending").value() == 4.0

    def test_extra_labels_stamped_and_not_spoofable(self):
        src = MetricsRegistry()
        # A worker-side "shard" label must lose to the router's stamp.
        src.counter("c_total").inc(5, shard="lie", route="jigsaw")
        dst = MetricsRegistry()
        dst.merge_snapshot(src.snapshot(), extra_labels={"shard": "2"})
        assert dst.counter("c_total").value(shard="2", route="jigsaw") == 5
        assert dst.counter("c_total").value(shard="lie", route="jigsaw") == 0


class TestMergeAlgebra:
    def test_counters_add(self):
        dst = MetricsRegistry()
        dst.merge_snapshot(_worker_registry(3, 1, []).snapshot())
        dst.merge_snapshot(_worker_registry(2, 0, []).snapshot())
        assert dst.counter("repro_requests_total").value(route="jigsaw") == 5
        assert dst.counter("repro_requests_total").value(route="dense") == 1

    def test_counter_merge_commutes(self):
        a = _worker_registry(3, 1, [0.005]).snapshot(captured_at=1.0)
        b = _worker_registry(4, 2, [0.05, 0.2]).snapshot(captured_at=2.0)
        ab, ba = MetricsRegistry(), MetricsRegistry()
        ab.merge_snapshot(a)
        ab.merge_snapshot(b)
        ba.merge_snapshot(b)
        ba.merge_snapshot(a)
        for reg in (ab, ba):
            assert reg.counter("repro_requests_total").value(route="jigsaw") == 7
            assert _hist_count(reg, "repro_kernel_seconds") == 3
        assert (
            ab.histogram("repro_kernel_seconds").total(route="jigsaw")
            == ba.histogram("repro_kernel_seconds").total(route="jigsaw")
        )

    def test_disjoint_label_merge_equals_union(self):
        # Two shards' series under distinct (shard,) labels: every number
        # in either source appears unchanged in the fold.
        dst = MetricsRegistry()
        for shard, jigsaw in ((0, 3), (1, 5)):
            dst.merge_snapshot(
                _worker_registry(jigsaw, 0, []).snapshot(),
                extra_labels={"shard": str(shard)},
            )
        c = dst.counter("repro_requests_total")
        assert c.value(route="jigsaw", shard="0") == 3
        assert c.value(route="jigsaw", shard="1") == 5
        assert counter_total(dst, "repro_requests_total") == 8

    def test_gauge_merge_is_lww_by_captured_at(self):
        src_old, src_new = MetricsRegistry(), MetricsRegistry()
        src_old.gauge("g").set(1.0)
        src_new.gauge("g").set(2.0)
        newer_last = MetricsRegistry()
        newer_last.merge_snapshot(src_old.snapshot(captured_at=10.0))
        newer_last.merge_snapshot(src_new.snapshot(captured_at=20.0))
        assert newer_last.gauge("g").value() == 2.0
        older_last = MetricsRegistry()
        older_last.merge_snapshot(src_new.snapshot(captured_at=20.0))
        older_last.merge_snapshot(src_old.snapshot(captured_at=10.0))
        assert older_last.gauge("g").value() == 2.0  # stale write ignored

    def test_histogram_buckets_add_elementwise(self):
        dst = MetricsRegistry()
        dst.merge_snapshot(_worker_registry(0, 0, [0.0005, 0.005]).snapshot())
        dst.merge_snapshot(_worker_registry(0, 0, [0.05, 0.5]).snapshot())
        h = dst.histogram("repro_kernel_seconds")
        assert h.count(route="jigsaw") == 4
        assert h.total(route="jigsaw") == pytest.approx(0.5555)
        _, counts, _, n = h.series()[0]
        # (<=1ms, <=10ms, <=100ms, +Inf) one observation each.
        assert counts == [1, 1, 1, 1]
        assert n == 4

    def test_histogram_bucket_mismatch_is_typed(self):
        src = MetricsRegistry()
        src.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
        dst = MetricsRegistry()
        dst.histogram("h", buckets=(1.0, 4.0)).observe(1.5)
        with pytest.raises(BucketMismatchError):
            dst.merge_snapshot(src.snapshot())

    def test_kind_clash_is_typed(self):
        src = MetricsRegistry()
        src.counter("m_total").inc()
        dst = MetricsRegistry()
        dst.gauge("m_total").set(1.0)
        with pytest.raises(MetricTypeError):
            dst.merge_snapshot(src.snapshot())

    @pytest.mark.parametrize(
        "bad",
        [
            "not a dict",
            {"schema": "wrong/v9", "metrics": []},
            {"schema": METRICS_SNAPSHOT_SCHEMA, "metrics": [{"kind": "counter"}]},
            {
                "schema": METRICS_SNAPSHOT_SCHEMA,
                "metrics": [{"name": "x", "kind": "mystery"}],
            },
            {
                "schema": METRICS_SNAPSHOT_SCHEMA,
                "metrics": [{"name": "h", "kind": "histogram", "series": []}],
            },
        ],
    )
    def test_malformed_snapshots_raise_schema_error(self, bad):
        with pytest.raises(SnapshotSchemaError):
            MetricsRegistry().merge_snapshot(bad)

    def test_random_merges_preserve_totals(self):
        # Seeded property sweep: for any pile of worker snapshots, the
        # fold's counter total equals the sum of the sources' totals.
        import random

        rng = random.Random(7)
        for _ in range(20):
            sources = [
                _worker_registry(
                    rng.randrange(0, 10),
                    rng.randrange(0, 10),
                    [rng.random() for _ in range(rng.randrange(0, 5))],
                )
                for _ in range(rng.randrange(1, 5))
            ]
            dst = MetricsRegistry()
            for i, src in enumerate(sources):
                dst.merge_snapshot(src.snapshot(), extra_labels={"shard": str(i)})
            want = sum(
                counter_total(s, "repro_requests_total") for s in sources
            )
            assert counter_total(dst, "repro_requests_total") == want
            want_n = sum(_hist_count(s, "repro_kernel_seconds") for s in sources)
            assert _hist_count(dst, "repro_kernel_seconds") == want_n


class TestDiffSnapshot:
    def test_first_delta_is_the_full_snapshot(self):
        snap = _worker_registry(3, 1, [0.005]).snapshot(captured_at=1.0)
        assert diff_snapshot(snap, None) is snap

    def test_delta_carries_only_accrual(self):
        reg = _worker_registry(3, 0, [0.005])
        first = reg.snapshot(captured_at=1.0)
        reg.counter("repro_requests_total").inc(2, route="jigsaw")
        delta = diff_snapshot(reg.snapshot(captured_at=2.0), first)
        counters = {m["name"]: m for m in delta["metrics"]}
        rows = counters["repro_requests_total"]["series"]
        assert rows == [{"labels": {"route": "jigsaw"}, "value": 2.0}]
        # Unchanged histogram series are dropped from the delta.
        assert "repro_kernel_seconds" not in counters

    def test_idle_delta_is_empty(self):
        reg = _worker_registry(3, 1, [0.005])
        first = reg.snapshot(captured_at=1.0)
        delta = diff_snapshot(reg.snapshot(captured_at=2.0), first)
        assert [m for m in delta["metrics"] if m["kind"] != "gauge"] == []

    def test_counter_reset_ships_absolute_restart_value(self):
        reg = MetricsRegistry()
        reg.counter("c_total").inc(10)
        first = reg.snapshot(captured_at=1.0)
        reg.reset()
        reg.counter("c_total").inc(4)  # fresh process restarted from zero
        delta = diff_snapshot(reg.snapshot(captured_at=2.0), first)
        rows = delta["metrics"][0]["series"]
        assert rows == [{"labels": {}, "value": 4.0}]

    def test_deltas_recompose_to_the_source(self):
        reg = MetricsRegistry()
        shipper = SnapshotShipper(registry=reg, clock=lambda: 1.0)
        dst = MetricsRegistry()
        for round_ in range(3):
            reg.counter("c_total").inc(round_ + 1, route="jigsaw")
            reg.histogram("h", buckets=(1.0, 2.0)).observe(1.5)
            dst.merge_snapshot(shipper.delta(captured_at=float(round_)))
        assert dst.counter("c_total").value(route="jigsaw") == 6
        assert _hist_count(dst, "h") == 3


class TestFleetMetrics:
    def test_ingest_folds_with_shard_incarnation_labels(self):
        fleet_reg = MetricsRegistry()
        fleet = FleetMetrics(registry=fleet_reg)
        assert fleet.ingest(_worker_registry(3, 0, []).snapshot(), 1, 2)
        c = fleet_reg.counter("repro_requests_total")
        assert c.value(route="jigsaw", shard="1", incarnation="2") == 3
        assert fleet.snapshots_ingested == 1
        assert (
            fleet_reg.counter("repro_fleet_snapshots_total").value(shard="1") == 1
        )

    def test_empty_and_non_dict_deltas_are_liveness_only(self):
        fleet = FleetMetrics(registry=MetricsRegistry())
        empty = {"schema": METRICS_SNAPSHOT_SCHEMA, "captured_at": 1.0, "metrics": []}
        assert fleet.ingest(empty, 0, 0) is False
        assert fleet.ingest(None, 0, 0) is False
        assert fleet.snapshots_ingested == 0
        assert fleet.ingest_errors == 0
        assert fleet.last_ingest_age_s(0) is not None
        assert fleet.last_ingest_age_s(9) is None

    def test_malformed_delta_counted_not_raised(self):
        reg = MetricsRegistry()
        fleet = FleetMetrics(registry=reg)
        bad = {
            "schema": METRICS_SNAPSHOT_SCHEMA,
            "metrics": [{"name": "x", "kind": "mystery", "series": []}],
        }
        assert fleet.ingest(bad, 3, 0) is False
        assert fleet.ingest_errors == 1
        assert reg.counter("repro_fleet_ingest_errors_total").value(shard="3") == 1

    def test_note_crash_counts(self):
        reg = MetricsRegistry()
        fleet = FleetMetrics(registry=reg)
        fleet.note_crash(0, 4)
        assert fleet.dropped_on_crash == 1
        assert (
            reg.counter("repro_fleet_dropped_on_crash_total").value(shard="0") == 1
        )


class TestAggregation:
    def _fleet(self) -> MetricsRegistry:
        reg = MetricsRegistry()
        fleet = FleetMetrics(registry=reg)
        fleet.ingest(_worker_registry(3, 1, [0.005, 0.005]).snapshot(), 0, 0)
        fleet.ingest(_worker_registry(5, 0, [0.05, 0.05]).snapshot(), 1, 0)
        # A router-local series with no shard label must be excludable.
        reg.counter("repro_requests_total").inc(100, route="dense")
        return reg

    def test_counter_total_with_where_and_require(self):
        reg = self._fleet()
        assert counter_total(reg, "repro_requests_total", require=("shard",)) == 9
        assert (
            counter_total(
                reg, "repro_requests_total", {"shard": "1"}, require=("shard",)
            )
            == 5
        )
        assert counter_total(reg, "repro_requests_total") == 109
        assert counter_total(reg, "no_such_total") == 0.0

    def test_counter_by_groups_and_buckets_unlabeled(self):
        reg = self._fleet()
        mix = counter_by(reg, "repro_requests_total", "route", require=("shard",))
        assert mix == {"jigsaw": 8, "dense": 1}
        by_shard = counter_by(reg, "repro_requests_total", "shard")
        assert by_shard[""] == 100  # the router-local series

    def test_histogram_quantiles_across_shards(self):
        reg = self._fleet()
        # shard 0 observed 5ms twice, shard 1 50ms twice: the fleet p50
        # sits in the 10ms bucket boundary region, p99 in the 100ms one.
        q50 = histogram_quantile(reg, "repro_kernel_seconds", 0.5, require=("shard",))
        q99 = histogram_quantile(reg, "repro_kernel_seconds", 0.99, require=("shard",))
        assert 0.001 < q50 <= 0.01 + 1e-9  # interpolates to the 10ms bound
        assert 0.01 < q99 <= 0.1 + 1e-9
        only0 = histogram_percentiles(
            reg, "repro_kernel_seconds", {"shard": "0"}, require=("shard",)
        )
        assert only0["p99"] <= 0.01
        assert histogram_percentiles(reg, "absent") == {
            "p50": 0.0,
            "p95": 0.0,
            "p99": 0.0,
        }


def _delta(*records, captured_at=1.0) -> dict:
    return {
        "schema": METRICS_SNAPSHOT_SCHEMA,
        "captured_at": captured_at,
        "metrics": list(records),
    }


def _counter_rec(value, series=None) -> dict:
    return {
        "name": "repro_requests_total",
        "kind": "counter",
        "help": "requests",
        "series": (
            [{"labels": {"route": "jigsaw"}, "value": value}]
            if series is None
            else series
        ),
    }


def _hist_rec(counts, count, buckets=(0.001, 0.01, 0.1), hsum=0.01) -> dict:
    return {
        "name": "repro_kernel_seconds",
        "kind": "histogram",
        "help": "",
        "buckets": list(buckets),
        "series": [
            {
                "labels": {"route": "jigsaw"},
                "bucket_counts": counts,
                "sum": hsum,
                "count": count,
            }
        ],
    }


#: Malformed deltas a worker could ship; each one must be dropped whole.
BAD_DELTAS = {
    "counter_value_none": _delta(_counter_rec(None)),
    "series_is_a_string": _delta(_counter_rec(1.0, series="jigsaw")),
    "unknown_kind_after_a_valid_counter": _delta(
        _counter_rec(2.0), {"name": "x", "kind": "mystery", "series": []}
    ),
    "histogram_count_over_bucket_total": _delta(_hist_rec([1, 1, 0, 0], 7)),
}


def _worker_series(reg: MetricsRegistry) -> list[dict]:
    """Every family's records except the fleet's own bookkeeping."""
    return [
        m
        for m in reg.snapshot(captured_at=0.0)["metrics"]
        if not m["name"].startswith("repro_fleet_")
    ]


class TestAllOrNothingIngest:
    @pytest.mark.parametrize("case", sorted(BAD_DELTAS))
    def test_malformed_delta_is_dropped_whole(self, case):
        reg = MetricsRegistry()
        fleet = FleetMetrics(registry=reg)
        assert fleet.ingest(_worker_registry(3, 1, [0.005]).snapshot(), 0, 0)
        before = _worker_series(reg)
        assert fleet.ingest(BAD_DELTAS[case], 0, 0) is False
        assert fleet.ingest_errors == 1
        assert reg.counter("repro_fleet_ingest_errors_total").value(shard="0") == 1
        assert _worker_series(reg) == before

    def test_clash_with_a_registered_family_merges_nothing(self):
        reg = MetricsRegistry()
        reg.gauge("repro_pending").set(1.0)
        reg.histogram("repro_kernel_seconds", buckets=(1.0, 2.0))
        before = reg.snapshot(captured_at=0.0)
        # The counter record comes first and is valid on its own.
        kind_clash = _delta(
            _counter_rec(1.0),
            {"name": "repro_pending", "kind": "counter", "series": []},
        )
        with pytest.raises(MetricTypeError):
            reg.merge_snapshot(kind_clash)
        with pytest.raises(BucketMismatchError):
            reg.merge_snapshot(_delta(_counter_rec(1.0), _hist_rec([1, 0, 0, 0], 1)))
        assert reg.snapshot(captured_at=0.0) == before


#: Snapshots both checks must accept.
GOOD_SNAPSHOTS = [
    _worker_registry(3, 1, [0.005, 0.5]).snapshot(captured_at=5.0),
    _delta(),
    _delta(captured_at=3),
    _delta(_counter_rec(0.0)),
    _delta(_hist_rec([0, 0, 0, 0], 0)),
    _delta(_hist_rec([1, 0, 2, 1], 4, hsum=9.5)),
    _delta({"name": "g", "kind": "gauge", "series": [{"value": -2.5}]}),
    _delta({"name": "c_total", "kind": "counter", "series": []}),
]

#: Snapshots both checks must reject: the schema-error inputs above, the
#: four malformed deltas, and one of each remaining shape fault.
BAD_SNAPSHOTS = {
    "not_a_dict": "not a dict",
    "wrong_schema": {"schema": "wrong/v9", "metrics": []},
    "record_without_name": {
        "schema": METRICS_SNAPSHOT_SCHEMA,
        "metrics": [{"kind": "counter"}],
    },
    "unknown_kind": {
        "schema": METRICS_SNAPSHOT_SCHEMA,
        "metrics": [{"name": "x", "kind": "mystery"}],
    },
    "histogram_without_buckets": {
        "schema": METRICS_SNAPSHOT_SCHEMA,
        "metrics": [{"name": "h", "kind": "histogram", "series": []}],
    },
    **BAD_DELTAS,
    "no_captured_at": {"schema": METRICS_SNAPSHOT_SCHEMA, "metrics": []},
    "captured_at_not_a_number": _delta(captured_at="now"),
    "metrics_not_a_list": {
        "schema": METRICS_SNAPSHOT_SCHEMA,
        "captured_at": 1.0,
        "metrics": {},
    },
    "record_not_an_object": _delta("counter"),
    "duplicate_record": _delta(_counter_rec(1.0), _counter_rec(1.0)),
    "invalid_name": _delta({**_counter_rec(1.0), "name": "bad-name"}),
    "help_not_a_string": _delta({**_counter_rec(1.0), "help": 7}),
    "negative_counter": _delta(_counter_rec(-1.0)),
    "bool_value": _delta(_counter_rec(True)),
    "row_not_an_object": _delta(_counter_rec(1.0, series=["row"])),
    "labels_not_an_object": _delta(
        _counter_rec(1.0, series=[{"labels": ["route"], "value": 1.0}])
    ),
    "invalid_label_name": _delta(
        _counter_rec(1.0, series=[{"labels": {"bad-label": "x"}, "value": 1}])
    ),
    "label_value_not_a_string": _delta(
        _counter_rec(1.0, series=[{"labels": {"route": 3}, "value": 1.0}])
    ),
    "gauge_value_a_string": _delta(
        {"name": "g", "kind": "gauge", "series": [{"value": "1"}]}
    ),
    "empty_buckets": _delta(_hist_rec([1, 0, 0, 0], 1, buckets=())),
    "unsorted_buckets": _delta(_hist_rec([1, 0, 0, 0], 1, buckets=(0.1, 0.01, 1.0))),
    "repeated_bucket": _delta(_hist_rec([1, 0, 0, 0], 1, buckets=(0.1, 0.1, 1.0))),
    "infinite_bucket": _delta(
        _hist_rec([1, 0, 0, 0], 1, buckets=(0.1, 1.0, float("inf")))
    ),
    "too_few_bucket_counts": _delta(_hist_rec([1, 0, 0], 1)),
    "negative_bucket_count": _delta(_hist_rec([1, 0, 0, -1], 0)),
    "float_bucket_count": _delta(_hist_rec([1.0, 0, 0, 0], 1)),
    "float_count": _delta(_hist_rec([1, 0, 0, 0], 1.0)),
    "sum_missing": _delta(_hist_rec([1, 0, 0, 0], 1, hsum=None)),
}


class TestValidateMergeParity:
    """``validate_metrics_snapshot`` is the merge's own check: a document
    passes it exactly when a fresh registry merges it."""

    @pytest.mark.parametrize("doc", GOOD_SNAPSHOTS)
    def test_valid_snapshots_merge(self, doc):
        assert validate_metrics_snapshot(doc) == []
        MetricsRegistry().merge_snapshot(doc)

    @pytest.mark.parametrize("case", sorted(BAD_SNAPSHOTS))
    def test_invalid_snapshots_are_rejected_untouched(self, case):
        doc = BAD_SNAPSHOTS[case]
        assert validate_metrics_snapshot(doc) != []
        reg = MetricsRegistry()
        with pytest.raises(SnapshotSchemaError):
            reg.merge_snapshot(doc)
        assert reg.metrics() == []
