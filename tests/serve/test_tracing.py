"""Executor tracing: one root span per request, children consistent with
the request's own :class:`RequestStats` timings, and zero cost disarmed."""

import pytest

from repro.obs import NULL_TRACER, Tracer, validate_span_records
from repro.serve import BatchExecutor, SpmmRequest
from tests.conftest import panel as _panel


def _run_traced(registry, rng, n_requests=8, **executor_kw):
    tracer = Tracer()
    with BatchExecutor(registry, tracer=tracer, **executor_kw) as ex:
        reqs = [
            SpmmRequest(f"w{i % 2}", _panel(rng, n=8 + i)) for i in range(n_requests)
        ]
        results = ex.run(reqs)
    return tracer, results


class TestRequestSpans:
    def test_one_root_span_per_completed_request(self, registry, rng, metrics):
        tracer, results = _run_traced(registry, rng, max_batch=4)
        spans = tracer.buffer.snapshot()
        roots = [s for s in spans if s.name == "serve.request"]
        assert len(roots) == len(results) == 8
        # Every root is its own trace, carries the request identity, and
        # completed ok on the jigsaw route.
        assert len({s.trace_id for s in roots}) == 8
        for s in roots:
            assert s.parent_id is None
            assert s.attrs["outcome"] == "ok"
            assert s.attrs["route"] == "jigsaw"
            assert "request_id" in s.attrs and "matrix" in s.attrs

    def test_children_consistent_with_request_stats(self, registry, rng, metrics):
        tracer, results = _run_traced(registry, rng, max_batch=4)
        spans = tracer.buffer.snapshot()
        roots = {
            s.attrs["request_id"]: s for s in spans if s.name == "serve.request"
        }
        children = {}
        for s in spans:
            if s.parent_id is not None:
                children.setdefault(s.parent_id, []).append(s)

        for res in results:
            stats = res.stats
            root = roots[stats.request_id]
            kids = {c.name: c for c in children.get(root.span_id, [])}
            # queue child covers submit -> batch start, exactly the
            # executor's own queue_wait_s measurement.
            assert kids["serve.queue"].duration_s == pytest.approx(
                stats.queue_wait_s, abs=1e-9
            )
            batch = kids["serve.batch"]
            assert batch.attrs["batch_size"] == stats.batch_size
            # kernel grandchild carries the simulated kernel attribution.
            (kernel,) = [
                c for c in children.get(batch.span_id, []) if c.name == "serve.kernel"
            ]
            assert kernel.attrs["kernel_us"] == pytest.approx(stats.kernel_us)
            assert kernel.attrs["batch_kernel_us"] == pytest.approx(
                stats.batch_kernel_us
            )
            # Children nest inside the root interval.
            for c in kids.values():
                assert c.trace_id == root.trace_id
                assert root.start_s <= c.start_s
                assert c.end_s <= root.end_s + 1e-9

    def test_exported_spans_pass_schema_validation(self, registry, rng, metrics):
        tracer, _ = _run_traced(registry, rng, max_batch=4)
        recs = [s.to_dict() for s in tracer.buffer.snapshot()]
        assert validate_span_records(recs) == []

    def test_rejected_request_root_span_says_so(self, registry, rng, metrics):
        from repro.serve import RejectedError

        tracer = Tracer()
        # max_batch > burst so nothing dispatches while we overfill.
        with BatchExecutor(
            registry, tracer=tracer, max_batch=64, max_pending=2
        ) as ex:
            f1 = ex.submit(SpmmRequest("w0", _panel(rng)))
            f2 = ex.submit(SpmmRequest("w0", _panel(rng)))
            with pytest.raises(RejectedError):
                ex.submit(SpmmRequest("w0", _panel(rng)))
            ex.flush()
            for f in (f1, f2):
                f.result(timeout=60)
        roots = [
            s for s in tracer.buffer.snapshot() if s.name == "serve.request"
        ]
        outcomes = sorted(s.attrs["outcome"] for s in roots)
        assert outcomes == ["ok", "ok", "rejected"]
        rejected = [s for s in roots if s.attrs["outcome"] == "rejected"]
        assert rejected[0].attrs["error_type"] == "RejectedError"
        assert metrics.get("repro_rejected_total").value() == 1

    def test_queue_wait_histogram_collected(self, registry, rng, metrics):
        _run_traced(registry, rng, max_batch=4)
        h = metrics.get("repro_queue_wait_seconds")
        assert h is not None
        assert h.count() == 8
        c = metrics.get("repro_requests_total")
        assert c.value(route="jigsaw") == 8


class TestDisarmed:
    def test_null_tracer_records_nothing(self, registry, rng, metrics):
        with BatchExecutor(registry, max_batch=4) as ex:
            assert ex.tracer is NULL_TRACER
            results = ex.run(
                [SpmmRequest("w0", _panel(rng)) for _ in range(4)]
            )
        assert len(results) == 4
        assert len(NULL_TRACER.buffer) == 0

    def test_metrics_still_collected_when_disarmed(self, registry, rng, metrics):
        with BatchExecutor(registry, max_batch=4) as ex:
            ex.run([SpmmRequest("w0", _panel(rng)) for _ in range(4)])
        assert metrics.get("repro_requests_total").value(route="jigsaw") == 4
