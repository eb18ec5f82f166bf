"""Tests for the batched executor: grouping, routing, deadlines,
concurrency, and the aggregated serving stats."""

import threading

import numpy as np
import pytest

from repro.serve import BatchExecutor, ServeStats, SpmmRequest
from tests.conftest import FLUSH_ONLY_WINDOW_S, panel as _panel


def _reference(reg, name, b):
    return reg.matrix(name).astype(np.float32) @ b.astype(np.float32)


class TestBatching:
    def test_same_matrix_requests_share_one_launch(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=8, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            reqs = [SpmmRequest("w0", _panel(rng, n=8 + i)) for i in range(6)]
            results = ex.run(reqs)
            batches = ex.batch_stats()
        assert len(batches) == 1
        assert batches[0].size == 6
        for res, req in zip(results, reqs):
            assert res.stats.batch_size == 6
            assert res.stats.route == "jigsaw"
            assert res.c.shape == (64, req.b.shape[1])
            np.testing.assert_allclose(
                res.c, _reference(registry, "w0", req.b), rtol=1e-3, atol=1e-2
            )

    def test_full_group_dispatches_at_max_batch(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=4, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            results = ex.run([SpmmRequest("w0", _panel(rng)) for _ in range(8)])
            batches = ex.batch_stats()
        assert len(results) == 8
        assert len(batches) == 2
        assert all(b.size == 4 for b in batches)

    def test_different_matrices_do_not_mix(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=8, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            reqs = [SpmmRequest(f"w{i % 2}", _panel(rng)) for i in range(6)]
            results = ex.run(reqs)
            batches = ex.batch_stats()
        assert sorted(b.matrix for b in batches) == ["w0", "w1"]
        for res, req in zip(results, reqs):
            np.testing.assert_allclose(
                res.c, _reference(registry, req.matrix, req.b), rtol=1e-3, atol=1e-2
            )

    def test_different_versions_do_not_mix(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=8, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            ex.run(
                [
                    SpmmRequest("w0", _panel(rng), version="v3"),
                    SpmmRequest("w0", _panel(rng), version="v4"),
                ]
            )
            batches = ex.batch_stats()
        assert sorted(b.version for b in batches) == ["v3", "v4"]

    def test_one_batched_launch_beats_sequential_launches(self, registry, rng):
        # Eight same-matrix requests run as one concatenated-B launch,
        # which must beat eight plan.run launches on simulated kernel
        # time; with no fault plan every resilience counter stays zero.
        panels = [_panel(rng) for _ in range(8)]
        plan = registry.get("w0")
        sequential_us = sum(
            plan.run(b, want_output=False).profile.duration_us for b in panels
        )
        with BatchExecutor(
            registry, max_batch=8, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            results = ex.run([SpmmRequest("w0", b) for b in panels])
            batched_us = sum(b.kernel_us for b in ex.batch_stats())
            stats = ex.stats()
        assert stats.batches == 1
        assert all(r.stats.batch_size == 8 for r in results)
        assert stats.route_counts["jigsaw"] == 8
        assert batched_us < sequential_us
        assert stats.retries == 0
        assert stats.breaker_trips == 0
        assert stats.quarantined == 0
        assert stats.rejected == 0

    def test_linger_window_flushes_without_explicit_flush(self, registry, rng):
        with BatchExecutor(registry, max_batch=8, batch_window_s=0.01) as ex:
            fut = ex.spmm("w0", _panel(rng))
            res = fut.result(timeout=30)  # dispatcher must fire on its own
        assert res.stats.route == "jigsaw"


class TestValidation:
    def test_unknown_matrix_rejected_at_submit(self, registry, rng):
        with BatchExecutor(registry) as ex:
            with pytest.raises(KeyError):
                ex.spmm("missing", _panel(rng))

    def test_bad_panel_shape_rejected(self, registry, rng):
        with BatchExecutor(registry) as ex:
            with pytest.raises(ValueError, match="rows"):
                ex.spmm("w0", rng.standard_normal((64, 8)).astype(np.float16))
            with pytest.raises(ValueError, match="2-D"):
                ex.spmm("w0", np.zeros(128, np.float16))

    def test_unknown_version_rejected(self, registry, rng):
        with BatchExecutor(registry) as ex:
            with pytest.raises(ValueError, match="version"):
                ex.spmm("w0", _panel(rng), version="v9")

    def test_submit_after_close_raises(self, registry, rng):
        ex = BatchExecutor(registry)
        ex.close()
        with pytest.raises(RuntimeError, match="closed"):
            ex.spmm("w0", _panel(rng))


class TestRouting:
    def test_expired_deadline_takes_dense_fallback(self, registry, rng):
        with BatchExecutor(registry, max_batch=8) as ex:
            b = _panel(rng)
            res = ex.run([SpmmRequest("w0", b, deadline_s=0.0)])[0]
        assert res.stats.route == "dense"
        assert res.stats.deadline_expired
        np.testing.assert_allclose(
            res.c, _reference(registry, "w0", b), rtol=1e-3, atol=1e-2
        )

    def test_generous_deadline_stays_on_jigsaw(self, registry, rng):
        with BatchExecutor(registry, max_batch=8) as ex:
            res = ex.run([SpmmRequest("w0", _panel(rng), deadline_s=60.0)])[0]
        assert res.stats.route == "jigsaw"
        assert not res.stats.deadline_expired

    def test_failed_reorder_routes_to_hybrid(self, registry, rng):
        # A fully dense matrix cannot satisfy 2:4 without growing K, so
        # the reorder reports failure and the batch runs hybrid.
        dense = (np.abs(rng.standard_normal((32, 64))) + 0.5).astype(np.float16)
        registry.register("dense", dense)
        with BatchExecutor(registry, max_batch=4) as ex:
            reqs = [
                SpmmRequest("dense", rng.standard_normal((64, 8)).astype(np.float16))
                for _ in range(3)
            ]
            results = ex.run(reqs)
        for res, req in zip(results, reqs):
            assert res.stats.route == "hybrid"
            np.testing.assert_allclose(
                res.c, _reference(registry, "dense", req.b), rtol=1e-2, atol=0.1
            )

    def test_mixed_expiry_splits_batch(self, registry, rng):
        with BatchExecutor(registry, max_batch=8) as ex:
            reqs = [
                SpmmRequest("w0", _panel(rng), deadline_s=0.0),
                SpmmRequest("w0", _panel(rng)),
                SpmmRequest("w0", _panel(rng), deadline_s=60.0),
            ]
            results = ex.run(reqs)
        routes = [r.stats.route for r in results]
        assert routes == ["dense", "jigsaw", "jigsaw"]
        for res, req in zip(results, reqs):
            np.testing.assert_allclose(
                res.c, _reference(registry, "w0", req.b), rtol=1e-3, atol=1e-2
            )


class TestConcurrency:
    def test_threaded_submitters_all_served_correctly(self, registry, rng):
        panels = [_panel(rng, n=8) for _ in range(32)]
        futures = [None] * len(panels)
        with BatchExecutor(registry, max_batch=4, max_workers=4) as ex:
            def submitter(lo, hi):
                for i in range(lo, hi):
                    futures[i] = ex.spmm(f"w{i % 2}", panels[i])

            threads = [
                threading.Thread(target=submitter, args=(j * 8, (j + 1) * 8))
                for j in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ex.flush()
            results = [f.result(timeout=60) for f in futures]
        for i, res in enumerate(results):
            np.testing.assert_allclose(
                res.c,
                _reference(registry, f"w{i % 2}", panels[i]),
                rtol=1e-3,
                atol=1e-2,
            )
        assert registry.reorder_runs <= 6  # one build per (matrix, block_tile)

    @pytest.mark.slow
    def test_soak_under_small_budget(self, registry, rng, tmp_path):
        # Longer churn: tiny budget forces constant eviction while four
        # pool threads execute; everything must stay correct.
        registry.warm()
        registry.budget_bytes = registry.resident_bytes() // 2
        panels = [_panel(rng, n=8) for _ in range(96)]
        with BatchExecutor(registry, max_batch=8, max_workers=4) as ex:
            reqs = [
                SpmmRequest(f"w{i % 2}", panels[i]) for i in range(len(panels))
            ]
            results = ex.run(reqs, timeout=300)
        for i, res in enumerate(results):
            np.testing.assert_allclose(
                res.c,
                _reference(registry, f"w{i % 2}", panels[i]),
                rtol=1e-3,
                atol=1e-2,
            )
        assert registry.stats.evictions > 0
        assert registry.reorder_runs <= 6  # never recomputes after warm-up


class TestLifecycleEdges:
    def test_double_close_is_idempotent(self, registry):
        ex = BatchExecutor(registry)
        ex.close()
        ex.close()  # must not raise or hang

    def test_submit_after_close_raises_typed_error(self, registry, rng):
        from repro.serve import ExecutorClosedError

        ex = BatchExecutor(registry)
        ex.close()
        with pytest.raises(ExecutorClosedError):
            ex.spmm("w0", _panel(rng))

    def test_close_vs_submit_race_never_hangs(self, registry, rng):
        # Hammer submit from several threads while close() lands in the
        # middle: every submit must either produce a future that
        # completes, or raise the typed closed error — no hangs, no
        # futures stranded pending.
        from repro.serve import ExecutorClosedError

        for _ in range(5):
            ex = BatchExecutor(registry, max_batch=2, max_workers=2)
            futures, errors = [], []
            lock = threading.Lock()
            start = threading.Barrier(5)

            def submitter():
                start.wait()
                for _ in range(10):
                    try:
                        f = ex.spmm("w0", _panel(rng, n=4))
                    except ExecutorClosedError:
                        errors.append(1)
                    else:
                        with lock:
                            futures.append(f)

            def closer():
                start.wait()
                ex.close()

            threads = [threading.Thread(target=submitter) for _ in range(4)]
            threads.append(threading.Thread(target=closer))
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            ex.close()
            for f in futures:
                res = f.result(timeout=60)  # accepted => must complete
                assert res.c.shape[0] == 64

    def test_run_empty_burst(self, registry):
        with BatchExecutor(registry) as ex:
            assert ex.run([]) == []

    def test_run_does_not_leak_futures_when_a_submit_raises(self, registry, rng):
        # A burst whose 3rd request has a bad shape: run() must cancel or
        # drain the first two before re-raising, so a close() right after
        # cannot block on stranded work and pending drains to zero.
        with BatchExecutor(registry, max_batch=64) as ex:
            reqs = [
                SpmmRequest("w0", _panel(rng)),
                SpmmRequest("w0", _panel(rng)),
                SpmmRequest("w0", np.zeros((3, 3), np.float16)),  # bad rows
            ]
            with pytest.raises(ValueError, match="rows"):
                ex.run(reqs)
            deadline = __import__("time").perf_counter() + 60
            while ex.pending and __import__("time").perf_counter() < deadline:
                __import__("time").sleep(0.005)
            assert ex.pending == 0


class TestZeroWidthPanels:
    def test_zero_width_panel_alone(self, registry, rng):
        with BatchExecutor(registry, max_batch=4) as ex:
            res = ex.run([SpmmRequest("w0", np.zeros((128, 0), np.float16))])[0]
        assert res.c.shape == (64, 0)
        # Every kernel path emits fp32 C; the empty resolution matches.
        assert res.c.dtype == np.float32

    def test_zero_width_mixed_into_batch(self, registry, rng):
        with BatchExecutor(registry, max_batch=4) as ex:
            reqs = [
                SpmmRequest("w0", _panel(rng, n=8)),
                SpmmRequest("w0", np.zeros((128, 0), np.float16)),
                SpmmRequest("w0", _panel(rng, n=4)),
            ]
            results = ex.run(reqs)
        assert [r.c.shape[1] for r in results] == [8, 0, 4]
        for res, req in zip(results, reqs):
            if req.b.shape[1]:
                np.testing.assert_allclose(
                    res.c, _reference(registry, "w0", req.b), rtol=1e-3, atol=1e-2
                )

    def test_zero_width_expired_dense(self, registry, rng):
        with BatchExecutor(registry, max_batch=4) as ex:
            res = ex.run(
                [SpmmRequest("w0", np.zeros((128, 0), np.float16), deadline_s=0.0)]
            )[0]
        assert res.c.shape == (64, 0)
        assert res.stats.deadline_expired


class TestExpiredDense:
    def test_expired_request_runs_on_pool_not_inline(self, registry, rng):
        # The expired request's dense fallback must be handed to the
        # pool, not run inline ahead of the live batch's kernel launch.
        submitted_fns = []
        with BatchExecutor(registry, max_batch=8) as ex:
            real_submit = ex._pool.submit

            def spying_submit(fn, *a, **kw):
                submitted_fns.append(fn.__name__)
                return real_submit(fn, *a, **kw)

            ex._pool.submit = spying_submit
            results = ex.run(
                [
                    SpmmRequest("w0", _panel(rng), deadline_s=0.0),
                    SpmmRequest("w0", _panel(rng)),
                ]
            )
            ex._pool.submit = real_submit
        assert [r.stats.route for r in results] == ["dense", "jigsaw"]
        assert "_run_dense" in submitted_fns


class TestStats:
    def test_serve_stats_aggregation(self, registry, rng):
        with BatchExecutor(registry, max_batch=4) as ex:
            ex.run(
                [SpmmRequest("w0", _panel(rng)) for _ in range(4)]
                + [SpmmRequest("w1", _panel(rng), deadline_s=0.0)]
            )
            stats = ex.stats()
        assert stats.requests == 5
        assert stats.route_counts["jigsaw"] == 4
        assert stats.route_counts["dense"] == 1
        assert stats.deadline_expired == 1
        assert stats.max_batch_size == 4
        assert stats.batch_kernel_us_total > 0
        assert stats.avg_queue_wait_s >= 0
        assert stats.registry_misses >= 1
        assert stats.reorder_runs >= 1

    def test_request_stats_validates_route(self):
        from repro.serve import RequestStats

        with pytest.raises(ValueError, match="route"):
            RequestStats(request_id=0, matrix="w", route="warp-drive")

    def test_request_stats_validates_registry_outcome(self):
        from repro.serve import RequestStats

        with pytest.raises(ValueError, match="registry outcome"):
            RequestStats(request_id=0, matrix="w", route="jigsaw", registry="maybe")
        # Both documented outcomes construct fine.
        for outcome in ("hit", "miss"):
            RequestStats(request_id=0, matrix="w", route="jigsaw", registry=outcome)

    def test_collect_aggregates_per_route_kernel_time(self):
        from repro.serve import RequestStats

        reqs = [
            RequestStats(0, "w", "jigsaw", kernel_us=10.0, registry="hit"),
            RequestStats(1, "w", "jigsaw", kernel_us=5.0, registry="miss"),
            RequestStats(2, "w", "dense", kernel_us=2.5, registry="hit"),
        ]
        stats = ServeStats.collect(reqs, [])
        assert stats.route_kernel_us == {
            "jigsaw": 15.0,
            "compiled": 0.0,
            "jigsaw@vnm": 0.0,
            "hybrid": 0.0,
            "dense": 2.5,
        }
        assert stats.request_registry_hits == 2
        assert stats.request_registry_misses == 1

    def test_empty_stats(self):
        stats = ServeStats.collect([], [])
        assert stats.avg_batch_size == 0.0
        assert stats.avg_queue_wait_s == 0.0
        assert stats.route_kernel_us == {
            "jigsaw": 0.0,
            "compiled": 0.0,
            "jigsaw@vnm": 0.0,
            "hybrid": 0.0,
            "dense": 0.0,
        }
        assert stats.request_registry_hits == 0
        assert stats.request_registry_misses == 0
        # A default-constructed record averages without dividing by zero.
        assert ServeStats().requests == 0
        assert ServeStats().avg_batch_size == 0.0
