"""Serve-layer tests for the format zoo and the dtype bugfix sweep:
the ``jigsaw@vnm`` route, dtype-keyed batch forming, fp32 precision
preservation, and the typed ``MixedDtypeError``."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.formats import venom_prune
from repro.serve import (
    FALLBACK_CHAIN,
    BatchExecutor,
    MixedDtypeError,
    PlanRegistry,
    SpmmRequest,
)
from tests.conftest import FLUSH_ONLY_WINDOW_S, random_vector_sparse


@pytest.fixture()
def registry(rng, tmp_path):
    reg = PlanRegistry(cache_dir=tmp_path)
    reg.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
    venom = venom_prune(
        rng.standard_normal((128, 128)).astype(np.float16), v=32, n=2, m=16
    )
    reg.register("venom", venom)
    return reg


def _reference(reg, name, b):
    return reg.matrix(name).astype(np.float32) @ b.astype(np.float32)


class TestVnmRoute:
    def test_vnm_route_serves_bit_identical(self, registry, rng):
        # One request per launch: the batch's concatenated panel is then
        # exactly the request's panel, and the acceptance property holds
        # bit-for-bit (np.array_equal, not allclose).
        with BatchExecutor(registry, chain=("jigsaw@vnm", "dense"), max_batch=4) as ex:
            for _ in range(3):
                req = SpmmRequest(
                    "venom", rng.standard_normal((128, 8)).astype(np.float16)
                )
                (res,) = ex.run([req])
                assert res.stats.route == "jigsaw@vnm"
                assert np.array_equal(res.c, _reference(registry, "venom", req.b))

    def test_vnm_route_batched_stays_correct(self, registry, rng):
        # A multi-request batch concatenates panels; BLAS may sum the
        # wider panel in a different order, so batched results are
        # allclose (still fp32-accurate), with the single-launch case
        # above pinning exact bit-identity.
        with BatchExecutor(
            registry,
            chain=("jigsaw@vnm", "dense"),
            max_batch=4,
            batch_window_s=FLUSH_ONLY_WINDOW_S,
        ) as ex:
            reqs = [
                SpmmRequest("venom", rng.standard_normal((128, 8)).astype(np.float16))
                for _ in range(4)
            ]
            results = ex.run(reqs)
            assert len(ex.batch_stats()) == 1
        for res, req in zip(results, reqs):
            assert res.stats.route == "jigsaw@vnm"
            np.testing.assert_allclose(
                res.c, _reference(registry, "venom", req.b), rtol=1e-6, atol=1e-5
            )

    def test_vnm_route_filtered_for_non_vnm_matrix(self, registry, rng):
        # w0 is generic 2:4 — vnm_plan() is None, so the format route is
        # dropped at forming time and the batch degrades down the chain.
        with BatchExecutor(registry, chain=("jigsaw@vnm", "dense"), max_batch=4) as ex:
            (res,) = ex.run(
                [SpmmRequest("w0", rng.standard_normal((128, 8)).astype(np.float16))]
            )
        assert res.stats.route == "dense"
        assert res.c.shape == (64, 8)

    def test_full_five_route_chain_validates_and_serves(self, registry, rng):
        with BatchExecutor(registry, chain=FALLBACK_CHAIN, max_batch=4) as ex:
            (res,) = ex.run(
                [SpmmRequest("venom", rng.standard_normal((128, 8)).astype(np.float16))]
            )
        assert res.stats.route == "jigsaw"  # static chain: prior order wins

    def test_cost_model_discovers_vnm_route(self, registry, rng):
        # No pinning: exploration probes jigsaw@vnm, the measurement
        # lands in the snapshot, and the route actually serves traffic.
        from repro.sched import CostModel, Scheduler

        sched = Scheduler(cost_model=CostModel(explore_every=4))
        with BatchExecutor(registry, scheduler=sched, max_batch=2) as ex:
            reqs = []
            for _ in range(12):
                req = SpmmRequest(
                    "venom", rng.standard_normal((128, 8)).astype(np.float16)
                )
                reqs.append(req)
                (res,) = ex.run([req])
                assert res.c.shape == (128, 8)
            routes = {s.route for s in ex.request_stats()}
        snap = sched.cost_model.snapshot()["venom"]
        assert "jigsaw@vnm" in snap
        assert "jigsaw@vnm" in routes


class TestFormatConvergence:
    def test_cost_model_converges_onto_vnm_only_when_offered(self, registry, rng):
        # Identical steady traffic under two cost-model schedulers: the
        # rigid chain (format-free routes) never runs jigsaw@vnm, the full
        # chain converges onto it (a majority of launches after warm-up),
        # and its learned cost beats every other route it measured.
        from repro.sched import CostModel, Scheduler

        panels = [
            rng.standard_normal((128, 8)).astype(np.float16) for _ in range(18)
        ]
        warm, timed = panels[:10], panels[10:]

        def serve(chain):
            sched = Scheduler(cost_model=CostModel(explore_every=4))
            kw = dict(
                chain=chain,
                scheduler=sched,
                max_batch=2,
                batch_window_s=FLUSH_ONLY_WINDOW_S,
            )
            with BatchExecutor(registry, **kw) as ex:
                for b in warm:
                    ex.run([SpmmRequest("venom", b)])
            with BatchExecutor(registry, **kw) as ex:
                for b in timed:
                    ex.run([SpmmRequest("venom", b)])
                mix = ex.stats().route_counts
            return mix, sched.cost_model.snapshot()["venom"]

        rigid_mix, _ = serve(tuple(r for r in FALLBACK_CHAIN if "@" not in r))
        assert rigid_mix["jigsaw@vnm"] == 0
        mix, costs = serve(FALLBACK_CHAIN)
        assert mix["jigsaw@vnm"] > sum(n for r, n in mix.items() if r != "jigsaw@vnm")
        others = {r: c for r, c in costs.items() if r != "jigsaw@vnm"}
        assert others and all(costs["jigsaw@vnm"] < c for c in others.values())


class TestDtypeHandling:
    def test_fp32_precision_preserved_on_dense_route(self, registry, rng):
        # 1e-5-scale fp32 values are subnormal in fp16; the old forced
        # fp16 concat destroyed them.  The dense route is a pure fp32
        # matmul, so the result must now be bit-equal to the reference.
        b = (rng.standard_normal((128, 8)) * 1e-5).astype(np.float32)
        with BatchExecutor(registry, chain=("dense",), max_batch=4) as ex:
            (res,) = ex.run([SpmmRequest("w0", b)])
        assert res.stats.route == "dense"
        assert res.c.dtype == np.float32
        assert np.array_equal(res.c, _reference(registry, "w0", b))

    def test_fp32_precision_preserved_on_jigsaw_route(self, registry, rng):
        b = (rng.standard_normal((128, 8)) * 1e-5).astype(np.float32)
        with BatchExecutor(registry, max_batch=4) as ex:
            (res,) = ex.run([SpmmRequest("w0", b)])
        assert res.stats.route == "jigsaw"
        ref = _reference(registry, "w0", b)
        # Tight tolerance: a silent fp16 downcast of B loses ~all of the
        # signal at this scale (fp16 subnormal spacing is ~6e-8).
        np.testing.assert_allclose(res.c, ref, rtol=1e-3, atol=1e-9)
        assert np.abs(res.c).max() > 0

    def test_per_dtype_groups_do_not_mix(self, registry, rng):
        with BatchExecutor(
            registry, max_batch=8, batch_window_s=FLUSH_ONLY_WINDOW_S
        ) as ex:
            b16 = [rng.standard_normal((128, 4)).astype(np.float16) for _ in range(2)]
            b32 = [rng.standard_normal((128, 4)).astype(np.float32) for _ in range(2)]
            reqs = [SpmmRequest("w0", b) for b in (*b16, *b32)]
            results = ex.run(reqs)
            batches = ex.batch_stats()
        # Same matrix, same version — but two dtype-keyed groups.
        assert len(batches) == 2
        assert sorted(b.size for b in batches) == [2, 2]
        for res, req in zip(results, reqs):
            np.testing.assert_allclose(
                res.c, _reference(registry, "w0", req.b), rtol=1e-3, atol=1e-2
            )

    def test_submit_rejects_unsupported_dtype(self, registry):
        with BatchExecutor(registry, max_batch=4) as ex:
            with pytest.raises(ValueError, match="dtype"):
                ex.run([SpmmRequest("w0", np.zeros((128, 4), np.float64))])

    def test_concat_panels_raises_typed_mixed_dtype_error(self):
        # Defense in depth below the forming layer: a hand-built mixed
        # live list (forming bug, or a caller bypassing submit) raises
        # the typed error instead of silently downcasting to fp16.
        live = [
            SimpleNamespace(request=SimpleNamespace(b=np.zeros((8, 2), np.float16))),
            SimpleNamespace(request=SimpleNamespace(b=np.zeros((8, 2), np.float32))),
        ]
        with pytest.raises(MixedDtypeError, match="dtype"):
            BatchExecutor._concat_panels(live)

    def test_concat_panels_keeps_uniform_dtype(self):
        live = [
            SimpleNamespace(request=SimpleNamespace(b=np.ones((8, 2), np.float32))),
            SimpleNamespace(request=SimpleNamespace(b=np.ones((8, 3), np.float32))),
        ]
        widths, b_cat = BatchExecutor._concat_panels(live)
        assert widths == [2, 3]
        assert b_cat.dtype == np.float32
        assert b_cat.shape == (8, 5)

    def test_mixed_dtype_error_is_a_serve_error(self):
        from repro.serve import ServeError

        assert issubclass(MixedDtypeError, ServeError)
