"""Versioned registry entries: apply_update bumps a monotonic content
version, releases the old plan's residency charge exactly once, keeps
in-flight old-version consumers bit-identical, and holds both versions'
disk artifacts until gc_stale."""

import numpy as np
import pytest

from repro.core import JigsawPlan, load_jigsaw, roundtrip_equal
from repro.core import api as core_api
from repro.serve import BatchExecutor, PlanRegistry, SpmmRequest
from tests.conftest import random_vector_sparse


@pytest.fixture()
def registry(rng, tmp_path):
    reg = PlanRegistry(cache_dir=tmp_path, block_tiles=(64,))
    reg.register("w", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
    return reg


def _upd(rng, n=3):
    rows = rng.integers(0, 64, size=n)
    cols = rng.integers(0, 128, size=n)
    values = (rng.standard_normal(n) * 0.5).astype(np.float16)
    return rows, cols, values


class TestApplyUpdate:
    def test_bumps_version_and_serves_new_content(self, registry, rng):
        assert registry.version("w") == 0
        b = rng.standard_normal((128, 8)).astype(np.float16)
        registry.warm()
        before = registry.get("w").run(b, version="v3").c
        rows, cols, values = _upd(rng)
        assert registry.apply_update("w", rows, cols, values) == 1
        assert registry.version("w") == 1
        plan = registry.get("w")
        assert plan.content_version == 1
        expect = registry.matrix("w")
        np.testing.assert_array_equal(plan._a, expect)
        after = plan.run(b, version="v3").c
        # The stored matrix actually changed, and so did the product.
        assert not np.array_equal(before, after)
        # Repair count is visible registry-wide.
        assert registry.repairs == 1

    def test_update_unregistered_matrix_raises(self, registry, rng):
        with pytest.raises(KeyError):
            registry.apply_update("ghost", *_upd(rng))

    def test_update_while_not_resident_builds_at_new_version(self, registry, rng):
        # No warm/get: the plan was never admitted.  The version still
        # bumps and the next admission builds the updated content.
        rows, cols, values = _upd(rng)
        registry.apply_update("w", rows, cols, values)
        assert registry.version("w") == 1
        assert registry.stats.evictions == 0
        plan = registry.get("w")
        assert plan.content_version == 1
        np.testing.assert_array_equal(plan._a, registry.matrix("w"))


class TestResidencyAccounting:
    def test_charge_released_exactly_once(self, registry, rng):
        registry.warm()
        registry.get("w").format_for(64)
        charged = registry.resident_bytes()
        assert charged > 0
        rows, cols, values = _upd(rng)
        registry.apply_update("w", rows, cols, values)
        # Old charge released, new plan charged: the total reflects
        # exactly one resident plan (never a double-release or a leak).
        assert registry.stats.evictions == 1
        after = registry.resident_bytes()
        assert after > 0
        # Evicting the sole entry must land the accounting at exactly
        # zero — a double-released old charge would go negative.
        assert registry.evict("w") is True
        assert registry.resident_bytes() == 0

    def test_repeated_updates_keep_accounting_stable(self, registry, rng):
        registry.warm()
        for expect_version in (1, 2, 3):
            rows, cols, values = _upd(rng)
            registry.apply_update("w", rows, cols, values)
            assert registry.version("w") == expect_version
        assert registry.get("w").content_version == 3
        registry.evict("w")
        assert registry.resident_bytes() == 0


class TestInFlightOldVersion:
    def test_old_plan_object_stays_bit_identical(self, registry, rng):
        registry.warm()
        old_plan = registry.get("w")
        b = rng.standard_normal((128, 8)).astype(np.float16)
        before = old_plan.run(b, version="v3").c
        rows, cols, values = _upd(rng)
        registry.apply_update("w", rows, cols, values)
        # A consumer holding the old plan (an in-flight request) keeps
        # computing old-version results, bit for bit; new lookups see
        # the new version.
        assert old_plan.content_version == 0
        np.testing.assert_array_equal(old_plan.run(b, version="v3").c, before)
        assert registry.get("w") is not old_plan

    def test_serving_across_update_matches_each_version(self, registry, rng):
        a_old = registry.matrix("w").copy()
        rows, cols, values = _upd(rng)
        panels = [
            rng.standard_normal((128, 8)).astype(np.float16) for _ in range(4)
        ]
        with BatchExecutor(registry, max_batch=4) as ex:
            before = [
                ex.submit(SpmmRequest("w", p, version="v3")) for p in panels
            ]
            ex.flush()
            before = [f.result(timeout=60).c for f in before]
            registry.apply_update("w", rows, cols, values)
            after = [
                ex.submit(SpmmRequest("w", p, version="v3")) for p in panels
            ]
            ex.flush()
            after = [f.result(timeout=60).c for f in after]
        from repro.core import JigsawPlan

        a_new = a_old.copy()
        a_new[rows, cols] = values
        for p, c_old, c_new in zip(panels, before, after):
            np.testing.assert_array_equal(
                c_old, JigsawPlan(a_old).run(p, version="v3").c
            )
            np.testing.assert_array_equal(
                c_new, JigsawPlan(a_new).run(p, version="v3").c
            )


class TestStaleArtifacts:
    def test_disk_holds_both_versions_until_gc(self, registry, rng):
        registry.warm()
        old_paths = registry.get("w").artifact_paths()
        assert old_paths and all(p.exists() for p in old_paths)
        rows, cols, values = _upd(rng)
        registry.apply_update("w", rows, cols, values)
        new_paths = registry.get("w").artifact_paths()
        assert new_paths and all(p.exists() for p in new_paths)
        assert set(new_paths).isdisjoint(old_paths)
        # The retired version's artifacts survive the update (in-flight
        # readers, crash recovery) and are tracked as stale.
        assert registry.stale_artifacts("w") == old_paths
        assert all(p.exists() for p in old_paths)
        removed = registry.gc_stale("w")
        assert removed == len(old_paths)
        assert not any(p.exists() for p in old_paths)
        assert all(p.exists() for p in new_paths)
        assert registry.stale_artifacts("w") == []
        assert registry.gc_stale() == 0

    def test_new_version_artifact_matches_a_fresh_build(self, registry, rng):
        """What apply_update stores for the new version is that version's
        plan: it loads equal to a from-scratch build of the updated
        matrix and compiles to the in-memory repaired lowering."""
        registry.warm()
        registry.get("w").compiled()  # so the update repairs a lowering
        registry.apply_update("w", *_upd(rng))
        plan = registry.get("w")
        repaired = plan.format_for(64)
        assert repaired._compiled is not None
        [path] = plan.artifact_paths()
        loaded = load_jigsaw(path)
        fresh = JigsawPlan(
            registry.matrix("w"), block_tiles=(64,), content_version=1
        ).format_for(64)
        assert roundtrip_equal(loaded, fresh)
        assert loaded.compiled_plan().equals(repaired.compiled_plan())

    def test_update_hashes_the_new_matrix_once(self, registry, rng, monkeypatch):
        registry.warm()
        calls = []
        real = core_api.plan_cache_key

        def counting(a, *args, **kwargs):
            calls.append(a)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(core_api, "plan_cache_key", counting)
        registry.apply_update("w", *_upd(rng))
        registry.get("w").artifact_paths()
        assert len(calls) == 1
        np.testing.assert_array_equal(calls[0], registry.matrix("w"))

    def test_gc_stale_all_names(self, registry, rng):
        registry.register(
            "w2", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        )
        registry.warm()
        for name in ("w", "w2"):
            rows, cols, values = _upd(rng)
            registry.apply_update(name, rows, cols, values)
        stale = registry.stale_artifacts("w") + registry.stale_artifacts("w2")
        assert stale
        assert registry.gc_stale() == len(stale)
        assert not any(p.exists() for p in stale)
