"""Tests for the V:N:M plan path: detection, bit-exactness, persistence.

The format-zoo acceptance property lives here: a VENOM-pruned matrix
served through ``run_vnm`` is **bit-identical** (``np.array_equal``,
not allclose) to the fp32 dense reference, swept over V/M/N/sparsity.
"""

import numpy as np
import pytest

from repro.core import (
    FormatSpec,
    JigsawPlan,
    VnmPlan,
    detect_vnm_spec,
    load_vnm,
    save_vnm,
)
from repro.core.serialization import (
    ArtifactError,
    ArtifactIntegrityError,
    ArtifactVersionError,
    load_jigsaw,
)
from repro.formats import venom_prune
from tests.conftest import random_vector_sparse, rewritten_artifact, saved_artifact


def _venom_matrix(rng, rows=128, cols=128, v=64, n=2, m=16):
    dense = rng.standard_normal((rows, cols)).astype(np.float16)
    return venom_prune(dense, v=v, n=n, m=m)


class TestDetection:
    @pytest.mark.parametrize("v", [32, 64, 128])
    @pytest.mark.parametrize("m", [8, 16])
    def test_detects_venom_pruned(self, rng, v, m):
        a = _venom_matrix(rng, rows=128, cols=128, v=v, n=2, m=m)
        spec = detect_vnm_spec(a)
        assert spec is not None
        assert spec.kind == "vnm"
        # The detected spec must actually hold (it may be a *better* fit
        # than the pruning parameters, e.g. a larger V that also works).
        from repro.formats.venom import satisfies_vnm

        assert satisfies_vnm(a, spec.v, spec.n, spec.m)
        assert spec.m == m

    def test_generic_24_matrix_detects_none(self, rng):
        # Row-wise 2:4 without shared column choices fits no V:N:M
        # candidate (M=4 is deliberately not probed).
        a = random_vector_sparse(128, 128, v=4, sparsity=0.85, rng=rng)
        assert detect_vnm_spec(a) is None

    def test_dense_matrix_detects_none(self, rng):
        a = rng.standard_normal((128, 128)).astype(np.float16)
        assert detect_vnm_spec(a) is None

    def test_empty_and_ragged_shapes_detect_none(self, rng):
        assert detect_vnm_spec(np.zeros((0, 128), np.float16)) is None
        assert detect_vnm_spec(np.zeros((128, 0), np.float16)) is None
        # 100 rows divide no V candidate.
        a = venom_prune(
            rng.standard_normal((100, 128)).astype(np.float16), v=4, n=2, m=16
        )
        assert detect_vnm_spec(a) is None


class TestBitIdentity:
    @pytest.mark.parametrize("v", [32, 64])
    @pytest.mark.parametrize("m", [8, 16])
    @pytest.mark.parametrize("n", [1, 2])
    def test_run_vnm_matches_dense_reference_exactly(self, rng, v, n, m):
        a = _venom_matrix(rng, rows=128, cols=256, v=v, n=n, m=m)
        plan = JigsawPlan(a)
        b = rng.standard_normal((256, 48)).astype(np.float16)
        res = plan.run_vnm(b)
        ref = a.astype(np.float32) @ b.astype(np.float32)
        assert np.array_equal(res.c, ref)
        assert res.profile.duration_us > 0

    def test_fp32_panel_is_exact_too(self, rng):
        a = _venom_matrix(rng)
        plan = JigsawPlan(a)
        b = rng.standard_normal((128, 16)).astype(np.float32)
        ref = a.astype(np.float32) @ b
        assert np.array_equal(plan.run_vnm(b).c, ref)

    def test_run_vnm_raises_on_non_vnm_matrix(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        plan = JigsawPlan(a)
        assert plan.vnm_plan() is None
        with pytest.raises(ValueError, match="no V:N:M spec"):
            plan.run_vnm(rng.standard_normal((128, 8)).astype(np.float16))

    def test_pinned_spec_rejects_nonconforming_matrix(self, rng):
        a = rng.standard_normal((128, 128)).astype(np.float16)
        plan = JigsawPlan(a, format_spec="vnm:64:2:16")
        with pytest.raises(ValueError):
            plan.vnm_plan()


class TestPersistence:
    @pytest.fixture()
    def vp(self, rng):
        a = _venom_matrix(rng)
        return VnmPlan.from_dense(a, FormatSpec.vnm(v=64, n=2, m=16))

    def test_roundtrip_in_memory(self, vp):
        back = load_vnm(saved_artifact(vp, save_vnm))
        assert back.equals(vp)
        np.testing.assert_array_equal(back.matrix.to_dense(), vp.matrix.to_dense())

    def test_tampered_artifact_fails_integrity(self, vp):
        def edit(data):
            data["values"] = data["values"].copy()
            data["values"].flat[0] += np.float16(1.0)

        out = rewritten_artifact(saved_artifact(vp, save_vnm), edit)
        with pytest.raises(ArtifactIntegrityError, match="checksum"):
            load_vnm(out)
        out.seek(0)
        load_vnm(out, verify=False)  # forensics path

    def test_unsupported_version_fails_loudly(self, vp):
        def edit(data):
            data["vnm_header"][0] = 99

        with pytest.raises(ArtifactVersionError, match="unsupported"):
            load_vnm(rewritten_artifact(saved_artifact(vp, save_vnm), edit))

    def test_loaders_reject_each_others_artifacts(self, vp, rng):
        # The sibling families use distinct header keys, so neither
        # loader can misread the other's file.
        with pytest.raises(ArtifactError):
            load_jigsaw(saved_artifact(vp, save_vnm))
        from repro.core import JigsawMatrix, TileConfig

        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        with pytest.raises(ArtifactError):
            load_vnm(saved_artifact(jm))


class TestPlanIntegration:
    def test_vnm_resident_bytes_lazy(self, rng):
        plan = JigsawPlan(_venom_matrix(rng))
        # Unresolved: charging residency must not force detection.
        assert plan.vnm_resident_bytes() == 0
        vp = plan.vnm_plan()
        assert vp is not None
        assert plan.vnm_resident_bytes() == vp.storage_bytes()["total"] > 0

    def test_non_vnm_plan_charges_zero(self, rng):
        plan = JigsawPlan(random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng))
        assert plan.vnm_plan() is None
        assert plan.vnm_resident_bytes() == 0

    def test_cache_dir_persists_and_reloads_vnm(self, rng, tmp_path):
        a = _venom_matrix(rng)
        plan1 = JigsawPlan(a, cache_dir=tmp_path)
        vp1 = plan1.vnm_plan()
        assert vp1 is not None
        artifacts = list(tmp_path.glob("vnm-*.npz"))
        assert len(artifacts) == 1
        # A fresh plan over the same matrix loads the artifact and
        # resolves to an identical compressed plan.
        plan2 = JigsawPlan(a, cache_dir=tmp_path)
        vp2 = plan2.vnm_plan()
        assert vp2 is not None and vp2.equals(vp1)
        assert list(tmp_path.glob("vnm-*.npz")) == artifacts


class TestSimulatedAdvantage:
    """On VENOM-pruned matrices the ``jigsaw@vnm`` route streams less than
    the rigid 2:4 routes, so it simulates no slower at any V and wins
    outright at V=32, where the 2:4 slab routes merge two panels' column
    choices per 64-row slab.  A cost model fed those measurements must
    rank it first without pinning."""

    def test_vnm_never_loses_and_wins_at_v32(self):
        rows = {}
        n_cols = 64
        for v in (32, 64, 128):
            rng = np.random.default_rng(0)
            a = _venom_matrix(rng, rows=256, cols=512, v=v, m=16)
            b = rng.standard_normal((512, n_cols)).astype(np.float16)
            ref = a.astype(np.float32) @ b.astype(np.float32)
            plan = JigsawPlan(a)
            tile = plan.run(b, version="v4")
            compiled = plan.run_compiled(b)
            vnm = plan.run_vnm(b)
            # Tile routes accumulate per MMA tile: close to, not bit-equal
            # to, the flat fp32 product; the vnm route is bit-identical.
            assert np.allclose(tile.c, ref, rtol=1e-4, atol=1e-4)
            assert np.allclose(compiled.c, ref, rtol=1e-4, atol=1e-4)
            assert np.array_equal(vnm.c, ref)
            rows[v] = {
                "jigsaw": tile.profile.duration_us,
                "compiled": compiled.profile.duration_us,
                "jigsaw@vnm": vnm.profile.duration_us,
            }
        for v, times in rows.items():
            assert times["jigsaw@vnm"] <= times["compiled"] * 1.001, (v, times)
            assert times["jigsaw@vnm"] <= times["jigsaw"] * 1.001, (v, times)
        assert rows[32]["jigsaw@vnm"] < rows[32]["compiled"] * 0.97, rows[32]

        from repro.sched import CostModel

        model = CostModel()
        for route, us in rows[32].items():
            model.observe("w", route, us, n_cols)
        ranked = model.plan(
            "w", ["jigsaw", "compiled", "jigsaw@vnm", "hybrid", "dense"], n_cols
        )
        assert ranked[0] == "jigsaw@vnm", ranked
