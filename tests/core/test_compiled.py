"""Compiled whole-plan route: bit-exactness, serialization, accounting.

The compiled route's contract is *bit-identity* with the BLOCK_TILE=64
tile-by-tile route (``compute_output``): same expanded operands, same
gathered B rows, same per-strip group addition order, same scatter.  The
property sweep below checks ``np.array_equal`` — not allclose — across
shapes, sparsities, widths, and dtypes, including the degenerate cases
(zero-width B, all-dense, all-zero, partial strips).
"""

import numpy as np
import pytest

from repro.core import (
    JigsawPlan,
    compile_plan,
    compiled_output,
    load_jigsaw,
    save_jigsaw,
)
from repro.core.compiled import compiled_profile
from repro.core.tiles import BLOCK_TILE_SIZES
from repro.core.kernels import compute_output
from repro.formats import venom_prune
from tests.conftest import random_vector_sparse, saved_artifact


def _plan(rng, m, k, v=4, sparsity=0.9):
    a = random_vector_sparse(m, k, v=v, sparsity=sparsity, rng=rng)
    return JigsawPlan(a)


#: (m, k, v, sparsity) of the bit-exactness sweep.
SHAPES = [
    (64, 128, 4, 0.9),
    (64, 128, 4, 0.0),  # all-dense: every column survives
    (100, 200, 4, 0.7),  # partial strips, partial slab
    (16, 32, 2, 0.5),  # single strip
    (8, 64, 4, 0.8),  # partial first strip (m < MMA_TILE)
    (256, 512, 4, 0.95),
]
WIDTHS = [0, 1, 8, 33]


def _assert_every_route_matches_tile_route(plan, b):
    """Compiled arrays of every BLOCK_TILE's format, and the v4 launch
    (which computes C from the winner's compiled arrays), are
    bit-identical to the per-tile reference on the same format."""
    for bt in BLOCK_TILE_SIZES:
        jm = plan.format_for(bt)
        ref = compute_output(jm, b)
        got = compiled_output(jm.compiled_plan(), b)
        assert got.dtype == ref.dtype
        assert np.array_equal(ref, got), bt
    res = plan.run(b)
    winner = int(res.profile.kernel_name.rsplit("_bt", 1)[1])
    assert np.array_equal(res.c, compute_output(plan.format_for(winner), b))


class TestBitExactness:
    @pytest.mark.parametrize("m,k,v,sparsity", SHAPES)
    @pytest.mark.parametrize("n", WIDTHS)
    def test_matches_tile_route_exactly(self, rng, m, k, v, sparsity, n):
        plan = _plan(rng, m, k, v=v, sparsity=sparsity)
        jm = plan.format_for(plan.FIXED_BLOCK_TILE)
        b = rng.standard_normal((k, n)).astype(np.float16)
        ref = compute_output(jm, b)
        got = plan.run_compiled(b).c
        assert got.dtype == ref.dtype
        assert np.array_equal(ref, got)

    @pytest.mark.parametrize("m,k,v,sparsity", SHAPES)
    @pytest.mark.parametrize("n", WIDTHS)
    def test_every_block_tile_and_v4_match_tile_route(
        self, rng, m, k, v, sparsity, n
    ):
        plan = _plan(rng, m, k, v=v, sparsity=sparsity)
        b = rng.standard_normal((k, n)).astype(np.float16)
        _assert_every_route_matches_tile_route(plan, b)

    def test_zero_width_b_gives_an_empty_c_on_every_route(self, rng):
        # A zero-width launch is timed as one block per slab, as the
        # compiled and V:N:M traces clamp their grids.
        dense = rng.standard_normal((128, 128)).astype(np.float16)
        plan = JigsawPlan(venom_prune(dense, v=64, n=2, m=16))
        b = np.zeros((128, 0), dtype=np.float16)
        results = {v: plan.run(b, version=v) for v in ("v0", "v1", "v2", "v3", "v4")}
        results["compiled"] = plan.run_compiled(b)
        results["vnm"] = plan.run_vnm(b)
        for route, res in results.items():
            assert res.c.shape == (128, 0), route
            assert res.c.dtype == np.float32, route
            assert res.profile.duration_us > 0, route

    def test_all_zero_matrix(self, rng):
        plan = JigsawPlan(np.zeros((64, 128), dtype=np.float16))
        b = rng.standard_normal((128, 16)).astype(np.float16)
        got = plan.run_compiled(b).c
        assert np.array_equal(got, np.zeros((64, 16), dtype=np.float32))

    @pytest.mark.parametrize("dtype", [np.float16, np.float32])
    def test_b_dtypes(self, rng, dtype):
        # Both routes promote B to float32 the same way, so parity holds
        # for panels that are not representable in fp16 too.
        plan = _plan(rng, 64, 128)
        jm = plan.format_for(plan.FIXED_BLOCK_TILE)
        b = (rng.standard_normal((128, 16)) * 3.0).astype(dtype)
        assert np.array_equal(compute_output(jm, b), plan.run_compiled(b).c)
        _assert_every_route_matches_tile_route(plan, b)

    def test_compiled_output_validates_b_rows(self, rng):
        plan = _plan(rng, 64, 128)
        cp = plan.compiled()
        with pytest.raises(ValueError, match="rows"):
            compiled_output(cp, np.zeros((64, 4), dtype=np.float16))

    def test_tiles_sorted_by_group_then_strip(self, rng):
        cp = _plan(rng, 256, 512, sparsity=0.7).compiled()
        # g_starts delimits contiguous, ascending group ranges; strip
        # indices are unique within each range (what makes the
        # fancy-indexed += a true accumulate).
        assert cp.g_starts[0] == 0 and cp.g_starts[-1] == cp.n_tiles
        for g in range(cp.n_group_ordinals):
            sl = cp.strip_idx[cp.g_starts[g] : cp.g_starts[g + 1]]
            assert len(np.unique(sl)) == len(sl)


class TestSerialization:
    def test_v5_roundtrip_preserves_compiled_arrays(self, rng):
        plan = _plan(rng, 100, 200, sparsity=0.7)
        jm = plan.format_for(plan.FIXED_BLOCK_TILE)
        cp = jm.compiled_plan()
        loaded = load_jigsaw(saved_artifact(jm))
        # Loaded artifacts serve the compiled route with zero recompile.
        assert loaded._compiled is not None
        assert cp.equals(loaded._compiled)
        # And a from-scratch recompile of the loaded format agrees with
        # the persisted arrays (the lowering is deterministic).
        assert compile_plan(loaded).equals(loaded._compiled)

    def test_loaded_plan_serves_bit_identical(self, rng, tmp_path):
        plan = _plan(rng, 64, 128, sparsity=0.7)
        jm = plan.format_for(plan.FIXED_BLOCK_TILE)
        path = tmp_path / "a.npz"
        save_jigsaw(jm, path)
        loaded = load_jigsaw(path)
        b = rng.standard_normal((128, 24)).astype(np.float16)
        from repro.core import run_compiled_kernel

        got = run_compiled_kernel(loaded.compiled_plan(), b).c
        assert np.array_equal(compute_output(jm, b), got)


class TestAccounting:
    def test_compiled_sim_beats_tile_route(self, rng):
        # The whole point: the cost model must be able to *discover* the
        # compiled route, so its simulated duration must come in under
        # the autotuned tile route's on serving-shaped matrices.
        for sparsity in (0.8, 0.7):
            plan = _plan(rng, 64, 128, sparsity=sparsity)
            b = rng.standard_normal((128, 16)).astype(np.float16)
            tile_us = plan.run(b, want_output=False).profile.duration_us
            compiled_us = plan.run_compiled(b, want_output=False).profile.duration_us
            assert compiled_us < tile_us

    def test_profile_cached_per_width(self, rng):
        plan = _plan(rng, 64, 128)
        cp = plan.compiled()
        p1 = compiled_profile(cp, 16)
        p2 = compiled_profile(cp, 16)
        assert p1 is p2
        p3 = compiled_profile(cp, 32)
        assert p3 is not p1
