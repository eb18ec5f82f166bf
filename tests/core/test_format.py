"""Tests for the reorder-aware storage format, swizzle, and metadata."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    JigsawMatrix,
    TileConfig,
    deinterleave_metadata,
    interleave_metadata,
    naive_layout,
    swizzle_block,
    tile_metadata_words,
    unswizzle_block,
    z_swizzle_order,
)
from tests.conftest import random_vector_sparse


class TestJigsawMatrixRoundTrip:
    @pytest.mark.parametrize("block_tile", [16, 32, 64])
    def test_roundtrip(self, rng, block_tile):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.85, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=block_tile))
        np.testing.assert_array_equal(jm.to_dense(), a)

    @pytest.mark.parametrize("v", [2, 4, 8])
    def test_roundtrip_vector_widths(self, rng, v):
        a = random_vector_sparse(64, 64, v=v, sparsity=0.8, rng=rng)
        jm = JigsawMatrix.build(a)
        np.testing.assert_array_equal(jm.to_dense(), a)

    def test_roundtrip_with_evictions(self):
        rng = np.random.default_rng(3)
        a = (rng.random((16, 32)) < 0.55).astype(np.float16)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=16))
        np.testing.assert_array_equal(jm.to_dense(), a)

    def test_roundtrip_partial_rows(self, rng):
        a = random_vector_sparse(48, 64, v=4, sparsity=0.9, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        np.testing.assert_array_equal(jm.to_dense(), a)

    def test_all_zero_matrix(self):
        a = np.zeros((32, 64), dtype=np.float16)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        np.testing.assert_array_equal(jm.to_dense(), a)

    @given(st.sampled_from([0.75, 0.9]), st.integers(0, 5000))
    @settings(max_examples=10, deadline=None)
    def test_roundtrip_property(self, sparsity, seed):
        rng = np.random.default_rng(seed)
        a = random_vector_sparse(32, 48, v=2, sparsity=sparsity, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        np.testing.assert_array_equal(jm.to_dense(), a)


class TestSlabViews:
    def test_slabs_are_zero_copy_views_of_the_flat_arrays(self, rng):
        # A ragged M: the last slab has fewer strips than the others.
        a = random_vector_sparse(80, 128, v=4, sparsity=0.85, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        r = jm.reorder
        assert len(jm.slabs) == len(r.slabs) == len(r.table) == 3
        for i, (slab, slab_r) in enumerate(zip(jm.slabs, r.slabs)):
            strips, groups = r.table[i, :2]
            assert slab_r.slab_index == i and slab_r.num_rows == 16 * strips
            assert slab_r.tile_perms.shape == (strips, groups, 16)
            assert slab.values.shape == slab.positions.shape == (strips, groups, 16, 8)
            for view, flat in (
                (slab.values, jm.values),
                (slab.positions, jm.positions),
                (slab_r.col_ids, r.col_ids),
                (slab_r.tile_perms, r.tile_perms),
            ):
                assert np.shares_memory(view, flat)
        assert r.table[-1, 0] == 1
        assert sum(s.values.size for s in jm.slabs) == jm.values.size


class TestStorageAccounting:
    def test_components_present(self, rng):
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        jm = JigsawMatrix.build(a)
        bytes_ = jm.storage_bytes()
        for key in ("values", "col_idx_array", "block_col_idx_array", "sptc_col_idx_array"):
            assert bytes_[key] > 0
        assert bytes_["total"] == sum(v for k, v in bytes_.items() if k != "total")

    def test_compressed_smaller_than_dense_at_high_sparsity(self, rng):
        a = random_vector_sparse(64, 256, v=8, sparsity=0.95, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=16))
        assert jm.storage_bytes()["total"] < jm.dense_bytes()

    def test_metadata_words_per_op(self, rng):
        a = random_vector_sparse(32, 64, v=2, sparsity=0.8, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        slab = jm.slabs[0]
        # 16 words per mma.sp (paper Section 3.4.3).
        assert slab.meta_words.shape[-1] == 16
        assert slab.meta_interleaved.shape[-1] == 32


class TestSwizzle:
    def test_order_is_permutation(self):
        order = z_swizzle_order(16, 8)
        assert sorted(order.tolist()) == list(range(128))

    def test_z_pattern_quadrants(self):
        # First quadrant (top-left 8x4) occupies the first 32 slots.
        order = z_swizzle_order(16, 8)
        first = order[:32]
        rr, cc = first // 8, first % 8
        assert rr.max() < 8 and cc.max() < 4

    def test_roundtrip(self, rng):
        block = rng.standard_normal((16, 8)).astype(np.float16)
        flat = swizzle_block(block)
        np.testing.assert_array_equal(unswizzle_block(flat, 16, 8), block)

    def test_roundtrip_other_shapes(self, rng):
        block = rng.standard_normal((4, 4)).astype(np.float16)
        np.testing.assert_array_equal(
            unswizzle_block(swizzle_block(block), 4, 4), block
        )

    def test_rejects_odd_dims(self):
        with pytest.raises(ValueError):
            z_swizzle_order(3, 8)

    def test_rejects_bad_flat_length(self):
        with pytest.raises(ValueError):
            unswizzle_block(np.zeros(10, np.float16), 16, 8)

    def test_slab_swizzled_accessor(self, rng):
        a = random_vector_sparse(32, 64, v=2, sparsity=0.8, rng=rng)
        jm = JigsawMatrix.build(a, TileConfig(block_tile=32))
        slab = jm.slabs[0]
        flat = slab.swizzled_values(0, 0)
        np.testing.assert_array_equal(
            unswizzle_block(flat, 16, 8), slab.values[0, 0]
        )


class TestMetadataInterleave:
    def test_words_shape(self, rng):
        pos = rng.integers(0, 2, size=(16, 16)).astype(np.uint8)
        pos[:, 1::2] += 2  # keep positions strictly increasing per pair
        words = tile_metadata_words(pos)
        assert words.shape == (16,)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            tile_metadata_words(np.zeros((8, 16), np.uint8))

    def test_interleave_roundtrip(self, rng):
        w0 = rng.integers(0, 2**32, size=16, dtype=np.uint64).astype(np.uint32)
        w1 = rng.integers(0, 2**32, size=16, dtype=np.uint64).astype(np.uint32)
        inter = interleave_metadata(w0, w1)
        r0, r1 = deinterleave_metadata(inter)
        np.testing.assert_array_equal(r0, w0)
        np.testing.assert_array_equal(r1, w1)

    def test_interleaved_is_permutation_of_naive(self, rng):
        w0 = rng.integers(0, 2**32, size=16, dtype=np.uint64).astype(np.uint32)
        w1 = rng.integers(0, 2**32, size=16, dtype=np.uint64).astype(np.uint32)
        inter = interleave_metadata(w0, w1)
        naive = naive_layout(w0, w1)
        assert sorted(inter.tolist()) == sorted(naive.tolist())

    def test_provider_lanes_get_their_ops_words(self):
        w0 = np.arange(16, dtype=np.uint32)
        w1 = np.arange(100, 116, dtype=np.uint32)
        inter = interleave_metadata(w0, w1)
        # Lane 0 and 1 are F=0 providers; lanes 2, 3 are F=1 providers.
        assert inter[0] == 0 and inter[1] == 1
        assert inter[2] == 100 and inter[3] == 101

    def test_leading_dimensions_batch(self, rng):
        pos = rng.integers(0, 4, size=(3, 2, 16, 16)).astype(np.uint8)
        words = tile_metadata_words(pos)
        assert words.shape == (3, 2, 16)
        inter = interleave_metadata(words[:, 0], words[:, 1])
        for i in range(3):
            np.testing.assert_array_equal(words[i, 0], tile_metadata_words(pos[i, 0]))
            np.testing.assert_array_equal(
                inter[i], interleave_metadata(words[i, 0], words[i, 1])
            )

    def test_rejects_bad_sizes(self):
        with pytest.raises(ValueError):
            interleave_metadata(np.zeros(8, np.uint32), np.zeros(16, np.uint32))
        with pytest.raises(ValueError):
            deinterleave_metadata(np.zeros(16, np.uint32))
