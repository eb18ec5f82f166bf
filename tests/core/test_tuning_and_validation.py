"""Tests for the tuning table and format validation (failure injection)."""

import numpy as np
import pytest

from repro.core import JigsawMatrix, TileConfig
from repro.core.tuning import (
    TuningTable,
    estimate_vector_width,
    matrix_features,
)
from tests.conftest import random_vector_sparse


class TestFeatures:
    def test_vector_width_estimation(self, rng):
        for v in (2, 4, 8):
            a = random_vector_sparse(64, 64, v=v, sparsity=0.85, rng=rng)
            assert estimate_vector_width(a) == v

    def test_vector_width_scalar_matrix(self, rng):
        a = np.zeros((64, 64), np.float16)
        a[3, 7] = 1  # no vector structure
        assert estimate_vector_width(a) == 1

    def test_features_bucketing(self, rng):
        a = random_vector_sparse(64, 300, v=4, sparsity=0.91, rng=rng)
        sp, v, k = matrix_features(a)
        assert sp == 0.9
        assert v == 4
        assert k == 256  # nearest power of two


class TestTuningTable:
    def test_measure_on_miss_then_hit(self, rng):
        table = TuningTable()
        a = random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng)
        bt1 = table.best_block_tile(a, n=64)
        assert table.misses == 1 and table.hits == 0
        bt2 = table.best_block_tile(a, n=64)
        assert bt2 == bt1
        assert table.hits == 1

    def test_similar_matrices_share_entry(self, rng):
        table = TuningTable()
        a1 = random_vector_sparse(64, 128, v=8, sparsity=0.95, rng=rng)
        a2 = random_vector_sparse(64, 128, v=8, sparsity=0.95, rng=rng)
        table.best_block_tile(a1, n=64)
        table.best_block_tile(a2, n=64)
        assert table.misses == 1 and table.hits == 1

    def test_prepopulate(self):
        table = TuningTable()
        table.prepopulate(
            sparsities=(0.95,), vector_widths=(8,), k_values=(128,), m=64
        )
        assert len(table.entries) == 1
        assert table.hit_rate < 1.0

    def test_choices_are_legal_tiles(self, rng):
        table = TuningTable()
        a = random_vector_sparse(64, 128, v=2, sparsity=0.85, rng=rng)
        assert table.best_block_tile(a, n=64) in (16, 32, 64)


class TestFormatValidation:
    @pytest.fixture()
    def jm(self, rng):
        a = random_vector_sparse(32, 64, v=4, sparsity=0.85, rng=rng)
        return JigsawMatrix.build(a, TileConfig(block_tile=32))

    def test_clean_format_validates(self, jm):
        jm.validate()

    def test_detects_duplicate_column_ids(self, jm):
        slab = jm.slabs[0]
        used = np.flatnonzero(slab.reorder.col_ids >= 0)
        if len(used) >= 2:
            slab.reorder.col_ids[used[1]] = slab.reorder.col_ids[used[0]]
            with pytest.raises(ValueError, match="duplicate"):
                jm.validate()

    def test_detects_out_of_range_column(self, jm):
        slab = jm.slabs[0]
        used = np.flatnonzero(slab.reorder.col_ids >= 0)
        slab.reorder.col_ids[used[0]] = 10_000
        with pytest.raises(ValueError, match="out of range"):
            jm.validate()

    def test_detects_broken_permutation(self, jm):
        slab = jm.slabs[0]
        if slab.reorder.tile_perms.size:
            slab.reorder.tile_perms[0, 0, 0] = slab.reorder.tile_perms[0, 0, 1]
            with pytest.raises(ValueError, match="permutation"):
                jm.validate()

    def test_detects_illegal_metadata(self, jm):
        slab = jm.slabs[0]
        slab.positions[0, 0, 0, 0] = 7
        with pytest.raises(ValueError, match="2 bits"):
            jm.validate()

    def test_detects_unsorted_metadata(self, jm):
        slab = jm.slabs[0]
        slab.positions[0, 0, 0, 0] = 3
        slab.positions[0, 0, 0, 1] = 1
        with pytest.raises(ValueError, match="strictly increasing"):
            jm.validate()

    def test_detects_misshapen_tiles(self, jm):
        jm.positions = jm.positions[:, :-1]
        with pytest.raises(ValueError, match="misshapen"):
            jm.validate()
