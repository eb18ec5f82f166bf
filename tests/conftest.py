"""Shared fixtures and helpers for the test suite."""

import io

import numpy as np
import pytest

from repro.core import save_jigsaw
from repro.obs import MetricsRegistry, set_metrics
from repro.serve import PlanRegistry


#: A batch window no test outlives: a partial group then dispatches only
#: on ``flush()`` (``run`` flushes), so batch composition never depends
#: on how fast the submitting thread is.
FLUSH_ONLY_WINDOW_S = 3600.0


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def registry(rng, tmp_path):
    """Two 64x128 serving matrices, ``w0`` and ``w1``."""
    reg = PlanRegistry(cache_dir=tmp_path)
    reg.register("w0", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
    reg.register("w1", random_vector_sparse(64, 128, v=4, sparsity=0.9, rng=rng))
    return reg


@pytest.fixture()
def metrics():
    """Isolate the process-global metrics registry per test."""
    mine = MetricsRegistry()
    prev = set_metrics(mine)
    yield mine
    set_metrics(prev)


def panel(rng, k=128, n=16) -> np.ndarray:
    """A fp16 dense right-hand side."""
    return rng.standard_normal((k, n)).astype(np.float16)


def random_vector_sparse(
    rows: int,
    cols: int,
    v: int,
    sparsity: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """A fp16 matrix whose nonzeros are v-tall column vectors.

    This mirrors the paper's workload construction (Section 4.1): take a
    (rows/v, cols) base mask at the target sparsity and replace each
    nonzero with a dense 1-D column vector of width v.
    """
    if rows % v:
        raise ValueError("rows must be divisible by v")
    base = rng.random((rows // v, cols)) >= sparsity
    values = rng.standard_normal((rows, cols)).astype(np.float16)
    # Draw values away from zero so a stored element is never accidentally 0.
    values = np.where(np.abs(values) < 0.05, np.float16(0.5), values)
    mask = np.repeat(base, v, axis=0)
    return np.where(mask, values, np.float16(0))


def saved_artifact(artifact, save=save_jigsaw) -> io.BytesIO:
    """``save(artifact, buf)`` into a rewound in-memory buffer."""
    buf = io.BytesIO()
    save(artifact, buf)
    buf.seek(0)
    return buf


def rewritten_artifact(src, edit) -> io.BytesIO:
    """The artifact re-saved after ``edit(arrays)`` (checksum untouched),
    with the uncompressed ``np.savez`` that the artifact writers use."""
    data = dict(np.load(src))
    edit(data)
    return saved_artifact(data, lambda arrays, out: np.savez(out, **arrays))
