"""SpTC metadata generation and the interleaved ldmatrix layout.

Each kept value of a 2:4-compressed tile carries a 2-bit position; the
16x16 positions of one ``mma.sp.m16n8k32`` pack into 16 uint32 words.
Loading those words naively needs only half the warp (lanes 0,1,4,5,...
with F=0 — paper Figure 9), costing either a divergent branch or wasted
loads.

Jigsaw's v3 layout stores the metadata of *two consecutive* mma.sp
operations interleaved across 32 words so that one ``ldmatrix`` feeds
both instructions: lane ``l`` receives the word for (op = l % 2 selected
via F, quad-position derived from l).  This module builds that layout and
its inverse, so tests can prove it is a pure permutation of the naive
layout.  Both layouts are pure functions of the positions: the format
stores only the positions, flat over all tiles, and a slab view derives
the words on demand (see :class:`~repro.core.format.JigsawSlab`).
"""

from __future__ import annotations

import numpy as np

from repro.formats.nm import pack_metadata
from repro.gpu.warp import WARP_SIZE, metadata_provider_lanes


def tile_metadata_words(positions: np.ndarray) -> np.ndarray:
    """The 16 uint32 metadata words of 16x16-position MMA tiles.

    ``positions`` is (..., 16, 16) uint8 in-group positions (two per group
    of four original columns, k=32 per mma.sp); leading dimensions batch
    tiles.  Word ``i`` packs row ``i``: the result is (..., 16).
    """
    if positions.shape[-2:] != (16, 16):
        raise ValueError(f"one mma.sp needs 16x16 positions, got {positions.shape}")
    return pack_metadata(positions.reshape(-1, 16)).reshape(positions.shape[:-1])


def interleave_metadata(words_op0: np.ndarray, words_op1: np.ndarray) -> np.ndarray:
    """Interleave two operations' metadata for a single ldmatrix load.

    Returns 32 words: lane ``l`` of the loading warp receives word ``l``.
    The F=0 provider lanes (0,1,4,5,...) receive op-0 words in row order;
    the F=1 lanes (2,3,6,7,...) receive op-1 words.  Loading is one
    conflict-free 32x4B access instead of two half-warp strided loads.
    Leading dimensions batch op pairs: (..., 16) twice gives (..., 32).
    """
    if words_op0.shape[-1:] != (16,) or words_op1.shape != words_op0.shape:
        raise ValueError("each mma.sp contributes exactly 16 metadata words")
    out = np.zeros(words_op0.shape[:-1] + (WARP_SIZE,), dtype=np.uint32)
    out[..., metadata_provider_lanes(0)] = words_op0
    out[..., metadata_provider_lanes(1)] = words_op1
    return out


def deinterleave_metadata(interleaved: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`interleave_metadata`."""
    if interleaved.shape != (WARP_SIZE,):
        raise ValueError("interleaved metadata must hold 32 words")
    return (
        interleaved[metadata_provider_lanes(0)].copy(),
        interleaved[metadata_provider_lanes(1)].copy(),
    )


def naive_layout(words_op0: np.ndarray, words_op1: np.ndarray) -> np.ndarray:
    """The baseline layout: the two operations' words stored back to back."""
    return np.concatenate([words_op0, words_op1]).astype(np.uint32)


def naive_load_addresses(base: int, op: int) -> np.ndarray:
    """Byte addresses the F-selected half-warp reads under the naive layout.

    Sixteen lanes each load one 4-byte word; the other sixteen lanes idle
    (or issue wasted loads).  Used by the v0-v2 kernels' smem accounting.
    """
    if op not in (0, 1):
        raise ValueError("op must be 0 or 1")
    return base + (op * 16 + np.arange(16)) * 4


def interleaved_load_addresses(base: int) -> np.ndarray:
    """Byte addresses of the single full-warp interleaved load (v3)."""
    return base + np.arange(WARP_SIZE) * 4
