"""Counter-based deterministic random streams.

The drop-and-rescale transform needs a per-element uniform draw that is
reproducible across platforms and independent of evaluation order, so we use
SplitMix64 keyed by (seed, task index, tensor name) rather than any stateful
library generator. The i-th output of SplitMix64 is a pure function of
``seed + (i+1)*GAMMA``, which lets us evaluate whole tensors in one
vectorized pass.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a64(data: bytes | str) -> int:
    """64-bit FNV-1a hash (Python's hash() is salted per process)."""
    if isinstance(data, str):
        data = data.encode("utf-8")
    h = _FNV_OFFSET
    for b in data:
        h ^= b
        h = (h * _FNV_PRIME) & _MASK64
    return h


def stream_seed(seed: int, task_index: int, tensor_name: str) -> int:
    """Derive the per-(task, tensor) stream seed from the recipe seed."""
    return (seed ^ fnv1a64(tensor_name) ^ ((task_index * GAMMA) & _MASK64)) & _MASK64


def splitmix64(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Outputs ``offset .. offset+count-1`` of the SplitMix64 stream, as uint64."""
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    z = np.uint64(seed & _MASK64) + idx * np.uint64(GAMMA)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Deterministic uniforms in [0, 1]: draw / 2**64 as 64-bit reals.

    The range is closed: the uint64 -> float64 conversion rounds to nearest,
    so every draw >= 2**64 - 1024 becomes exactly 1.0. DARE keeps an element
    iff ``u >= p`` with ``p < 1``, so such a draw is kept either way.
    """
    return splitmix64(seed, count, offset).astype(np.float64) * 2.0**-64
