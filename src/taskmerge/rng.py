"""Counter-based deterministic random streams.

The drop-and-rescale transform needs a per-element uniform draw that is
reproducible across platforms and independent of evaluation order, so we use
SplitMix64 keyed by (seed, task index, tensor name) rather than any stateful
library generator. The i-th output of SplitMix64 is a pure function of
``seed + (i+1)*GAMMA``, so a stream can be evaluated in any blocking.

``uniform_stream`` evaluates it in chunks of ``CHUNK`` elements: each chunk is
mixed in place in two reused uint64 scratch arrays small enough to stay in
the L2 cache, and converted straight into the caller's output. The
conversion splits each draw ``z`` into 32-bit halves, ``hi * 2**-32 +
lo * 2**-64``: both terms are exact in float64 and their sum rounds once, so
the result equals ``float64(z) * 2**-64`` bit for bit, while numpy converts
the halves with its fast int64 loop instead of its slow uint64 one.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15

# Draws per chunk of uniform_stream. A chunk's working set (the step table,
# two uint64 scratch arrays and the float64 output slice) is 512 KiB, which
# stays in a 2 MiB L2 cache.
CHUNK = 1 << 14

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


def _splitmix64_mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """The SplitMix64 output function, applied to the states in *z* in place."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws ``offset .. offset+count-1`` of the SplitMix64 stream as uniforms
    in [0, 1]: draw / 2**64 as 64-bit reals.

    The range is closed: draw / 2**64 rounds to nearest, so every draw
    >= 2**64 - 1024 becomes exactly 1.0. DARE keeps an element iff
    ``u >= p`` with ``p < 1``, so such a draw is kept either way.

    The stream is computed ``CHUNK`` draws at a time into one float64 array
    of *count* elements; the only other memory is three uint64 arrays of at
    most ``CHUNK`` elements (the step table and two scratch arrays). Each draw ``z`` is converted as
    ``(z >> 32) * 2**-32 + (z & 0xFFFFFFFF) * 2**-64``, which is exact up to
    the final rounding and so equals ``float64(z) * 2**-64``.
    """
    out = np.empty(count, dtype=np.float64)
    size = min(count, CHUNK)
    steps = np.arange(1, size + 1, dtype=np.uint64) * np.uint64(GAMMA)
    z = np.empty(size, dtype=np.uint64)
    tmp = np.empty(size, dtype=np.uint64)
    for start in range(0, count, CHUNK):
        m = min(CHUNK, count - start)
        zc, tc, oc = z[:m], tmp[:m], out[start : start + m]
        # state of draw offset+start+j is seed + (offset+start+j+1)*GAMMA
        np.add(steps[:m], np.uint64((seed + (offset + start) * GAMMA) & _MASK64), out=zc)
        _splitmix64_mix(zc, tc)
        np.right_shift(zc, np.uint64(32), out=tc)
        np.multiply(tc.view(np.int64), 2.0**-32, out=oc)
        zc &= np.uint64(0xFFFFFFFF)
        lo = tc.view(np.float64)
        np.multiply(zc.view(np.int64), 2.0**-64, out=lo)
        oc += lo
    return out
