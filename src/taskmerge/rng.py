"""Counter-based deterministic random streams.

The drop-and-rescale transform needs a per-element random draw that is
reproducible across platforms and independent of evaluation order, so we use
SplitMix64 keyed by (seed, task index, tensor name) rather than any stateful
library generator. The i-th output of SplitMix64 is a pure function of
``seed + (i+1)*GAMMA``, so a stream can be evaluated in any blocking.

``uniform_stream`` returns the raw 64-bit draws, mixed in place ``CHUNK``
at a time; no draw is ever converted to a real. A draw ``z`` stands for the
uniform ``float64(z) * 2**-64``, and DARE drops an element iff that uniform
is below p. The conversion is monotone in ``z``, so the same test is the
integer compare ``z < drop_threshold(p)``, exact for every p in [0, 1).
"""

from __future__ import annotations

import functools
import math

import numpy as np

_MASK64 = (1 << 64) - 1

GAMMA = 0x9E3779B97F4A7C15

# Draws per chunk of uniform_stream. A chunk's working set (the step table,
# the output slice and one scratch array, all uint64) is 384 KiB, which
# stays in a 2 MiB L2 cache.
CHUNK = 1 << 14

# SplitMix64 state increments of the draws of one chunk: (j + 1) * GAMMA
_STEPS = np.arange(1, CHUNK + 1, dtype=np.uint64) * np.uint64(GAMMA)

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


@functools.lru_cache(maxsize=1)
def _name_hash(tensor_name: str) -> int:
    # a walk derives the streams of every task of one tensor in a row, so
    # one entry hashes each name once
    return fnv1a64(tensor_name)


def stream_seed(seed: int, task_index: int, tensor_name: str) -> int:
    """Derive the per-(task, tensor) stream seed from the recipe seed."""
    return (seed ^ _name_hash(tensor_name) ^ ((task_index * GAMMA) & _MASK64)) & _MASK64


def _splitmix64_mix(z: np.ndarray, tmp: np.ndarray) -> None:
    """The SplitMix64 output function, applied to the states in *z* in place."""
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        z ^= tmp
        z *= np.uint64(mult)
    np.right_shift(z, np.uint64(31), out=tmp)
    z ^= tmp


def uniform_stream(seed: int, count: int, offset: int = 0) -> np.ndarray:
    """Draws ``offset .. offset+count-1`` of the SplitMix64 stream, as uint64.

    Draw ``z`` stands for the uniform ``float64(z) * 2**-64``; compare draws
    with ``drop_threshold(p)`` rather than converting them. That uniform is
    exactly 1.0 for every draw >= 2**64 - 1024, and the threshold accounts
    for such rounding, so there is no float range to check. The draws are
    mixed ``CHUNK`` at a time in the output array itself; the only other
    memory is one uint64 scratch array of at most ``CHUNK`` elements.
    """
    out = np.empty(count, dtype=np.uint64)
    tmp = np.empty(min(count, CHUNK), dtype=np.uint64)
    for start in range(0, count, CHUNK):
        m = min(CHUNK, count - start)
        zc = out[start : start + m]
        # state of draw offset+start+j is seed + (offset+start+j+1)*GAMMA
        np.add(_STEPS[:m], np.uint64((seed + (offset + start) * GAMMA) & _MASK64), out=zc)
        _splitmix64_mix(zc, tmp[:m])
    return out


def drop_threshold(p: float) -> int:
    """The smallest draw ``z`` whose uniform ``float64(z) * 2**-64`` is >= p.

    So ``z < drop_threshold(p)`` iff ``float64(z) * 2**-64 < p``, for every
    p in [0, 1]. The bound is not ``ceil(p * 2**64)``: above 2**53 a float64
    stands for every integer that rounds to it, so draws down to the midpoint
    with the next float below count too (for p = 0.9, 1,023 more draws).
    """
    target = p * 2.0**64  # exact: scaling by a power of two
    if target <= 2.0**53:
        # every integer up to 2**53 converts exactly
        return math.ceil(target)
    below = math.nextafter(target, 0.0)
    # both are even integers, so their midpoint is an integer; a draw on the
    # midpoint rounds half to even, which may land on either float
    mid = (int(below) + int(target)) // 2
    return mid if float(mid) >= target else mid + 1
