import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskmerge.rng import CHUNK, GAMMA, drop_threshold, uniform_stream

from dense_reference import splitmix_scalar

MASK64 = (1 << 64) - 1


def reference_stream(seed, count, offset):
    return np.array(splitmix_scalar(seed, offset + count)[offset:], dtype=np.uint64)


def _unxorshift(z, shift):
    x = z
    for _ in range(64 // shift + 1):
        x = z ^ (x >> shift)
    return x


def seed_for_first_draw(z):
    """The seed whose SplitMix64 stream starts with draw *z* (the output
    function is a bijection on 64-bit words, so it can be run backwards)."""
    z = _unxorshift(z, 31)
    z = (z * pow(0x94D049BB133111EB, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 27)
    z = (z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64)) & MASK64
    z = _unxorshift(z, 30)
    return (z - GAMMA) & MASK64


@settings(max_examples=40, deadline=None)
@given(
    seed=st.one_of(st.integers(0, MASK64), st.integers(MASK64 - 2**16, MASK64)),
    count=st.sampled_from([0, 1, CHUNK - 1, CHUNK, CHUNK + 1]) | st.integers(0, 64),
    offset=st.integers(0, CHUNK + 3),
)
@example(seed=MASK64, count=CHUNK + 1, offset=CHUNK - 1)
@example(seed=0, count=CHUNK, offset=1)
def test_stream_matches_scalar_reference(seed, count, offset):
    got = uniform_stream(seed, count, offset)
    assert got.dtype == np.uint64 and got.shape == (count,)
    assert got.tobytes() == reference_stream(seed, count, offset).tobytes()


# draws whose uniforms round up to 1.0 (the first two), the largest draw
# below them, and two draws halfway between float64s, which round to even
EDGE_DRAWS = [2**64 - 1, 2**64 - 1024, 2**64 - 1025, 2**63 + 1024, 2**53 + 1]


@pytest.mark.parametrize("z", EDGE_DRAWS)
def test_threshold_agrees_with_float_compare_on_edge_draws(z):
    seed = seed_for_first_draw(z)
    assert splitmix_scalar(seed, 1) == [z]
    assert int(uniform_stream(seed, 1)[0]) == z
    at = float(z) / 2**64
    for p in (math.nextafter(at, 0.0), at, math.nextafter(at, 1.0)):
        if p >= 1.0:
            continue
        t = drop_threshold(p)
        assert (z < t) == (float(z) / 2**64 < p)
        # the engine compares draws as uint64 arrays with a uint64 scalar
        assert bool(np.array([z], dtype=np.uint64)[0] < np.uint64(t)) == (z < t)


def _is_threshold(t, p):
    """t is the smallest integer whose float64 is >= p * 2**64."""
    return float(t) >= p * 2**64 > float(t - 1)


# up to 0.9375, and small ones with p * 2**64 on both sides of 2**53, powers
# of two among them (there the float below is nearer than the one above)
_BINARY_FRACTIONS = [k / 16 for k in range(1, 16)] + [k / 2**j for j in (8, 30, 53) for k in (1, 3)]
_NEAR_FRACTIONS = [
    q for f in _BINARY_FRACTIONS for q in (math.nextafter(f, 0.0), f, math.nextafter(f, 1.0))
]


@pytest.mark.parametrize("p", _NEAR_FRACTIONS + [5e-324, 2.0**-65, 2.0**-64, 1 - 2.0**-53])
def test_drop_threshold_at_edges(p):
    assert _is_threshold(drop_threshold(p), p)


@settings(max_examples=300, deadline=None)
@given(p=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_drop_threshold_is_least_draw_at_or_above_p(p):
    assert _is_threshold(drop_threshold(p), p)


def test_drop_threshold_is_not_the_ceiling():
    # 0.9 * 2**64 lies above 2**63, where float64s are 2048 apart; the 1,023
    # integers below it that round to it count too (the midpoint itself
    # rounds half to even, here to the float below)
    assert drop_threshold(0.9) == math.ceil(0.9 * 2**64) - 1023
