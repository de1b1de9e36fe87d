import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taskmerge.rng import CHUNK, GAMMA, uniform_stream

from dense_reference import splitmix_scalar

MASK64 = (1 << 64) - 1


def reference_stream(seed, count, offset):
    draws = splitmix_scalar(seed, offset + count)[offset:]
    return np.array([float(d) / 2.0**64 for d in draws], dtype=np.float64)


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
    assert got.dtype == np.float64 and got.shape == (count,)
    assert got.tobytes() == reference_stream(seed, count, offset).tobytes()


@pytest.mark.parametrize(
    "z", [2**64 - 1, 2**64 - 1024, 2**64 - 1025, 2**63 + 1024, 2**53 + 1]
)
def test_split_conversion_rounds_like_float64(z):
    seed = seed_for_first_draw(z)
    assert splitmix_scalar(seed, 1) == [z]
    expected = np.array([z], dtype=np.uint64).astype(np.float64) * 2.0**-64
    got = uniform_stream(seed, 1)
    assert got.tobytes() == expected.tobytes()
    assert got[0] == float(z) / 2.0**64
