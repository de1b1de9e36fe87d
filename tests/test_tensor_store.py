import errno
import io
import json
import os
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taskmerge import (
    CheckpointWriter,
    FormatError,
    TensorBuffer,
    ValidationError,
    open_checkpoint,
    read_tensor,
    tensor_store,
    validate_compatibility,
    write_checkpoint,
)

from taskmerge.tensor_store import (
    _CHUNK,
    DTYPE_SIZES,
    RangeReader,
    _any_nonfinite,
    read_payload,
)

from conftest import write_ckpt
from dense_reference import read_checkpoint_dense


def raw_file(path, header, payload=b""):
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(len(encoded).to_bytes(8, "little") + encoded + payload)
    return str(path)


def one_tensor_file(path, dtype, bits):
    """A container holding *bits* (stored patterns) as tensor 'a'."""
    payload = bits.tobytes()
    header = {"a": {"dtype": dtype, "shape": [bits.size], "data_offsets": [0, len(payload)]}}
    return raw_file(path, header, payload)


# dtype -> (unsigned storage dtype, exponent bits, lowest exponent bit)
STORED_BITS = {
    "F32": ("<u4", 0x7F800000, 0x00800000),
    "F16": ("<u2", 0x7C00, 0x0400),
    "BF16": ("<u2", 0x7F80, 0x0080),
}

# quiet NaN, signaling NaN and both infinities, as stored bits
NONFINITE_BITS = {
    "F32": {"qnan": 0x7FC00000, "snan": 0x7F800001, "+inf": 0x7F800000, "-inf": 0xFF800000},
    "F16": {"qnan": 0x7E00, "snan": 0x7C01, "+inf": 0x7C00, "-inf": 0xFC00},
    "BF16": {"qnan": 0x7FC0, "snan": 0x7F81, "+inf": 0x7F80, "-inf": 0xFF80},
}


def _bf16_edge(bits32):
    """float32 value *bits32* plus half its ulp: the tie between it and the
    next float32, exact in float64."""
    return float(np.array(bits32, dtype=np.uint32).view(np.float32)) + 2.0**103


# dtype -> (largest magnitude that narrows to a finite value, smallest that
# overflows). Both sides are finite float64 values below the float32 maximum
# for BF16, so only rounding decides the overflow.
OVERFLOW_EDGES = {
    "F32": (
        np.nextafter(float(np.finfo(np.float32).max) + 2.0**103, 0.0),
        float(np.finfo(np.float32).max) + 2.0**103,
    ),
    "F16": (np.nextafter(65520.0, 0.0), 65520.0),
    "BF16": (np.nextafter(_bf16_edge(0x7F7F7FFF), 0.0), _bf16_edge(0x7F7F7FFF)),
}

CODEC_SIZES = st.sampled_from([0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1]) | st.integers(0, 300)


def reference_encoding(values, dtype):
    """(payload bytes, whether every narrowed value is finite), from plain
    whole-array numpy casts."""
    with np.errstate(over="ignore"):
        if dtype in ("F32", "F16"):
            narrowed = np.asarray(values, "<f4" if dtype == "F32" else "<f2")
            return narrowed.tobytes(), bool(np.isfinite(narrowed).all())
        u32 = values.astype(np.float32).view(np.uint32)
        bias = np.uint32(0x7FFF) + ((u32 >> np.uint32(16)) & np.uint32(1))
        u16 = ((u32 + bias) >> np.uint32(16)).astype("<u2")
        widened = (u16.astype(np.uint32) << np.uint32(16)).view(np.float32)
        return u16.tobytes(), bool(np.isfinite(widened).all())


class TestOpen:
    def test_two_tensor_param_count(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"a": np.zeros((2, 2)), "b": np.zeros(3)})
        h = open_checkpoint(p)
        assert h.total_params == 7
        assert set(h.index) == {"a", "b"}

    def test_truncated_payload(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "F32", "shape": [4], "data_offsets": [0, 16]}},
            b"\x00" * 8,  # half the declared bytes
        )
        with pytest.raises(FormatError, match="truncated payload"):
            open_checkpoint(p)

    def test_unsupported_dtype(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "I64", "shape": [1], "data_offsets": [0, 8]}},
            b"\x00" * 8,
        )
        with pytest.raises(FormatError, match="unsupported dtype"):
            open_checkpoint(p)

    def test_overlapping_ranges(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {
                "a": {"dtype": "F32", "shape": [2], "data_offsets": [0, 8]},
                "b": {"dtype": "F32", "shape": [2], "data_offsets": [4, 12]},
            },
            b"\x00" * 12,
        )
        with pytest.raises(FormatError, match="overlapping"):
            open_checkpoint(p)

    def test_range_length_must_match_shape(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "F32", "shape": [3], "data_offsets": [0, 8]}},
            b"\x00" * 8,
        )
        with pytest.raises(FormatError):
            open_checkpoint(p)

    def test_duplicate_names(self, tmp_path):
        encoded = (
            b'{"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]},'
            b' "a": {"dtype": "F32", "shape": [1], "data_offsets": [4, 8]}}'
        )
        p = tmp_path / "t.st"
        p.write_bytes(len(encoded).to_bytes(8, "little") + encoded + b"\x00" * 8)
        with pytest.raises(FormatError, match="duplicate"):
            open_checkpoint(str(p))

    def test_garbage_header(self, tmp_path):
        p = tmp_path / "t.st"
        p.write_bytes((20).to_bytes(8, "little") + b"not json at all!!!!!")
        with pytest.raises(FormatError, match="malformed"):
            open_checkpoint(str(p))

    def test_deeply_nested_header(self, tmp_path):
        encoded = b"[" * 200_000
        p = tmp_path / "t.st"
        p.write_bytes(len(encoded).to_bytes(8, "little") + encoded)
        with pytest.raises(FormatError, match="malformed header"):
            open_checkpoint(str(p))

    @pytest.mark.parametrize(
        "shape, offsets, match",
        [([True], [0, 4], "bad shape"), ([1], [False, 4], "bad data_offsets"),
         ([1], [0, True], "bad data_offsets")],
    )
    def test_bools_are_not_sizes(self, tmp_path, shape, offsets, match):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "F32", "shape": shape, "data_offsets": offsets}},
            b"\x00" * 4,
        )
        with pytest.raises(FormatError, match=match):
            open_checkpoint(p)

    def test_header_longer_than_file(self, tmp_path):
        p = tmp_path / "t.st"
        p.write_bytes((1 << 20).to_bytes(8, "little") + b"{}")
        with pytest.raises(FormatError):
            open_checkpoint(str(p))

    def test_empty_index_rejected(self, tmp_path):
        p = raw_file(tmp_path / "t.st", {})
        with pytest.raises(FormatError, match="no tensors"):
            open_checkpoint(p)

    def test_lazy_open_reads_only_header(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"big": np.zeros(10000)})
        h = open_checkpoint(p)
        import os

        header_len = int.from_bytes(Path(p).read_bytes()[:8], "little")
        assert h.bytes_read == 8 + header_len
        assert h.bytes_read < os.path.getsize(p) / 4
        read_tensor(h, "big")
        assert h.bytes_read == 8 + header_len + 40000


class TestReadDecode:
    def test_f32_identity(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"a": np.array([1.0, -2.5])})
        buf = read_tensor(open_checkpoint(p), "a")
        assert buf.values.tolist() == [1.0, -2.5]

    def test_f16_half_one(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "F16", "shape": [1], "data_offsets": [0, 2]}},
            struct.pack("<H", 0x3C00),
        )
        assert read_tensor(open_checkpoint(p), "a").values.tolist() == [1.0]

    def test_bf16_one(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "BF16", "shape": [1], "data_offsets": [0, 2]}},
            struct.pack("<H", 0x3F80),
        )
        assert read_tensor(open_checkpoint(p), "a").values.tolist() == [1.0]

    @pytest.mark.parametrize("kind", ["qnan", "snan", "+inf", "-inf"])
    @pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
    def test_nonfinite_rejected(self, tmp_path, dtype, kind):
        # a typed error, with no cast warning on the way (pytest.ini_options
        # turns RuntimeWarning into an error)
        unsigned = STORED_BITS[dtype][0]
        bits = np.array([0, NONFINITE_BITS[dtype][kind]], dtype=unsigned)
        p = one_tensor_file(tmp_path / "t.st", dtype, bits)
        with pytest.raises(ValidationError, match="non-finite"):
            read_tensor(open_checkpoint(p), "a")

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(sorted(STORED_BITS)),
        n=CODEC_SIZES,
        seed=st.integers(0, 2**32 - 1),
        clean=st.booleans(),
        poison=st.none() | st.integers(0, 2**31),
    )
    def test_decode_matches_dense_reference(self, dtype, n, seed, clean, poison):
        unsigned, exponent, low_bit = STORED_BITS[dtype]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2 ** (8 * np.dtype(unsigned).itemsize), n, dtype=np.uint64)
        bits = bits.astype(unsigned)
        if clean:  # clear one exponent bit of every inf and NaN
            bits[(bits & exponent) == exponent] ^= low_bit
        if poison is not None and n:
            bits[poison % n] |= exponent
        with tempfile.TemporaryDirectory() as d:
            p = one_tensor_file(Path(d) / "c.st", dtype, bits)
            with np.errstate(invalid="ignore"):
                dense = read_checkpoint_dense(p)["a"]
            if np.isfinite(dense).all():
                got = read_tensor(open_checkpoint(p), "a").values
                assert got.tobytes() == dense.tobytes()
            else:
                with pytest.raises(ValidationError, match="non-finite"):
                    read_tensor(open_checkpoint(p), "a")

    @settings(max_examples=40, deadline=None)
    @given(
        dtype=st.sampled_from(sorted(STORED_BITS)),
        n=st.integers(1, 3 * _CHUNK),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_range_decode_matches_dense_reference(self, dtype, n, seed, data):
        # any [lo, hi) decodes to the dense values there, and only a
        # non-finite value inside the range fails it
        unsigned, exponent, low_bit = STORED_BITS[dtype]
        rng = np.random.default_rng(seed)
        bits = rng.integers(0, 2 ** (8 * np.dtype(unsigned).itemsize), n, dtype=np.uint64)
        bits = bits.astype(unsigned)
        bits[(bits & exponent) == exponent] ^= low_bit
        lo = data.draw(st.integers(0, n - 1))
        hi = data.draw(st.integers(lo + 1, n))
        poison = data.draw(st.integers(0, n - 1))
        bits[poison] |= exponent
        with tempfile.TemporaryDirectory() as d:
            p = one_tensor_file(Path(d) / "c.st", dtype, bits)
            with np.errstate(invalid="ignore"):
                dense = read_checkpoint_dense(p)["a"]
            handle = open_checkpoint(p)
            out = np.empty(hi - lo)
            with RangeReader([handle]) as reader:
                if lo <= poison < hi:
                    with pytest.raises(ValidationError, match="non-finite value in 'a'"):
                        reader.decode(0, "a", lo, hi, out)
                else:
                    reader.decode(0, "a", lo, hi, out)
                    assert out.tobytes() == dense[lo:hi].tobytes()
                    assert handle.bytes_read == handle.data_start + (hi - lo) * bits.itemsize

    @pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
    def test_ranged_reads_share_one_buffer_and_count_their_bytes(self, tmp_path, dtype):
        n = 2 * _CHUNK + 9
        values = np.arange(n, dtype=np.float64) % 200 - 100  # exact in BF16
        p = write_ckpt(tmp_path / "c.st", {"a": values, "b": np.ones(3)}, dtype=dtype)
        handle = open_checkpoint(p)
        start, width = handle.bytes_read, DTYPE_SIZES[dtype]
        ranges = [(0, 1), (5, _CHUNK + 5), (2 * _CHUNK, n), (7, 7)]
        raw = bytearray(_CHUNK * 4)
        stored = Path(p).read_bytes()[handle.data_start :]
        with open(p, "rb") as f:
            for lo, hi in ranges:
                bits = read_payload(handle, "a", lo, hi, f, raw)
                assert hi == lo or np.shares_memory(bits, np.frombuffer(raw, np.uint8))
                assert bits.tobytes() == stored[lo * width : hi * width]
        assert handle.bytes_read == start + sum(hi - lo for lo, hi in ranges) * width
        # a reader decodes any range, one chunk at a time
        out = np.empty(n - 3)
        with RangeReader([handle]) as reader:
            reader.decode(0, "a", 3, n, out)
        assert out.tolist() == values[3:].tolist()

    def test_ranged_read_of_a_file_cut_after_open(self, tmp_path):
        n = 2 * _CHUNK + 9
        p = write_ckpt(tmp_path / "c.st", {"a": np.ones(n)})
        handle = open_checkpoint(p)
        os.truncate(p, os.path.getsize(p) - 1)
        raw = bytearray(8 * _CHUNK)
        with open(p, "rb") as f:
            read_payload(handle, "a", 0, _CHUNK, f, raw)
            start = handle.bytes_read
            with pytest.raises(FormatError) as caught:
                read_payload(handle, "a", _CHUNK, n, f, raw)
        assert str(caught.value) == f"{p}: truncated payload for 'a'"
        assert handle.bytes_read == start

    def test_unknown_name(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"a": np.zeros(2)})
        with pytest.raises(ValidationError, match="no tensor named"):
            read_tensor(open_checkpoint(p), "zzz")


def exponent_all_ones(bits, exponent):
    """The definition of inf and NaN: every exponent bit of the pattern is set."""
    return (bits & exponent) == exponent


class TestNonfiniteCheck:
    """``_any_nonfinite`` against its definition, pattern by pattern."""

    def check_each(self, patterns, exponent):
        got = [_any_nonfinite(patterns[i : i + 1], exponent) for i in range(patterns.size)]
        assert got == exponent_all_ones(patterns, exponent).tolist()

    @pytest.mark.parametrize("dtype", ["F16", "BF16"])
    def test_every_16_bit_pattern(self, dtype):
        unsigned, exponent, _ = STORED_BITS[dtype]
        patterns = np.arange(1 << 16, dtype=unsigned)
        self.check_each(patterns, exponent)
        nonfinite = exponent_all_ones(patterns, exponent)
        assert not _any_nonfinite(patterns[~nonfinite], exponent)
        assert _any_nonfinite(patterns, exponent)

    def test_f32_patterns_near_each_sign_and_exponent_boundary(self):
        unsigned, exponent, lowest = STORED_BITS["F32"]
        edges = [(s << 31) | (e * lowest) for s in (0, 1) for e in range(256)]
        near = sorted({(edge + d) % 2**32 for edge in edges for d in range(-2, 3)})
        self.check_each(np.array(near, dtype=unsigned), exponent)

    def test_f32_random_patterns(self):
        unsigned, exponent, _ = STORED_BITS["F32"]
        rng = np.random.default_rng(32)
        patterns = rng.integers(0, 2**32, 1 << 12, dtype=np.uint64).astype(unsigned)
        self.check_each(patterns, exponent)
        # a chunk of finite patterns, and the same chunk with one of them
        # replaced by each kind of inf and NaN, anywhere in it
        chunk = rng.integers(0, 2**32, _CHUNK, dtype=np.uint64).astype(unsigned)
        chunk = chunk[~exponent_all_ones(chunk, exponent)]
        assert not _any_nonfinite(chunk, exponent)
        for bits in NONFINITE_BITS["F32"].values():
            poisoned = chunk.copy()
            poisoned[rng.integers(chunk.size)] = bits
            assert _any_nonfinite(poisoned, exponent)


class TestWrite:
    def test_roundtrip_simple(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"x": np.array([3.0])})
        assert read_tensor(open_checkpoint(p), "x").values.tolist() == [3.0]

    def test_f16_overflow_is_an_error(self, tmp_path):
        buf = TensorBuffer("x", (1,), np.array([70000.0]))
        with pytest.raises(ValidationError, match="overflow for dtype"):
            write_checkpoint(str(tmp_path / "c.st"), [(buf, "F16")])
        assert not (tmp_path / "c.st").exists()

    def test_nan_rejected(self, tmp_path):
        buf = TensorBuffer("x", (1,), np.array([1.0]))
        buf.values[0] = float("nan")
        with pytest.raises(ValidationError):
            write_checkpoint(str(tmp_path / "c.st"), [(buf, "F32")])

    @pytest.mark.parametrize("sign", [0, 1])
    def test_bf16_nan_rounding_into_sign_rejected(self, tmp_path, sign):
        # rounded to BF16, a float32 NaN of all-ones payload carries into the
        # sign bit (0x8000, or 0x0000 for its negative): only the writer's
        # finiteness pass stops it from landing as a signed zero
        bits = np.array([0x7FFF_FFFF_FFFF_FFFF | sign << 63], dtype=np.uint64)
        buf = TensorBuffer("a", (1,), bits.view(np.float64))
        with pytest.raises(ValidationError, match="^tensor 'a': non-finite value$"):
            write_checkpoint(str(tmp_path / "c.st"), [(buf, "BF16")])
        assert list(tmp_path.iterdir()) == []

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"b": np.arange(5.0), "a": np.array([[1.0, 2.0]])}
        p1 = write_ckpt(tmp_path / "one.st", arrays, metadata={"k": "v"})
        p2 = write_ckpt(tmp_path / "two.st", arrays, metadata={"k": "v"})
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

    def test_two_writers_one_path(self, tmp_path):
        path = str(tmp_path / "c.st")
        specs = [("x", (1,), "F32")]
        first, second = CheckpointWriter(path, specs), CheckpointWriter(path, specs)
        first.write(TensorBuffer("x", (1,), np.array([1.0])))
        second.write(TensorBuffer("x", (1,), np.array([2.0])))
        first.abort()
        second.close()
        expect = write_ckpt(tmp_path / "expect.st", {"x": np.array([2.0])})
        assert Path(path).read_bytes() == Path(expect).read_bytes()
        assert list(tmp_path.glob("*.partial")) == []
        # the output keeps the umask's mode, as a file opened for writing would
        plain = tmp_path / "plain"
        plain.write_bytes(b"")
        assert os.stat(path).st_mode == plain.stat().st_mode

    def test_metadata_roundtrip(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"a": np.zeros(1)}, metadata={"origin": "test"})
        assert open_checkpoint(p).metadata == {"origin": "test"}

    def test_sorted_name_contiguous_offsets(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"z": np.zeros(2), "a": np.zeros(3)})
        h = open_checkpoint(p)
        assert h.index["a"].byte_range == (0, 12)
        assert h.index["z"].byte_range == (12, 20)

    def test_f16_narrowing_roundtrip(self, tmp_path):
        vals = np.array([0.1, -1.5, 3.14159, 65504.0])
        p = write_ckpt(tmp_path / "c.st", {"a": vals}, dtype="F16")
        got = read_tensor(open_checkpoint(p), "a").values
        np.testing.assert_array_equal(got, vals.astype(np.float16).astype(np.float64))

    def test_bf16_narrowing_roundtrip(self, tmp_path):
        vals = np.array([1.0, -2.5, 3.14159, 1e38])
        p = write_ckpt(tmp_path / "c.st", {"a": vals}, dtype="BF16")
        got = read_tensor(open_checkpoint(p), "a").values
        # widening the stored 16 bits must be idempotent
        p2 = write_ckpt(tmp_path / "c2.st", {"a": got}, dtype="BF16")
        got2 = read_tensor(open_checkpoint(p2), "a").values
        np.testing.assert_array_equal(got, got2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=32),
            min_size=1,
            max_size=64,
        )
    )
    def test_f32_roundtrip_bit_exact(self, values):
        import tempfile, os

        arr = np.array(values, dtype=np.float32).astype(np.float64)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "c.st")
            write_checkpoint(p, [(TensorBuffer("a", (len(values),), arr), "F32")])
            got = read_tensor(open_checkpoint(p), "a").values
        np.testing.assert_array_equal(got, arr)

    @pytest.mark.parametrize("side", ["below", "above"])
    @pytest.mark.parametrize("dtype", sorted(OVERFLOW_EDGES))
    def test_overflow_decided_by_rounding(self, tmp_path, dtype, side):
        below, above = OVERFLOW_EDGES[dtype]
        values = np.array([1.0, -(below if side == "below" else above)])
        path = str(tmp_path / "c.st")
        if side == "below":
            write_checkpoint(path, [(TensorBuffer("a", (2,), values), dtype)])
            assert np.isfinite(read_tensor(open_checkpoint(path), "a").values).all()
        else:
            with pytest.raises(ValidationError, match="overflow for dtype"):
                write_checkpoint(path, [(TensorBuffer("a", (2,), values), dtype)])
            assert not os.path.exists(path)

    @settings(max_examples=60, deadline=None)
    @given(
        dtype=st.sampled_from(sorted(OVERFLOW_EDGES)),
        n=CODEC_SIZES,
        seed=st.integers(0, 2**32 - 1),
        edge=st.none() | st.tuples(st.sampled_from([0, 1]), st.integers(0, 2**31)),
    )
    def test_encode_matches_reference_casts(self, dtype, n, seed, edge):
        below, above = OVERFLOW_EDGES[dtype]
        rng = np.random.default_rng(seed)
        # magnitudes from far below the smallest subnormal up to the edge
        lowest = -9.0 if dtype == "F16" else -47.0
        mags = np.minimum(10.0 ** rng.uniform(lowest, np.log10(below), n), below)
        mags[rng.random(n) < 0.02] = 0.0
        values = np.where(rng.random(n) < 0.5, -mags, mags)
        if edge is not None and n:
            values[edge[1] % n] = (below, above)[edge[0]]
        expected, finite = reference_encoding(values, dtype)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "c.st")
            tensors = [(TensorBuffer("a", (n,), values), dtype)]
            if finite:
                write_checkpoint(p, tensors)
                data = Path(p).read_bytes()
                assert data[8 + int.from_bytes(data[:8], "little") :] == expected
            else:
                with pytest.raises(ValidationError, match="overflow for dtype"):
                    write_checkpoint(p, tensors)
                assert not os.path.exists(p)


class TestWriterStreaming:
    def test_out_of_order_rejected(self, tmp_path):
        w = CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32"), ("b", (1,), "F32")])
        with pytest.raises(ValidationError, match="sorted order"):
            w.write(TensorBuffer("b", (1,), np.zeros(1)))
        assert list(tmp_path.iterdir()) == []

    def test_abort_leaves_no_file(self, tmp_path):
        w = CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32")])
        w.abort()
        assert list(tmp_path.iterdir()) == []

    def test_incomplete_close_fails_and_cleans_up(self, tmp_path):
        w = CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32"), ("b", (1,), "F32")])
        w.write(TensorBuffer("a", (1,), np.zeros(1)))
        with pytest.raises(ValidationError, match="declared tensors written"):
            w.close()
        assert list(tmp_path.iterdir()) == []

    def test_failed_header_write_leaves_nothing(self, tmp_path, monkeypatch):
        # a real model's header runs to tens of KB, more than the file
        # buffer, so a full disk shows while the header is written
        class FullDisk(io.FileIO):
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        monkeypatch.setattr(tensor_store, "open", FullDisk, raising=False)
        with pytest.raises(OSError) as caught:
            CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32")])
        assert caught.value.errno == errno.ENOSPC
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit, ValueError])
    def test_with_aborts_on_any_exception(self, tmp_path, exc):
        with pytest.raises(exc):
            with CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32")]) as w:
                w.write(TensorBuffer("a", (1,), np.zeros(1)))
                raise exc
        assert list(tmp_path.iterdir()) == []

    def test_interrupt_in_write_checkpoint_leaves_nothing(self, tmp_path, monkeypatch):
        def interrupted(values, dtype, name):
            raise KeyboardInterrupt

        monkeypatch.setattr(tensor_store, "_encode", interrupted)
        buf = TensorBuffer("a", (1,), np.zeros(1))
        with pytest.raises(KeyboardInterrupt):
            write_checkpoint(str(tmp_path / "c.st"), [(buf, "F32")])
        assert list(tmp_path.iterdir()) == []

    def test_duplicate_declared_names(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32"), ("a", (2,), "F32")])


class TestWriterAppend:
    SPECS = [("a", (3, 5), "BF16"), ("b", (0,), "F16"), ("c", (_CHUNK + 3,), "F32")]

    def values(self):
        rng = np.random.default_rng(17)
        return {name: rng.standard_normal(shape).reshape(-1) for name, shape, _ in self.SPECS}

    def test_pieces_match_whole_writes(self, tmp_path):
        values = self.values()
        whole = tmp_path / "whole.st"
        write_checkpoint(str(whole), [(TensorBuffer(name, shape, values[name]), dtype)
                                      for name, shape, dtype in self.SPECS])
        w = CheckpointWriter(str(tmp_path / "pieces.st"), self.SPECS)
        for name, shape, _ in self.SPECS:
            cuts = [0, 1, 7, values[name].size] if values[name].size else [0, 0]
            for lo, hi in zip(cuts, cuts[1:]):
                w.append(name, shape, values[name][lo:hi])
        w.close()
        assert (tmp_path / "pieces.st").read_bytes() == whole.read_bytes()

    def written_in_part(self, tmp_path, count):
        w = CheckpointWriter(str(tmp_path / "c.st"), self.SPECS)
        w.append("a", (3, 5), self.values()["a"][:count])
        return w

    def test_short_tensor_fails_at_the_next_tensor(self, tmp_path):
        w = self.written_in_part(tmp_path, 9)
        with pytest.raises(ValidationError) as caught:
            w.append("b", (0,), np.empty(0))
        assert str(caught.value) == "tensor 'a': only 9 of 15 values written"
        assert list(tmp_path.iterdir()) == []

    def test_short_tensor_fails_at_close(self, tmp_path):
        w = self.written_in_part(tmp_path, 9)
        with pytest.raises(ValidationError, match="only 9 of 15 values written"):
            w.close()
        assert list(tmp_path.iterdir()) == []

    def test_over_long_tensor_rejected(self, tmp_path):
        w = self.written_in_part(tmp_path, 9)
        with pytest.raises(ValidationError) as caught:
            w.append("a", (3, 5), np.zeros(7))
        assert str(caught.value) == "tensor 'a': more than 15 values for shape [3, 5]"
        assert list(tmp_path.iterdir()) == []

    def test_out_of_order_piece_rejected(self, tmp_path):
        w = CheckpointWriter(str(tmp_path / "c.st"), self.SPECS)
        with pytest.raises(ValidationError, match="sorted order: got 'b', expected 'a'"):
            w.append("b", (0,), np.empty(0))
        assert list(tmp_path.iterdir()) == []

    def test_shape_checked_on_every_piece(self, tmp_path):
        w = self.written_in_part(tmp_path, 9)
        with pytest.raises(ValidationError, match=r"shape \(15,\) != declared \(3, 5\)"):
            w.append("a", (15,), np.zeros(6))
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("bad,message", [
        (float("nan"), "tensor 'a': non-finite value"),
        (1e6, "tensor 'a': overflow for dtype F16"),
    ])
    def test_bad_value_in_a_middle_piece(self, tmp_path, bad, message):
        w = CheckpointWriter(str(tmp_path / "c.st"), [("a", (_CHUNK + 9,), "F16")])
        values = np.zeros(_CHUNK + 9)
        values[_CHUNK - 1] = bad
        w.append("a", (_CHUNK + 9,), values[:5])
        with pytest.raises(ValidationError) as caught:
            w.append("a", (_CHUNK + 9,), values[5:_CHUNK + 2])
        assert str(caught.value) == message
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("at", [0, 1, 2])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
    def test_nonfinite_piece_rejected(self, tmp_path, dtype, bad, at):
        w = CheckpointWriter(str(tmp_path / "c.st"), [("a", (3,), dtype)])
        values = np.array([1.5, -2.0, 0.25])
        values[at] = bad
        with pytest.raises(ValidationError) as caught:
            w.append("a", (3,), values)
        assert str(caught.value) == "tensor 'a': non-finite value"
        assert list(tmp_path.iterdir()) == []

    def test_failed_rename_leaves_no_temp_file(self, tmp_path):
        adir = tmp_path / "adir"
        adir.mkdir()
        with pytest.raises(IsADirectoryError):
            write_checkpoint(str(adir), [(TensorBuffer("a", (1,), np.array([1.5])), "F32")])
        assert [p.name for p in tmp_path.iterdir()] == ["adir"]
        assert list(adir.iterdir()) == []

    def test_empty_pieces_are_taken(self, tmp_path):
        specs = [("a", (2,), "BF16"), ("b", (0,), "F32")]
        w = CheckpointWriter(str(tmp_path / "pieces.st"), specs)
        for piece in (np.empty(0), np.array([1.5, -2.0]), np.empty(0)):
            w.append("a", (2,), piece)
        w.append("b", (0,), np.empty(0))
        w.close()
        whole = tmp_path / "whole.st"
        write_checkpoint(str(whole), [(TensorBuffer("a", (2,), np.array([1.5, -2.0])), "BF16"),
                                      (TensorBuffer("b", (0,), np.empty(0)), "F32")])
        assert (tmp_path / "pieces.st").read_bytes() == whole.read_bytes()


class TestCompatibility:
    def test_identical_is_clean(self, small_family):
        paths, *_ = small_family
        handles = [open_checkpoint(paths[k]) for k in ("base", "m1", "m2")]
        report = validate_compatibility(handles)
        assert report.clean
        assert report.common == ["w.a", "w.b"]

    def test_missing_name_reported(self, tmp_path):
        p1 = write_ckpt(tmp_path / "a.st", {"x": np.zeros(2), "lm_head": np.zeros(2)})
        p2 = write_ckpt(tmp_path / "b.st", {"x": np.zeros(2)})
        report = validate_compatibility([open_checkpoint(p1), open_checkpoint(p2)])
        assert "lm_head" in report.missing
        assert report.missing["lm_head"] == [p2]

    def test_shape_mismatch_reported(self, tmp_path):
        p1 = write_ckpt(tmp_path / "a.st", {"x": np.zeros((2, 2))})
        p2 = write_ckpt(tmp_path / "b.st", {"x": np.zeros(4)})
        report = validate_compatibility([open_checkpoint(p1), open_checkpoint(p2)])
        assert "x" in report.shape_mismatch

    def test_needs_two_handles(self, tmp_path):
        p1 = write_ckpt(tmp_path / "a.st", {"x": np.zeros(2)})
        with pytest.raises(ValidationError):
            validate_compatibility([open_checkpoint(p1)])
