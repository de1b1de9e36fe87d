import json
import struct
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
    validate_compatibility,
    write_checkpoint,
)

from conftest import write_ckpt


def raw_file(path, header, payload=b""):
    encoded = json.dumps(header).encode("utf-8")
    path.write_bytes(len(encoded).to_bytes(8, "little") + encoded + payload)
    return str(path)


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

    def test_nonfinite_rejected(self, tmp_path):
        p = raw_file(
            tmp_path / "t.st",
            {"a": {"dtype": "F32", "shape": [1], "data_offsets": [0, 4]}},
            struct.pack("<f", float("nan")),
        )
        with pytest.raises(ValidationError, match="non-finite"):
            read_tensor(open_checkpoint(p), "a")

    def test_unknown_name(self, tmp_path):
        p = write_ckpt(tmp_path / "c.st", {"a": np.zeros(2)})
        with pytest.raises(ValidationError, match="no tensor named"):
            read_tensor(open_checkpoint(p), "zzz")


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

    def test_deterministic_bytes(self, tmp_path):
        arrays = {"b": np.arange(5.0), "a": np.array([[1.0, 2.0]])}
        p1 = write_ckpt(tmp_path / "one.st", arrays, metadata={"k": "v"})
        p2 = write_ckpt(tmp_path / "two.st", arrays, metadata={"k": "v"})
        assert Path(p1).read_bytes() == Path(p2).read_bytes()

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

    def test_duplicate_declared_names(self, tmp_path):
        with pytest.raises(ValidationError, match="duplicate"):
            CheckpointWriter(str(tmp_path / "c.st"), [("a", (1,), "F32"), ("a", (2,), "F32")])


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
