"""Bit-exact checkpoint container I/O with lazy per-tensor access.

File layout: an 8-byte little-endian unsigned header length N, then N bytes
of UTF-8 JSON mapping tensor name -> {"dtype", "shape", "data_offsets"}
(plus an optional "__metadata__" string map), then the raw data section.
Offsets are relative to the start of the data section and contiguous in
sorted-name order on write, so identical inputs produce byte-identical
files.

Tensors are decoded to flat float64 arrays; the storage dtype is metadata.
Non-finite values are rejected on both read and write: a silent NaN in a
checkpoint corrupts every model merged from it.

The codec works through a tensor in chunks of ``_CHUNK`` elements.
``read_payload`` reads the stored bits of any element range of a tensor,
undecoded. A ``RangeReader`` holds a walk's inputs open, and its ``decode``
reads any range a chunk at a time into one reused byte buffer, checks each
chunk and widens it into a float64 array the caller gives: a whole tensor
for ``read_tensor``, one node of a reduction for a streaming walk. Encoding
narrows each piece into one result of the storage dtype, which the writer
appends without a copy: ``CheckpointWriter.append`` takes a tensor in any
number of pieces, ``write`` takes it whole.
Scratch arrays hold one chunk, so no full-size temporary is made. A value is
inf or NaN exactly when its exponent bits are all ones, so the read check
runs on the stored bits before any cast (a signaling NaN never reaches a
float cast), and the overflow check on the narrowed bits; each check is two
reductions and writes no mask.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import FormatError, ValidationError

DTYPE_SIZES = {"F32": 4, "F16": 2, "BF16": 2}

_HEADER_LEN_BYTES = 8
_MAX_HEADER_LEN = 1 << 31

# The codec works in chunks of this many elements, so its scratch arrays stay
# in cache and no full-size temporary is made besides the result.
_CHUNK = 2**16

# dtype -> (storage dtype, unsigned dtype of its width, exponent bits). The
# exponent bits are all ones exactly for inf and NaN. Header parsing and the
# writer reject any other dtype before the codec sees it.
_LAYOUT = {
    "F32": ("<f4", "<u4", 0x7F800000),
    "F16": ("<f2", "<u2", 0x7C00),
    "BF16": ("<u2", "<u2", 0x7F80),
}


@dataclass(frozen=True)
class TensorMeta:
    name: str
    dtype: str
    shape: tuple[int, ...]
    byte_range: tuple[int, int]

    @property
    def num_elements(self) -> int:
        n = 1
        for d in self.shape:
            n *= d
        return n

    @property
    def num_bytes(self) -> int:
        return self.byte_range[1] - self.byte_range[0]


@dataclass
class TensorBuffer:
    """A named tensor materialized as a flat float64 array."""

    name: str
    shape: tuple[int, ...]
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64).reshape(-1)
        n = 1
        for d in self.shape:
            n *= d
        if self.values.size != n:
            raise ValidationError(
                f"tensor '{self.name}': {self.values.size} values for shape {list(self.shape)}"
            )


@dataclass
class CheckpointHandle:
    """Immutable view of a checkpoint file; payloads are read on demand.

    Reads never change the index, so concurrent readers see the same
    tensors. ``bytes_read`` counts every byte pulled from disk through this
    handle, which lets tests assert that opening costs O(header), not
    O(payload). Its ``+=`` is a read-modify-write without a lock, so under
    concurrent reads from several threads the count can come out low.
    """

    path: str
    index: dict[str, TensorMeta]
    metadata: dict[str, str] | None
    data_start: int
    bytes_read: int = 0

    @property
    def total_params(self) -> int:
        return sum(m.num_elements for m in self.index.values())


def _any_nonfinite(bits: np.ndarray, exponent: int) -> bool:
    """True if some element of the unsigned *bits* has every exponent bit set
    (inf or NaN), found by two reductions that write nothing.

    The exponent bits are the highest below the sign bit, so a positive
    value has them all exactly when it is at least *exponent*, and a
    negative one exactly when its unsigned bits are at least ``sign |
    exponent``. Viewed as signed, every negative value is below *exponent*,
    and unsigned, every positive one is below ``sign | exponent``.
    """
    sign = 1 << (8 * bits.itemsize - 1)
    signed = bits.view(f"<i{bits.itemsize}")
    return int(signed.max()) >= exponent or int(bits.max()) >= sign | exponent


def _encode(values: np.ndarray, dtype: str, name: str) -> np.ndarray:
    """Narrow float64 *values* to a new array of the storage dtype, one chunk
    at a time. BF16 rounds the float32 value to nearest even."""
    storage, unsigned, exponent = _LAYOUT[dtype]
    out = np.empty(values.size, dtype=storage)
    bits = out.view(unsigned)
    wide = np.empty(min(values.size, _CHUNK), dtype=np.uint32) if dtype == "BF16" else None
    for lo in range(0, values.size, _CHUNK):
        hi = min(lo + _CHUNK, values.size)
        with np.errstate(over="ignore"):
            if wide is None:
                out[lo:hi] = values[lo:hi]
            else:
                w, top = wide[: hi - lo], bits[lo:hi]
                w.view(np.float32)[...] = values[lo:hi]
                # add 0x7FFF plus the lowest kept bit, then keep the upper 16
                np.right_shift(w, 16, out=top, casting="unsafe")
                top &= 1
                w += top
                w += 0x7FFF
                w >>= 16
                top[...] = w
        if _any_nonfinite(bits[lo:hi], exponent):
            raise ValidationError(f"tensor '{name}': overflow for dtype {dtype}")
    return out


def _parse_header(raw: bytes, path: str) -> tuple[dict[str, TensorMeta], dict | None]:
    def reject_duplicates(pairs):
        d = {}
        for k, v in pairs:
            if k in d:
                raise FormatError(f"{path}: duplicate name '{k}' in header")
            d[k] = v
        return d

    try:
        header = json.loads(raw.decode("utf-8"), object_pairs_hook=reject_duplicates)
    # deep nesting overflows the decoder's recursion
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
        raise FormatError(f"{path}: malformed header ({e})") from e
    if not isinstance(header, dict):
        raise FormatError(f"{path}: header is not a JSON object")

    metadata = header.pop("__metadata__", None)
    if metadata is not None:
        if not isinstance(metadata, dict) or not all(
            isinstance(k, str) and isinstance(v, str) for k, v in metadata.items()
        ):
            raise FormatError(f"{path}: __metadata__ must map strings to strings")

    index: dict[str, TensorMeta] = {}
    for name, entry in header.items():
        if not isinstance(entry, dict):
            raise FormatError(f"{path}: entry for '{name}' is not an object")
        dtype = entry.get("dtype")
        if dtype not in DTYPE_SIZES:
            raise FormatError(f"{path}: unsupported dtype '{dtype}' for '{name}'")
        # bool is an int subclass, but true/false is never a size or offset
        shape = entry.get("shape")
        if not isinstance(shape, list) or not all(type(d) is int and d >= 0 for d in shape):
            raise FormatError(f"{path}: bad shape for '{name}'")
        offsets = entry.get("data_offsets")
        if (
            not isinstance(offsets, list)
            or len(offsets) != 2
            or not all(type(o) is int and o >= 0 for o in offsets)
            or offsets[1] < offsets[0]
        ):
            raise FormatError(f"{path}: bad data_offsets for '{name}'")
        meta = TensorMeta(name, dtype, tuple(shape), (offsets[0], offsets[1]))
        expected = meta.num_elements * DTYPE_SIZES[dtype]
        if meta.num_bytes != expected:
            raise FormatError(
                f"{path}: '{name}' declares {meta.num_bytes} bytes, "
                f"shape and dtype require {expected}"
            )
        index[name] = meta

    if not index:
        raise FormatError(f"{path}: checkpoint contains no tensors")

    spans = sorted((m.byte_range for m in index.values() if m.num_bytes), key=lambda r: r[0])
    for (b0, e0), (b1, _) in zip(spans, spans[1:]):
        if b1 < e0:
            raise FormatError(f"{path}: overlapping tensor ranges")
    return index, metadata


def open_checkpoint(path: str) -> CheckpointHandle:
    """Parse the header of *path*; no tensor payload is read."""
    file_size = os.path.getsize(path)
    with open(path, "rb") as f:
        prefix = f.read(_HEADER_LEN_BYTES)
        if len(prefix) < _HEADER_LEN_BYTES:
            raise FormatError(f"{path}: file too short for header length")
        header_len = int.from_bytes(prefix, "little")
        if header_len > _MAX_HEADER_LEN or _HEADER_LEN_BYTES + header_len > file_size:
            raise FormatError(f"{path}: header length {header_len} exceeds file size")
        raw = f.read(header_len)
    index, metadata = _parse_header(raw, path)

    data_start = _HEADER_LEN_BYTES + header_len
    data_len = file_size - data_start
    for meta in index.values():
        if meta.byte_range[1] > data_len:
            raise FormatError(f"{path}: truncated payload for '{meta.name}'")

    return CheckpointHandle(
        path=path,
        index=index,
        metadata=metadata,
        data_start=data_start,
        bytes_read=_HEADER_LEN_BYTES + header_len,
    )


def read_payload(
    handle: CheckpointHandle, name: str, lo: int, hi: int, file: BinaryIO, raw: bytearray
) -> np.ndarray:
    """Read stored elements ``lo .. hi-1`` of one tensor, undecoded, from
    *file*, open on the handle's path, into the head of *raw*. Returns them
    as unsigned integers of the storage width, a view of *raw* valid until
    the next read into it; the bytes count in ``handle.bytes_read``."""
    meta = handle.index.get(name)
    if meta is None:
        raise ValidationError(f"{handle.path}: no tensor named '{name}'")
    width = DTYPE_SIZES[meta.dtype]
    buf = memoryview(raw)[: (hi - lo) * width]
    file.seek(handle.data_start + meta.byte_range[0] + lo * width)
    if file.readinto(buf) != (hi - lo) * width:
        raise FormatError(f"{handle.path}: truncated payload for '{name}'")
    handle.bytes_read += buf.nbytes
    return np.frombuffer(buf, dtype=_LAYOUT[meta.dtype][1])


class RangeReader:
    """Checkpoints held open for one walk and read by element range.

    ``decode`` reads, checks and widens a range one chunk at a time, every
    chunk into one reused byte buffer of at most ``_CHUNK`` elements of the
    widest dtype, and no more than the largest tensor the inputs hold, so no
    stored copy of a whole tensor is made. Use it as a context manager:
    leaving it closes every file, on success and on error.
    """

    def __init__(self, handles: list[CheckpointHandle]):
        self.handles = handles
        self._files: list[BinaryIO] = []
        try:
            for handle in handles:
                self._files.append(open(handle.path, "rb"))
        except BaseException:
            self.close()
            raise
        metas = [m for h in handles for m in h.index.values()]
        self._step = max(1, min(max((m.num_elements for m in metas), default=1), _CHUNK))
        width = max((DTYPE_SIZES[m.dtype] for m in metas), default=1)
        self._raw = bytearray(self._step * width)

    def decode(self, i: int, name: str, lo: int, hi: int, out: np.ndarray) -> None:
        """Widen stored elements ``lo .. hi-1`` of tensor *name*, which input
        *i* holds, into the flat float64 *out* of ``hi - lo`` values, one
        chunk at a time, after checking each chunk's bits for inf and NaN."""
        handle = self.handles[i]
        dtype = handle.index[name].dtype
        storage, _, exponent = _LAYOUT[dtype]
        # BF16 widens through uint32 scratch
        wide = np.empty(min(hi - lo, self._step), dtype=np.uint32) if dtype == "BF16" else None
        for start in range(lo, hi, self._step):
            stop = min(start + self._step, hi)
            bits = read_payload(handle, name, start, stop, self._files[i], self._raw)
            if _any_nonfinite(bits, exponent):
                raise ValidationError(f"{handle.path}: non-finite value in '{name}'")
            piece = out[start - lo : stop - lo]
            if wide is None:
                piece[...] = bits.view(storage)
            else:
                w = wide[: stop - start]
                np.left_shift(bits, 16, out=w, dtype=np.uint32)
                piece[...] = w.view(np.float32)

    def close(self) -> None:
        for f in self._files:
            f.close()

    def __enter__(self) -> "RangeReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_tensor(handle: CheckpointHandle, name: str) -> TensorBuffer:
    """Decode one tensor to a new float64 array, exactly (F16/BF16 widen
    without loss). The stored bytes are read one chunk at a time, so no
    stored copy of the tensor is made. The merge and stats walks read by
    range through a ``RangeReader`` instead."""
    meta = handle.index.get(name)
    if meta is None:
        raise ValidationError(f"{handle.path}: no tensor named '{name}'")
    n = meta.num_elements
    values = np.empty(n)
    with RangeReader([handle]) as reader:
        reader.decode(0, name, 0, n, values)
    return TensorBuffer(name=name, shape=meta.shape, values=values)


class CheckpointWriter:
    """Incremental writer: declare all tensors up front, then stream values.

    Tensors must be supplied in sorted-name order (the declared layout),
    each whole (``write``) or in pieces (``append``).
    Data lands in a temp file ``<path>.<hex>.partial`` that is atomically
    renamed on close, so an aborted write never leaves a partial checkpoint
    behind. Nothing removes the temp file of a killed process: a sweep could
    not tell it from a live writer's.
    """

    def __init__(
        self,
        path: str,
        tensor_specs: list[tuple[str, tuple[int, ...], str]],
        metadata: dict[str, str] | None = None,
    ):
        if not tensor_specs:
            raise ValidationError("cannot write a checkpoint with no tensors")
        names = [name for name, _, _ in tensor_specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ValidationError(f"duplicate tensor names: {dupes}")
        for _, _, dtype in tensor_specs:
            if dtype not in DTYPE_SIZES:
                raise FormatError(f"unsupported dtype '{dtype}'")

        self.path = path
        self._order = sorted(tensor_specs, key=lambda s: s[0])
        header: dict = {}
        if metadata is not None:
            header["__metadata__"] = dict(sorted(metadata.items()))
        offset = 0
        self._specs: dict[str, tuple[tuple[int, ...], str, int]] = {}
        for name, shape, dtype in self._order:
            n = 1
            for d in shape:
                n *= d
            size = n * DTYPE_SIZES[dtype]
            header[name] = {
                "dtype": dtype,
                "shape": list(shape),
                "data_offsets": [offset, offset + size],
            }
            offset += size
            self._specs[name] = (tuple(shape), dtype, n)

        header_bytes = json.dumps(header, separators=(",", ":")).encode("utf-8")
        # a temp name of its own, so two writers to one path never share it;
        # "x" creates the file with the umask's mode, as "w" would
        self._tmp_path = f"{path}.{os.urandom(8).hex()}.partial"
        self._file = open(self._tmp_path, "xb")
        self._file.write(len(header_bytes).to_bytes(8, "little"))
        self._file.write(header_bytes)
        self._next = 0  # declared tensors begun
        self._current: str | None = None  # the last one begun
        self._left = 0  # its values not yet written

    def write(self, buf: TensorBuffer) -> None:
        """Write the next tensor whole."""
        self.append(buf.name, buf.shape, buf.values)

    def append(self, name: str, shape: tuple[int, ...], values: np.ndarray) -> None:
        """Append the flat float64 *values* to tensor *name* of the declared
        *shape*: the next values of the tensor being written, or the first
        of the next declared one. A tensor may come in any number of pieces;
        one left short fails at the next tensor or at ``close``. Any failure
        aborts the write."""
        try:
            if name != self._current:
                if self._left:
                    raise self._short()
                if self._next >= len(self._order):
                    raise ValidationError("all declared tensors already written")
                expected_name = self._order[self._next][0]
                if name != expected_name:
                    raise ValidationError(
                        f"tensors must be written in sorted order: got '{name}', "
                        f"expected '{expected_name}'"
                    )
                self._next += 1
                self._current, self._left = name, self._specs[name][2]
            declared, dtype, size = self._specs[name]
            if shape != declared:
                raise ValidationError(f"tensor '{name}': shape {shape} != declared {declared}")
            if values.size > self._left:
                raise ValidationError(
                    f"tensor '{name}': more than {size} values for shape {list(declared)}"
                )
            # this check, not _encode, is what rejects NaN: rounding to BF16
            # carries a float32 NaN of all-ones payload into the sign bit, so
            # _encode alone would write it as -0.0 (and its negative as +0.0).
            # max and min propagate NaN, so two reductions see every inf and
            # NaN with no mask array
            if values.size and not (np.isfinite(values.max()) and np.isfinite(values.min())):
                raise ValidationError(f"tensor '{name}': non-finite value")
            encoded = _encode(values, dtype, name)
        except Exception:
            self.abort()
            raise
        self._file.write(memoryview(encoded).cast("B"))
        self._left -= values.size

    def _short(self) -> ValidationError:
        size = self._specs[self._current][2]
        return ValidationError(
            f"tensor '{self._current}': only {size - self._left} of {size} values written"
        )

    def close(self) -> None:
        if self._file is None:
            return
        if self._left or self._next != len(self._order):
            self.abort()
            if self._left:
                raise self._short()
            raise ValidationError(
                f"only {self._next} of {len(self._order)} declared tensors written"
            )
        try:
            self._file.close()
            os.replace(self._tmp_path, self.path)
        except BaseException:
            self.abort()
            raise
        self._file = None

    def abort(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None
        if os.path.exists(self._tmp_path):
            os.unlink(self._tmp_path)


def write_checkpoint(
    path: str,
    tensors: list[tuple[TensorBuffer, str]],
    metadata: dict[str, str] | None = None,
) -> None:
    """Write (buffer, dtype) pairs; round-trips exactly after dtype narrowing."""
    specs = [(buf.name, buf.shape, dtype) for buf, dtype in tensors]
    writer = CheckpointWriter(path, specs, metadata)
    try:
        for buf, _ in sorted(tensors, key=lambda t: t[0].name):
            writer.write(buf)
    except Exception:
        writer.abort()
        raise
    writer.close()


@dataclass
class KeyReport:
    """Result of comparing tensor indices across checkpoints."""

    common: list[str]
    missing: dict[str, list[str]]  # name -> paths lacking it
    shape_mismatch: dict[str, dict[str, list[int]]]  # name -> path -> shape
    dtype_mismatch: dict[str, dict[str, str]]  # name -> path -> dtype

    @property
    def clean(self) -> bool:
        return not (self.missing or self.shape_mismatch or self.dtype_mismatch)

    def require(self, strict: bool) -> None:
        """Raise unless the checkpoints can be merged: shapes must always
        agree; strict mode also rejects any missing name or dtype drift."""
        if self.shape_mismatch:
            raise ValidationError(f"shape mismatch on: {sorted(self.shape_mismatch)}")
        if strict and not self.clean:
            problems = sorted(set(self.missing) | set(self.dtype_mismatch))
            raise ValidationError(f"checkpoints are not key-compatible: {problems}")

    def missing_from(
        self, base: CheckpointHandle, models: list[CheckpointHandle], task_ids: list[str]
    ) -> dict[str, list[str]]:
        """Names the base holds -> ids of the tasks whose models lack them."""
        return {
            name: [tid for tid, m in zip(task_ids, models) if m.path in absent]
            for name, absent in self.missing.items()
            if base.path not in absent
        }


def validate_compatibility(handles: list[CheckpointHandle]) -> KeyReport:
    """Report-only comparison of tensor names, shapes and dtypes.

    Callers decide strictness through ``KeyReport.require``: strict mode
    treats any entry in the report as fatal, lenient mode tolerates missing
    names.
    """
    if len(handles) < 2:
        raise ValidationError("compatibility check needs at least two checkpoints")
    all_names = sorted(set().union(*(h.index.keys() for h in handles)))
    common, missing = [], {}
    shape_mismatch: dict[str, dict[str, list[int]]] = {}
    dtype_mismatch: dict[str, dict[str, str]] = {}
    for name in all_names:
        absent = [h.path for h in handles if name not in h.index]
        if absent:
            missing[name] = absent
            continue
        common.append(name)
        shapes = {h.path: list(h.index[name].shape) for h in handles}
        if len({tuple(s) for s in shapes.values()}) > 1:
            shape_mismatch[name] = shapes
        dtypes = {h.path: h.index[name].dtype for h in handles}
        if len(set(dtypes.values())) > 1:
            dtype_mismatch[name] = dtypes
    return KeyReport(common, missing, shape_mismatch, dtype_mismatch)
