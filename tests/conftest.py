import tracemalloc

import numpy as np
import pytest

from taskmerge import TensorBuffer, write_checkpoint
from taskmerge.rng import CHUNK

# Headroom for the engine's per-block scratch (draws, masks, signs, codec
# chunks). It does not grow with the model.
SCRATCH = 1 << 20


def write_ckpt(path, arrays, dtype="F32", metadata=None):
    """Write {name: (shape-ful ndarray)} as a checkpoint file."""
    tensors = [
        (TensorBuffer(name, np.shape(arr), np.asarray(arr, dtype=np.float64).reshape(-1)), dtype)
        for name, arr in arrays.items()
    ]
    write_checkpoint(str(path), tensors, metadata=metadata)
    return str(path)


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees allocated while fn() runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def merge_peak_buffers(
    transform: str, tasks: int, stored_bytes: int, two_walks: bool, elements: int
) -> float:
    """The documented traced peak of a merge, before SCRATCH, in float64
    buffers of its largest tensor, of *elements* values. *stored_bytes* per
    element: 4 for F32, 2 for BF16. *two_walks*: the closed form takes norms
    before combining."""
    stored = stored_bytes / 8  # one raw read or encoded write
    if transform != "ties":
        return 2 + stored  # base, sum; each diff takes one node at a time
    if two_walks:
        # the norms walk holds the base, one diff and the magnitudes the trim
        # partitions; combining, the base, T raw reads and a decoded block
        # of each
        block = min(CHUNK, elements) / elements
        return max(3, 1 + tasks * (stored + block))
    # one walk: base, the last diff, its magnitudes and T - 1 raw reads
    return 3 + (tasks - 1) * stored


@pytest.fixture
def small_family(tmp_path):
    """A base and two fine-tuned models over two tensors, F32."""
    rng = np.random.default_rng(42)
    base = {"w.a": rng.standard_normal((4, 5)), "w.b": rng.standard_normal(7)}
    m1 = {k: v + 0.1 * rng.standard_normal(v.shape) for k, v in base.items()}
    m2 = {k: v + 0.2 * rng.standard_normal(v.shape) for k, v in base.items()}
    paths = {
        "base": write_ckpt(tmp_path / "base.st", base),
        "m1": write_ckpt(tmp_path / "m1.st", m1),
        "m2": write_ckpt(tmp_path / "m2.st", m2),
    }
    return paths, base, m1, m2
