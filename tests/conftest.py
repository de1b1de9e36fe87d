import os
import tracemalloc

import numpy as np
import pytest

from taskmerge import TensorBuffer, write_checkpoint

# Headroom for the engine's per-block scratch (draws, masks, signs, codec
# chunks). It does not grow with the model.
SCRATCH = 1 << 20

# Traced peaks of a walk node by node, in bytes: the node-sized float64
# arrays (base and diff, plus the sum when merging), one chunk of stored
# bytes, and the scratch of the codec, the reduction and the draws. Taken
# from the measured peaks, 2.38-2.45 MB for plain and DARE merges and
# 1.65-1.71 MB for compute_stats without the Gram matrix, at 2**20 and
# 2**22 elements alike. A peak more than NODE_PEAK_SLACK below its figure
# fails too, so the figure stays tight.
NODE_MERGE_PEAK = 5 << 19  # 2.5 MiB
NODE_STATS_PEAK = 7 << 18  # 1.75 MiB
NODE_PEAK_SLACK = 3 << 17  # 384 KiB


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


def merge_peak_range(transform: str, elements: int) -> tuple[int, int]:
    """The documented traced peak of a merge whose largest tensor holds
    *elements* values, as the (lowest, highest) bytes a measurement may
    show. Without TIES the walk goes node by node and the peak is a fixed
    figure, whatever the tensors' size. TIES holds three float64 buffers of
    the largest tensor: the base, one diff and the magnitudes the trim
    partitions; the lowest is 0.1 buffer below that."""
    if transform != "ties":
        return NODE_MERGE_PEAK - NODE_PEAK_SLACK, NODE_MERGE_PEAK
    buffer = 8 * elements
    return int(2.9 * buffer), 3 * buffer + SCRATCH


@pytest.fixture(autouse=True)
def no_leaked_fds():
    """Fail a test that leaves more file descriptors open than it found.
    Counts /proc/self/fd, so the check runs on Linux only."""
    if not os.path.isdir("/proc/self/fd"):
        yield
        return
    before = len(os.listdir("/proc/self/fd"))
    yield
    after = len(os.listdir("/proc/self/fd"))
    if after > before:
        pytest.fail(f"{after - before} file descriptor(s) left open")


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
