import os
import tracemalloc

import numpy as np
import pytest

from taskmerge import TensorBuffer, write_checkpoint
from taskmerge.tensor_store import _CHUNK

# Headroom for the engine's per-block scratch (draws, masks, signs, codec
# chunks). It does not grow with the model.
SCRATCH = 1 << 20

# Traced peaks of a walk node by node, in bytes: the node-sized float64
# arrays (base and diff, plus the sum when merging), one chunk of stored
# bytes, and the scratch of the codec, the reduction and the draws. Taken
# from the measured peaks, 2.02-2.11 MiB for plain and DARE merges and
# 1.42-1.53 MiB for compute_stats without the Gram matrix, at 2**20 and
# 2**22 elements alike. The Gram matrix decodes each task's diff into a
# float64 row of a node of its own, one row more per task past the first.
# A TIES merge selects in passes over the nodes, with one fixed
# buffer of candidate magnitudes beside its two node arrays (2.06-2.24 MiB
# measured, BF16 and F32, one to eight tasks, 2**20 and 2**22 elements). A
# peak more than NODE_PEAK_SLACK below its figure fails too, so the figure
# stays tight.
NODE_MERGE_PEAK = 35 << 16  # 2.1875 MiB
NODE_STATS_PEAK = 13 << 17  # 1.625 MiB
TIES_PEAK = 37 << 16  # 2.3125 MiB
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


def merge_peak_range(transform: str) -> tuple[int, int]:
    """The documented traced peak of a merge, as the (lowest, highest) bytes
    a measurement may show. Every merge walks node by node, so the peak is
    a fixed figure, whatever the tensors' size; TIES holds its own."""
    figure = TIES_PEAK if transform == "ties" else NODE_MERGE_PEAK
    return figure - NODE_PEAK_SLACK, figure


def stats_peak_range(tasks: int, want_gram: bool) -> tuple[int, int]:
    """The documented traced peak of ``compute_stats`` over *tasks* models,
    as the (lowest, highest) bytes a measurement may show. The walk goes
    node by node, so the peak is a fixed figure, whatever the tensors' size;
    the Gram pairs add one float64 row of a node per task past the first."""
    figure = NODE_STATS_PEAK + ((tasks - 1) * 8 * _CHUNK if want_gram else 0)
    return figure - NODE_PEAK_SLACK, figure


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
