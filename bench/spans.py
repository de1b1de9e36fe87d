"""In-memory spans around the public functions of each taskmerge layer.

The benchmark installs these wrappers from its own code for the traced run
only; the untraced run never imports this module. Each span records its
parent, so a layer's self time is its duration minus its wrapped children.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict

MIB = 1 << 20


def _targets():
    """(owner, attribute, span name, before, after) for every wrapped call.

    The work a span did is after(...) - before(...), both taken on the
    call's arguments; after also sees the result."""
    from taskmerge import merge_engine, task_vectors, tensor_store

    def handle_bytes(a, k, out=None):
        return a[0].bytes_read

    def file_size(a, k, out=None):
        return os.path.getsize(a[0].path)

    def result_size(a, k, out):
        return out.size

    writer, acc = tensor_store.CheckpointWriter, task_vectors.StatsAccumulator
    return [
        (merge_engine, "read_tensor", "tensor_store.read", handle_bytes, handle_bytes),
        (task_vectors, "read_tensor", "tensor_store.read", handle_bytes, handle_bytes),
        (tensor_store, "open_checkpoint", "tensor_store.open", None, None),
        (merge_engine, "open_checkpoint", "tensor_store.open", None, None),
        (merge_engine, "validate_compatibility", "tensor_store.validate", None, None),
        (task_vectors, "validate_compatibility", "tensor_store.validate", None, None),
        # constructing the writer marks the end of the engine's stats pass
        (writer, "__init__", "tensor_store.create", None, None),
        (writer, "write", "tensor_store.write", None, None),
        (writer, "close", "tensor_store.close", None, file_size),
        (acc, "add_partial", "task_vectors.add_partial", None, None),
        (acc, "add_tensor", "task_vectors.add_tensor", None, None),
        (merge_engine, "ties_trim", "merge_engine.ties_trim", None, None),
        (merge_engine, "dare_transform", "merge_engine.dare_transform", None, None),
        (merge_engine, "uniform_stream", "rng.uniform_stream", None, result_size),
    ]


class Tracer:
    """Records spans as [id, parent id, name, start, end, work]."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[list] = []
        self.patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        rec = [len(self.spans), parent, name, time.perf_counter(), 0.0, 0]
        self.spans.append(rec)
        self._stack.append(rec)
        return rec

    def _close(self, rec: list) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a root span of its own."""
        rec = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(rec)

    def _wrap(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = before(args, kwargs) if before else 0
            rec = self._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if after:
                rec[5] = after(args, kwargs, out) - start
            return out

        return traced

    def install(self) -> None:
        for owner, attr, name, before, after in _targets():
            original = vars(owner)[attr]
            self.patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self.patched):
            setattr(owner, attr, original)

    def restored(self) -> bool:
        """Whether every wrapped attribute is the original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self.patched)

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "start", "end", "work")
        with open(path, "w") as f:
            for rec in self.spans:
                f.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def per_root(self) -> list[dict[str, dict[str, float]]]:
        """For each root span, in order: span name -> total duration, self
        time, calls, work, first start and last end, over its subtree."""
        child = defaultdict(float)
        for rec in self.spans:
            if rec[1] >= 0:
                child[rec[1]] += rec[4] - rec[3]
        roots: list[dict] = []
        for rec in self.spans:
            if rec[1] < 0:
                roots.append({})
            agg = roots[-1].setdefault(rec[2], {
                "dur": 0.0, "self": 0.0, "calls": 0, "work": 0,
                "start": rec[3], "end": rec[4]})
            dur = rec[4] - rec[3]
            agg["dur"] += dur
            agg["self"] += dur - child[rec[0]]
            agg["calls"] += 1
            agg["work"] += rec[5]
            agg["end"] = rec[4]
        return roots


def layer_metrics(spans: dict[str, dict], root: str) -> dict[str, float]:
    """Per-layer metrics of one operation from its aggregated spans."""
    none = {"dur": 0.0, "self": 0.0, "calls": 0, "work": 0}

    def get(name):
        return spans.get(name, none)

    op = spans[root]
    read, create = get("tensor_store.read"), spans.get("tensor_store.create")
    is_merge = create is not None
    return {
        "tensor_store.read_s": read["dur"],
        "tensor_store.read_calls": read["calls"],
        "tensor_store.read_us_per_call": read["dur"] / read["calls"] * 1e6 if read["calls"] else 0.0,
        "tensor_store.read_mib": read["work"] / MIB,
        "tensor_store.write_s": get("tensor_store.write")["dur"] + get("tensor_store.close")["dur"],
        "tensor_store.write_mib": get("tensor_store.close")["work"] / MIB,
        "tensor_store.open_s": get("tensor_store.open")["dur"],
        "tensor_store.validate_s": get("tensor_store.validate")["dur"],
        "task_vectors.reduce_s": get("task_vectors.add_partial")["dur"],
        "task_vectors.reduce_calls": get("task_vectors.add_partial")["calls"],
        "task_vectors.gram_s": get("task_vectors.add_tensor")["self"],
        "task_vectors.stats_self_s": 0.0 if is_merge else op["self"],
        "rng.uniform_s": get("rng.uniform_stream")["dur"],
        "rng.draws": get("rng.uniform_stream")["work"],
        "merge_engine.ties_trim_s": get("merge_engine.ties_trim")["self"],
        "merge_engine.ties_trim_calls": get("merge_engine.ties_trim")["calls"],
        "merge_engine.dare_s": get("merge_engine.dare_transform")["self"],
        "merge_engine.dare_calls": get("merge_engine.dare_transform")["calls"],
        "merge_engine.stats_pass_s": create["start"] - op["start"] if is_merge else 0.0,
        "merge_engine.merge_pass_s": op["end"] - create["start"] if is_merge else 0.0,
        "merge_engine.self_s": op["self"] if is_merge else 0.0,
    }
