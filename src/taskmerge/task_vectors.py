"""Task vectors (fine-tuned minus base weights) and their streaming statistics.

The merge coefficients downstream need only the squared norms of the task
vectors, and those are accumulated tensor-by-tensor in 64-bit reals, so whole
checkpoints never have to be resident. The pairwise Gram matrix (for the
cosine-similarity diagnostic) is opt-in because it forces all task diffs for
a tensor to be live at once.

Reduction order is fixed: numpy's deterministic pairwise reduction within a
tensor, then a sequential fold over tensors in sorted-name order. Two runs
over the same files give bit-identical results. ``split`` cuts a tensor into
the nodes of numpy's pairwise tree and ``fold`` adds their sums back up the
same tree, so a sum taken node by node is still exactly ``np.sum(a * b)``.
Products are made one leaf (``_LEAF`` elements at most) at a time, and
``node_diffs`` walks a tensor one node (the codec's ``_CHUNK``) at a time,
reading the node by range from the base and from every model, so neither
makes a full-size temporary.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import jsonutil
from .errors import ValidationError
from .tensor_store import (
    _CHUNK,
    CheckpointHandle,
    RangeReader,
    read_tensor,
    validate_compatibility,
)

# Largest leaf of the blocked reduction: its product (128 KiB) stays in L2.
_LEAF = 2**14


@dataclass
class TaskVectorStats:
    task_ids: list[str]
    sq_norms: list[float]
    gram: np.ndarray | None = None
    missing_names: dict[str, list[str]] | None = None

    @property
    def num_tasks(self) -> int:
        return len(self.task_ids)

    def to_dict(self) -> dict:
        out: dict = {"tasks": list(self.task_ids), "sq_norms": list(self.sq_norms)}
        if self.gram is not None:
            out["cosine"] = cosine_matrix(self).values.tolist()
        return out

    def to_json(self, indent: int | None = None) -> str:
        return jsonutil.dumps(self.to_dict(), indent=indent)

    def digest(self) -> str:
        """Stable fingerprint of (task_ids, sq_norms), for audit trails."""
        canonical = jsonutil.dumps(
            {"tasks": list(self.task_ids), "sq_norms": list(self.sq_norms)}
        )
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@dataclass
class CosineMatrix:
    task_ids: list[str]
    values: np.ndarray


def _half(n: int) -> int:
    """Where numpy's pairwise sum splits a node of n elements."""
    n2 = n // 2
    return n2 - n2 % 8


def split(n: int, limit: int = _CHUNK, lo: int = 0) -> Iterator[tuple[int, int]]:
    """The ranges ``[lo, hi)`` of the largest nodes of numpy's pairwise sum
    over *n* elements that hold at most *limit* each, in order.

    Each node is a subtree that numpy also sums on its own, so ``fold`` of
    the node sums is exactly the sum over all n elements.
    """
    if n <= limit:
        yield lo, lo + n
        return
    n2 = _half(n)
    yield from split(n2, limit, lo)
    yield from split(n - n2, limit, lo + n2)


def fold(n: int, sums: Iterable[float], limit: int = _CHUNK) -> float:
    """Add the node sums of ``split(n, limit)``, given in its order, up the
    same tree."""
    sums = iter(sums)  # an iterator is its own iter, so the halves share it
    if n <= limit:
        return next(sums)
    n2 = _half(n)
    return fold(n2, sums, limit) + fold(n - n2, sums, limit)


def blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``float(np.sum(a * b))`` bit for bit, for flat float64 arrays of one
    size, with the products made one leaf of at most ``_LEAF`` at a time."""
    # np.add.reduce is the reduction np.sum runs, without its Python wrapper
    leaves = split(a.size, _LEAF)
    return fold(a.size, (float(np.add.reduce(a[lo:hi] * b[lo:hi])) for lo, hi in leaves), _LEAF)


def working_buffer(base: CheckpointHandle) -> np.ndarray:
    """An uninitialized flat float64 buffer the size of *base*'s largest
    tensor, for ``read_tensor(..., out=)`` to decode every tensor into.

    Held for one walk and dropped with it: a fresh full-size array per read
    costs its page faults every time.
    """
    return np.empty(max(meta.num_elements for meta in base.index.values()))


def task_diffs(
    name: str, base_values: np.ndarray, models: list[CheckpointHandle]
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, model_t[name] - base) for each model that holds *name*.

    Each diff is a new array, taken in place on its freshly decoded values,
    and the next model is read only when the caller asks for it; a model
    lacking the name is skipped (it contributes zero).
    """
    for t, model in enumerate(models):
        if name in model.index:
            diff = read_tensor(model, name).values
            diff -= base_values
            yield t, diff


def node_diffs(
    reader: RangeReader, name: str
) -> Iterator[tuple[int, np.ndarray, Iterator[tuple[int, np.ndarray]]]]:
    """Walk tensor *name* node by node: yield (lo, base node, diffs) for
    each node ``[lo, hi)`` of ``split(n)``, where diffs yields (t,
    model_t[name][lo:hi] - base[lo:hi]) for each model that holds *name*.

    Input 0 of *reader* is the base and input t + 1 is model t. Each node is
    read by range from every input and decoded into one of two node-sized
    arrays, the base's and the diffs', so the caller must be done with a
    diff before asking for the next one; no tensor-sized array is made.
    """
    base, models = reader.handles[0], reader.handles[1:]
    holders = [t for t, model in enumerate(models) if name in model.index]
    n = base.index[name].num_elements
    base_node, diff = np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK))

    def diffs(lo, b):
        for t in holders:
            v = diff[: b.size]
            reader.decode(t + 1, name, lo, lo + b.size, v)
            v -= b
            yield t, v

    for lo, hi in split(n):
        b = base_node[: hi - lo]
        reader.decode(0, name, lo, hi, b)
        yield lo, b, diffs(lo, b)


class StatsAccumulator:
    """Accumulates squared norms (and optionally the Gram matrix) of task
    vectors, one tensor at a time. Works from file streams or raw arrays.

    Norms-only callers can feed one task diff at a time via ``add_partial``,
    or one node of it at a time via ``add_node`` and then ``fold_nodes``;
    the Gram path needs every task's diff for a tensor at once, via
    ``add_tensor``.
    """

    def __init__(self, task_ids: list[str], want_gram: bool = False):
        if not task_ids:
            raise ValidationError("need at least one task")
        self.task_ids = list(task_ids)
        t = len(task_ids)
        self._sq = np.zeros(t, dtype=np.float64)
        self._gram = np.zeros((t, t), dtype=np.float64) if want_gram else None
        self._nodes: dict[int, list[float]] = {}

    def add_partial(self, t: int, diff: np.ndarray) -> None:
        self._sq[t] += blocked_dot(diff, diff)

    def add_node(self, t: int, node: np.ndarray) -> None:
        """Take the squared sum of task t's next node of ``split(n)``."""
        self._nodes.setdefault(t, []).append(blocked_dot(node, node))

    def fold_nodes(self, n: int) -> None:
        """Fold each task's node sums of one tensor of n elements up the
        pairwise tree, as ``add_partial`` of the whole diff would."""
        for t, sums in self._nodes.items():
            self._sq[t] += fold(n, sums)
        self._nodes.clear()

    def add_tensor(self, diffs: dict[int, np.ndarray]) -> None:
        """Fold one tensor's task diffs in. Absent indices contribute zero."""
        for t in sorted(diffs):
            self.add_partial(t, diffs[t])
        if self._gram is not None:
            idx = sorted(diffs)
            for a, i in enumerate(idx):
                for j in idx[a + 1 :]:
                    p = blocked_dot(diffs[i], diffs[j])
                    self._gram[i, j] += p
                    self._gram[j, i] += p

    def finalize(self) -> TaskVectorStats:
        if self._gram is not None:
            # off-diagonals were accumulated pairwise; the diagonal is the
            # squared norm itself, computed once in add_partial
            np.fill_diagonal(self._gram, self._sq)
        return TaskVectorStats(
            task_ids=self.task_ids,
            sq_norms=self._sq.tolist(),
            gram=self._gram,
        )


def compute_stats(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    want_gram: bool = False,
    strict: bool = True,
    task_ids: list[str] | None = None,
) -> TaskVectorStats:
    """Stream task-vector statistics for *models* against *base*.

    Strict mode rejects any name drift; lenient mode lets tensors missing
    from a model contribute zero to its statistics (they are reported in
    ``missing_names``). Shape mismatches on common names are always fatal.
    Without the Gram matrix the walk is node-major, as a merge's: each node
    is read by range from every input, so memory does not grow with any
    tensor. The Gram pairs need the base tensor and every task's diff of a
    tensor at once.
    """
    if not models:
        raise ValidationError("need at least one model")
    if task_ids is None:
        task_ids = default_task_ids(models)
    elif len(task_ids) != len(models):
        raise ValidationError("task_ids and models length mismatch")

    report = validate_compatibility([base] + models)
    report.require(strict)

    acc = StatsAccumulator(task_ids, want_gram)
    if want_gram:
        base_work = working_buffer(base)
        for name in sorted(base.index):
            base_values = read_tensor(base, name, out=base_work).values
            # the Gram pairs need every diff of a tensor at once
            acc.add_tensor(dict(task_diffs(name, base_values, models)))
    else:
        with RangeReader([base, *models]) as reader:
            for name in sorted(base.index):
                for _, _, diffs in node_diffs(reader, name):
                    for t, v in diffs:
                        acc.add_node(t, v)
                acc.fold_nodes(base.index[name].num_elements)
    stats = acc.finalize()
    stats.missing_names = report.missing_from(base, models, task_ids) or None
    return stats


def stats_from_arrays(
    task_ids: list[str], vectors: list[np.ndarray], want_gram: bool = False
) -> TaskVectorStats:
    """Statistics of in-memory task vectors (one flat array per task)."""
    flat = {t: np.asarray(v, dtype=np.float64).reshape(-1) for t, v in enumerate(vectors)}
    if want_gram and len({v.size for v in flat.values()}) > 1:
        raise ValidationError("Gram statistics need task vectors of one length")
    acc = StatsAccumulator(task_ids, want_gram)
    acc.add_tensor(flat)
    return acc.finalize()


def cosine_matrix(stats: TaskVectorStats) -> CosineMatrix:
    """Pairwise cosine similarities gram[i,j] / sqrt(sq_norms[i]*sq_norms[j])."""
    if stats.gram is None:
        raise ValidationError("cosine matrix requires gram statistics")
    sq = np.asarray(stats.sq_norms, dtype=np.float64)
    if np.any(sq <= 0.0):
        bad = [stats.task_ids[i] for i in np.nonzero(sq <= 0.0)[0]]
        raise ValidationError(f"degenerate task vector (zero norm): {bad}")
    scale = np.sqrt(np.outer(sq, sq))
    return CosineMatrix(list(stats.task_ids), stats.gram / scale)


def default_task_ids(models: list[CheckpointHandle]) -> list[str]:
    """Task labels from file stems; disambiguated by index on collision."""
    ids = [os.path.splitext(os.path.basename(m.path))[0] for m in models]
    if len(set(ids)) != len(ids):
        ids = [f"{s}#{i}" for i, s in enumerate(ids)]
    return ids
