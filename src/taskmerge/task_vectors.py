"""Task vectors (fine-tuned minus base weights) and their streaming statistics.

The merge coefficients downstream need only the squared norms of the task
vectors, and those are accumulated tensor-by-tensor in 64-bit reals, so whole
checkpoints never have to be resident. The pairwise Gram matrix (for the
cosine-similarity diagnostic) is opt-in. Statistics and every merge but a
TIES one run one node walk, ``_walk_nodes``.

Reduction order is fixed: numpy's deterministic pairwise reduction within a
tensor, then a sequential fold over tensors in sorted-name order. Two runs
over the same files give bit-identical results. ``split`` cuts a tensor into
the nodes of numpy's pairwise tree and ``fold`` adds their sums back up the
same tree, so a sum taken node by node is still exactly ``np.sum(a * b)``.
Products are made one leaf (``_LEAF`` elements at most) at a time, and
every walk reads a tensor one node (the codec's ``_CHUNK``) at a time:
``read_diff`` decodes a model's range of the node and subtracts the base's,
so nothing makes a full-size temporary.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from . import jsonutil
from .errors import ValidationError
from .tensor_store import (
    _CHUNK,
    CheckpointHandle,
    CheckpointWriter,
    RangeReader,
    read_tensor,  # noqa: F401 (stats read by range; bench/spans.py wraps this name)
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


def read_diff(
    reader: RangeReader, t: int, name: str, lo: int, base_node: np.ndarray, out: np.ndarray
) -> np.ndarray:
    """Task t's diff of tensor *name* over elements ``lo ..`` of *out*'s
    size: input t + 1 of *reader* (input 0 is the base) decoded into *out*,
    less *base_node*, the base's values there. Returns *out*."""
    reader.decode(t + 1, name, lo, lo + out.size, out)
    out -= base_node
    return out


class StatsAccumulator:
    """Accumulates squared norms (and optionally the Gram matrix) of task
    vectors, one tensor at a time. Works from file streams or raw arrays.

    A walk feeds one node of ``split(n)`` at a time: each task's node via
    ``add_node`` and, for the Gram matrix, every held task's node of it at
    once via ``add_pairs``; ``fold_nodes`` then folds the tensor's node sums
    in. In memory, ``add_partial`` takes one whole task diff and
    ``add_tensor`` every task's diff of a tensor.
    """

    def __init__(self, task_ids: list[str], want_gram: bool = False):
        if not task_ids:
            raise ValidationError("need at least one task")
        if len(set(task_ids)) != len(task_ids):
            raise ValidationError(f"task ids must be unique: {list(task_ids)}")
        self.task_ids = list(task_ids)
        t = len(task_ids)
        self._sq = np.zeros(t, dtype=np.float64)
        self._gram = np.zeros((t, t), dtype=np.float64) if want_gram else None
        self._nodes: dict[int, list[float]] = {}
        self._pairs: dict[tuple[int, int], list[float]] = {}

    def add_partial(self, t: int, diff: np.ndarray) -> None:
        self._sq[t] += blocked_dot(diff, diff)

    def add_node(self, t: int, node: np.ndarray) -> None:
        """Take the squared sum of task t's next node of ``split(n)``."""
        self._nodes.setdefault(t, []).append(blocked_dot(node, node))

    def add_pairs(self, nodes: list[tuple[int, np.ndarray]]) -> None:
        """Take the product sum of each pair of the next nodes of
        ``split(n)``, given as (t, node) for each held task in task order."""
        for a, (i, u) in enumerate(nodes):
            for j, v in nodes[a + 1 :]:
                self._pairs.setdefault((i, j), []).append(blocked_dot(u, v))

    def fold_nodes(self, n: int) -> None:
        """Fold each task's and each pair's node sums of one tensor of n
        elements up the pairwise tree, as ``add_tensor`` of the whole diffs
        would."""
        for t, sums in self._nodes.items():
            self._sq[t] += fold(n, sums)
        self._nodes.clear()
        for (i, j), sums in self._pairs.items():
            p = fold(n, sums)
            self._gram[i, j] += p
            self._gram[j, i] += p
        self._pairs.clear()

    def add_tensor(self, diffs: dict[int, np.ndarray]) -> None:
        """Fold one tensor's task diffs in, whole. Absent indices contribute
        zero."""
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
            # squared norm itself, computed once per task
            np.fill_diagonal(self._gram, self._sq)
        return TaskVectorStats(
            task_ids=self.task_ids,
            sq_norms=self._sq.tolist(),
            gram=self._gram,
        )


def _walk_nodes(
    reader: RangeReader,
    raw: StatsAccumulator | None,
    transformed: StatsAccumulator | None = None,
    transform: Callable[[int, str, int, np.ndarray], None] | None = None,
    combine: tuple[list[float], CheckpointWriter] | None = None,
) -> None:
    """The node walk of ``compute_stats`` and of every merge but TIES, over
    (tensor name, task diffs) in sorted-name order. Input 0 of *reader* is
    the base and input t + 1 is task t.

    Nodes of ``split`` are outside and tasks inside, in node arrays made
    once for the walk. Each diff goes to *raw*, through transform(t, name,
    lo, diff) in place, to *transformed*, then, scaled, into the sum that
    combine (lambdas, writer) appends. When *raw* keeps the Gram matrix,
    each diff of a node has a row of its own, and its pairs are taken after
    the sinks, so they are raw pairs only in a walk with no transform and
    no combine, such as ``compute_stats``'s. Node sums fold up the pairwise
    tree and the sum adds tasks in order, so the bits are a whole-tensor
    walk's, and an input at fault is met in (node, task) order.
    """
    lambdas, writer = combine or (None, None)
    gram = raw is not None and raw._gram is not None
    base = reader.handles[0]
    largest = max((meta.num_elements for meta in base.index.values()), default=0)
    # the base's node, the diffs' and, when combining, the sum's
    rows = 1 + (len(reader.handles) - 1 if gram else 1) + (writer is not None)
    nodes = np.empty((rows, min(largest, _CHUNK)))
    for name in sorted(base.index):
        meta = base.index[name]
        holders = [t for t, model in enumerate(reader.handles[1:]) if name in model.index]
        for lo, hi in split(meta.num_elements):
            b = nodes[0, : hi - lo]
            reader.decode(0, name, lo, hi, b)
            if writer is not None:
                node_sum = nodes[-1, : hi - lo]
                np.copyto(node_sum, b)
            held = []
            for t in holders:
                v = read_diff(reader, t, name, lo, b, nodes[1 + t if gram else 1, : hi - lo])
                if raw is not None:
                    raw.add_node(t, v)
                if transform is not None:
                    transform(t, name, lo, v)
                if transformed is not None:
                    transformed.add_node(t, v)
                if writer is not None:
                    v *= lambdas[t]
                    node_sum += v
                held.append((t, v))
            if gram:
                raw.add_pairs(held)
            if writer is not None:
                writer.append(name, meta.shape, node_sum)
        for acc in (raw, transformed):
            if acc is not None:
                acc.fold_nodes(meta.num_elements)


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
    This is the node walk of a merge, ``_walk_nodes``, with no transform and
    nothing to combine, so memory does not grow with any tensor.
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
    with RangeReader([base, *models]) as reader:
        _walk_nodes(reader, acc)
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
