"""Task vectors (fine-tuned minus base weights) and their streaming statistics.

The merge coefficients downstream need only the squared norms of the task
vectors, and those are accumulated tensor-by-tensor in 64-bit reals, so whole
checkpoints never have to be resident. The pairwise Gram matrix (for the
cosine-similarity diagnostic) is opt-in because it forces all task diffs for
a tensor to be live at once.

Reduction order is fixed: numpy's deterministic pairwise reduction within a
tensor, then a sequential fold over tensors in sorted-name order. Two runs
over the same files give bit-identical results. Within a tensor the products
are made one leaf of numpy's pairwise tree (``_LEAF`` elements at most) at a
time, so a reduction makes no full-size temporary and still returns exactly
``np.sum(a * b)``.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import jsonutil
from .errors import ValidationError
from .tensor_store import CheckpointHandle, read_tensor, validate_compatibility

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


def blocked_dot(a: np.ndarray, b: np.ndarray) -> float:
    """``float(np.sum(a * b))`` bit for bit, for flat float64 arrays of one
    size, with the products made one leaf of at most ``_LEAF`` at a time.

    Nodes split as numpy's pairwise sum splits them (n2 = n // 2 rounded
    down to a multiple of 8), so every leaf is a subtree that numpy also sums
    on its own, and the leaf sums are added back up the same tree.
    """
    n = a.size
    if n <= _LEAF:
        return float(np.sum(a * b))
    n2 = n // 2
    n2 -= n2 % 8
    return blocked_dot(a[:n2], b[:n2]) + blocked_dot(a[n2:], b[n2:])


def working_buffer(base: CheckpointHandle) -> np.ndarray:
    """An uninitialized flat float64 buffer the size of *base*'s largest
    tensor, for ``read_tensor(..., out=)`` to decode every tensor into.

    Held for one walk and dropped with it: a fresh full-size array per read
    costs its page faults every time.
    """
    return np.empty(max(meta.num_elements for meta in base.index.values()))


def task_diffs(
    name: str,
    base_values: np.ndarray,
    models: list[CheckpointHandle],
    out: np.ndarray | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (t, model_t[name] - base) for each model that holds *name*.

    Each diff is taken in place on its freshly decoded array, and the next
    model is read only when the caller asks for it, so one diff at a time is
    made; a model lacking the name is skipped (it contributes zero). Given
    *out*, every diff is decoded into its head, so each yielded diff is
    overwritten by the next one: the caller must be done with it, or have
    copied it, before asking for the next.
    """
    for t, model in enumerate(models):
        if name in model.index:
            diff = read_tensor(model, name, out=out).values
            diff -= base_values
            yield t, diff


class StatsAccumulator:
    """Accumulates squared norms (and optionally the Gram matrix) of task
    vectors, one tensor at a time. Works from file streams or raw arrays.

    Norms-only callers can feed one task diff at a time via ``add_partial``
    (so a single diff buffer is ever live); the Gram path needs every task's
    diff for a tensor at once, via ``add_tensor``.
    """

    def __init__(self, task_ids: list[str], want_gram: bool = False):
        if not task_ids:
            raise ValidationError("need at least one task")
        self.task_ids = list(task_ids)
        t = len(task_ids)
        self._sq = np.zeros(t, dtype=np.float64)
        self._gram = np.zeros((t, t), dtype=np.float64) if want_gram else None

    def add_partial(self, t: int, diff: np.ndarray) -> None:
        self._sq[t] += blocked_dot(diff, diff)

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
    Peak memory is a handful of single-tensor buffers, never a whole model.
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
    # the Gram pairs need every diff of a tensor at once, so only a
    # norms-only walk decodes its diffs into one reused buffer
    base_work = working_buffer(base)
    diff_work = None if want_gram else working_buffer(base)
    for name in sorted(base.index):
        base_values = read_tensor(base, name, out=base_work).values
        diffs = task_diffs(name, base_values, models, out=diff_work)
        if want_gram:
            acc.add_tensor(dict(diffs))
        else:
            for t, diff in diffs:
                acc.add_partial(t, diff)
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
