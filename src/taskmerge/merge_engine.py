"""Streaming checkpoint merges: base + sum of scaled task vectors.

The engine walks the inputs tensor name by tensor name in sorted order, one
task diff at a time, and feeds each diff to one or both of two sinks:

  1. norms: squared norms of each task vector, raw and (when a TIES trim or
     a drop-and-rescale transform is configured) transformed;
  2. combine: out[name] = base[name] + sum_t lambda_t * tv_t[name], where
     TIES replaces the plain sum with sign election + disjoint merge.

The closed form needs every norm before it gives coefficients, so its merge
walks twice: norms only, then combine only. The norm-free methods and given
coefficients fix lambda before any tensor is read, so their merge walks
once, feeding both sinks, with the same norms and report.

Memory never grows with total model size, and without TIES not with the
size of any tensor. Without TIES the walk is node-major: for each node of
at most ``_CHUNK`` elements of numpy's pairwise tree, the base's range and
each task's range are read from inputs held open for the walk, decoded,
diffed, square-summed, dropped, scaled and added while in cache, and the
node of the sum is appended to the output before the next node is read.
TIES trims whole diffs: the base is decoded whole into a working buffer
allocated at the size of the largest tensor, once per run, and a walk that
takes norms decodes each diff into a second such buffer and trims it there,
recording the selection. Its combine holds no payload: one block of
``CHUNK`` elements at a time, it reads each task's block by range, decodes,
diffs and re-trims it from its selection, then elects signs on it.
Measured with tracemalloc, for float64 buffers B of the largest tensor, the
peak is at most:
  - no transform or DARE, any number of tasks: a fixed 2.5 MiB (2.4 MB
    measured) of node-sized arrays and one chunk of stored bytes, whatever
    the size of the tensors;
  - TIES: 3 * B plus a per-block scratch of 1 MiB that does not grow with
    the model. The norms walk holds the base, one diff and the magnitudes
    the trim partitions; combining holds the base, the diff buffer when the
    walk took norms, and one decoded block of each task.
Without TIES an input at fault is met node by node, so of two faulty inputs
of one tensor the error names the one whose fault comes first in (node,
task) order; TIES decodes each task's whole diff in task order.
TIES selects once per (task, tensor): the walk that trims a diff records
the selection, and a later walk rebuilds the same trim from it with one
compare per element and no partition.
Everything is deterministic: re-running a recipe with the same seed
produces byte-identical output files and reports.
"""

from __future__ import annotations

import math
import sys
import time
from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from . import jsonutil
from .coefficients import COEFFICIENT_METHODS, NORM_FREE_METHODS, NORM_METHODS, CoefficientSet
from .errors import RecipeError, ValidationError
from .rng import CHUNK, drop_threshold, stream_seed, uniform_stream
from .task_vectors import StatsAccumulator, node_diffs, working_buffer
from .tensor_store import (
    _CHUNK,
    CheckpointHandle,
    CheckpointWriter,
    RangeReader,
    TensorBuffer,
    open_checkpoint,
    read_tensor,
    validate_compatibility,
)

TRANSFORMS = ("none", "ties", "dare")
NORM_SOURCES = ("raw", "transformed")
OUTPUT_DTYPES = ("base", "F32")


@dataclass
class TaskSpec:
    id: str
    path: str


@dataclass
class MergeRecipe:
    base: str
    tasks: list[TaskSpec]
    output: str
    method: str = "metagpt"
    transform: str = "none"
    ties_density: float = 0.55
    dare_p: float = 0.5
    fixed_lambda: float = 0.3
    seed: int = 0
    strict_keys: bool = True
    norm_source: str = "transformed"
    output_dtype: str = "base"

    def validate(self) -> None:
        for key in ("base", "output"):
            if not isinstance(getattr(self, key), str):
                raise RecipeError(f"{key} must be a path string, got {getattr(self, key)!r}")
        if not self.tasks:
            raise RecipeError("recipe needs at least one task")
        ids = [t.id for t in self.tasks]
        if len(set(ids)) != len(ids):
            raise RecipeError("task ids must be unique")
        if self.method not in COEFFICIENT_METHODS:
            raise RecipeError(f"unknown method '{self.method}'")
        if self.transform not in TRANSFORMS:
            raise RecipeError(f"unknown transform '{self.transform}'")
        # bool is an int subclass, but true/false is never a meaningful number
        for key in ("ties_density", "dare_p", "fixed_lambda"):
            value = getattr(self, key)
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise RecipeError(f"{key} must be a number, got {value!r}")
        if not 0.0 < self.ties_density <= 1.0:
            raise RecipeError(f"density out of range (0, 1]: {self.ties_density}")
        if not 0.0 <= self.dare_p < 1.0:
            raise RecipeError(f"drop probability out of range [0, 1): {self.dare_p}")
        # an exact compare: float() of a huge JSON integer would overflow
        if not abs(self.fixed_lambda) <= sys.float_info.max:
            raise RecipeError("fixed_lambda must be finite")
        if (
            isinstance(self.seed, bool)
            or not isinstance(self.seed, int)
            or not 0 <= self.seed < 2**64
        ):
            raise RecipeError("seed must be an unsigned 64-bit integer")
        if not isinstance(self.strict_keys, bool):
            raise RecipeError(f"strict_keys must be true or false, got {self.strict_keys!r}")
        if self.norm_source not in NORM_SOURCES:
            raise RecipeError(f"unknown norm_source '{self.norm_source}'")
        if self.output_dtype not in OUTPUT_DTYPES:
            raise RecipeError(f"unknown output_dtype '{self.output_dtype}'")

    def to_dict(self) -> dict:
        return {
            "base": self.base,
            "tasks": [{"id": t.id, "path": t.path} for t in self.tasks],
            "method": self.method,
            "transform": self.transform,
            "ties_density": self.ties_density,
            "dare_p": self.dare_p,
            "fixed_lambda": self.fixed_lambda,
            "seed": self.seed,
            "strict_keys": self.strict_keys,
            "norm_source": self.norm_source,
            "output": self.output,
            "output_dtype": self.output_dtype,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MergeRecipe":
        if not isinstance(data, dict):
            raise RecipeError("recipe must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise RecipeError(f"unknown recipe keys: {unknown}")
        for key in ("base", "tasks", "output"):
            if key not in data:
                raise RecipeError(f"recipe is missing required key '{key}'")
        raw_tasks = data["tasks"]
        if not isinstance(raw_tasks, list):
            raise RecipeError("tasks must be a list of {id, path}")
        tasks = []
        for entry in raw_tasks:
            if not isinstance(entry, dict) or set(entry) != {"id", "path"}:
                raise RecipeError(f"bad task entry: {entry!r}")
            for key in ("id", "path"):
                if not isinstance(entry[key], str):
                    raise RecipeError(f"task {key} must be a string, got {entry[key]!r}")
            tasks.append(TaskSpec(entry["id"], entry["path"]))
        kwargs = {k: v for k, v in data.items() if k not in ("tasks",)}
        kwargs["tasks"] = tasks
        try:
            recipe = cls(**kwargs)
        except TypeError as e:
            raise RecipeError(f"bad recipe: {e}") from e
        recipe.validate()
        return recipe


@dataclass
class MergeReport:
    recipe: dict
    coefficients: dict
    raw_sq_norms: list[float]
    transformed_sq_norms: list[float] | None
    tensor_count: int
    skipped_names: list[str]
    missing_names: dict[str, list[str]]
    wall_time_s: float = field(default=0.0, compare=False)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "recipe": self.recipe,
            "coefficients": self.coefficients,
            "sq_norms": {"raw": self.raw_sq_norms},
            "tensor_count": self.tensor_count,
            "skipped_names": self.skipped_names,
            "missing_names": self.missing_names,
        }
        if self.transformed_sq_norms is not None:
            out["sq_norms"]["transformed"] = self.transformed_sq_norms
        if include_timing:
            # wall time varies run to run, so the canonical report omits it
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, indent: int | None = None, include_timing: bool = False) -> str:
        return jsonutil.dumps(self.to_dict(include_timing), indent=indent)


def ties_trim(values: np.ndarray, density: float) -> tuple[float, int] | None:
    """Keep the ceil(density * n) largest-magnitude elements of the flat
    float64 array *values* and zero the rest, in place.

    O(n): ``np.partition`` finds the k-th largest magnitude ``thr``; every
    element with ``|v| > thr`` is kept, and the remaining slots go to the
    elements with ``|v| == thr``, lowest flat index first. That is the order
    of a stable descending sort by magnitude, so the result does not depend
    on how the partition breaks ties. Dropped elements become +0.0; kept
    ones, -0.0 included, are left as they are. Values must be finite, as
    every tensor the engine reads is.

    Returns the selection ``(thr, last)``, where ``last`` is the flat index
    of the last kept tie: ``_zero_unselected(copy, thr, last)`` trims an
    unchanged copy of *values* to the same bytes without a partition. When
    ceil(density * n) >= n nothing is dropped and the result is None.
    """
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density out of range (0, 1]: {density}")
    n = values.size
    k = math.ceil(density * n)
    if k >= n:
        return None
    mag = np.abs(values)
    mag.partition(n - k)
    thr = float(mag[n - k])
    # every magnitude above thr sits after position n - k. Less thr, those
    # are the nonzeros there (a - thr == 0 only if a == thr for finite a),
    # so the slots left for ties are counted with no mask. The tail is a
    # view: both go, or it keeps |v| alive
    tail = mag[n - k + 1 :]
    tail -= thr
    need = k - np.count_nonzero(tail)
    del mag, tail
    last = -1
    scratch = np.empty(min(CHUNK, n))
    for start in range(0, n, CHUNK):
        block = values[start : start + CHUNK]
        mag = np.abs(block, out=scratch[: block.size])
        ties = np.flatnonzero(mag == thr)
        if ties.size >= need:
            last = start + int(ties[need - 1])
            break
        need -= ties.size
    _zero_unselected(values, thr, last)
    return thr, last


def _zero_unselected(values: np.ndarray, thr: float, last: int) -> None:
    """Zero, in place, what the selection ``(thr, last)`` of ``ties_trim``
    drops: ``|v| < thr`` at flat indices up to *last* and ``|v| <= thr``
    after it. One ``CHUNK``-element block of magnitudes at a time; a
    negative *last*, or one past the end, keeps no tie or every tie."""
    m = min(CHUNK, values.size)
    mag, keep, mask = np.empty(m), np.empty(m, dtype=bool), np.empty(m, dtype=np.uint64)
    for start in range(0, values.size, CHUNK):
        block = values[start : start + CHUNK]
        k = block.size
        np.abs(block, out=mag[:k])
        # ties up to last are kept; split is where the later ones start
        split = min(max(last + 1 - start, 0), k)
        np.greater_equal(mag[:split], thr, out=keep[:split])
        np.greater(mag[split:k], thr, out=keep[split:k])
        _keep_only(block, keep[:k], mask[:k])


def _keep_only(values: np.ndarray, keep: np.ndarray, mask: np.ndarray) -> None:
    """Zero the elements of *values* where the bool array *keep* is False,
    in place and with no branch per element: their bits are ANDed with
    *mask*, uint64 scratch of the same size, made all ones where *keep*
    holds. A dropped element becomes +0.0, as under ``np.putmask(values,
    ~keep, 0.0)``, and a kept one keeps its bits, -0.0 included."""
    np.copyto(mask, keep)
    np.negative(mask, out=mask)  # 1 -> all ones
    bits = values.view(np.uint64)
    bits &= mask


def dare_transform(
    values: np.ndarray, p: float, stream_key: tuple[int, int, str], offset: int = 0
) -> None:
    """Drop elements of the flat float64 array *values* with probability p
    and rescale the survivors by 1/(1-p), in place.

    *values* holds elements ``offset ..`` of its tensor. Element e is
    dropped iff draw z_e of a SplitMix64 stream keyed by (seed, task_index,
    tensor_name) is below ``drop_threshold(p)``, which is the same as its
    uniform z_e * 2**-64 being below p. Dropped elements become
    +0.0, and each survivor is divided once by (1 - p). The array is walked
    in blocks of ``CHUNK`` elements, so the draws and the drop mask never
    take more than one block's memory. p = 0 changes nothing and draws no
    stream. The result is unbiased in expectation.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"drop probability out of range [0, 1): {p}")
    if p == 0.0:
        return
    stream = stream_seed(*stream_key)
    # a numpy scalar: numpy 1.x compares uint64 with a Python int above 2**63
    # as float64, which would move the threshold
    threshold = np.uint64(drop_threshold(p))
    for start in range(0, values.size, CHUNK):
        block = values[start : start + CHUNK]
        drop = uniform_stream(stream, block.size, offset + start) < threshold
        block /= 1.0 - p
        # putmask, not block[drop] = 0.0: the boolean-index assignment is
        # about a third slower on masks this dense
        np.putmask(block, drop, 0.0)


def _walk(
    reader: RangeReader,
    recipe: MergeRecipe,
    work: tuple[np.ndarray, np.ndarray | None] | None,
    selections: dict[tuple[int, str], tuple[float, int] | None],
    norms: tuple[StatsAccumulator, StatsAccumulator | None] | None = None,
    combine: tuple[list[float], CheckpointWriter] | None = None,
) -> None:
    """One streaming walk over (tensor name, task diffs) in sorted-name order.

    Input 0 of *reader* is the base and input t + 1 is task t. Each diff goes
    to the sinks given:
      - norms (raw, transformed): squared norms of the diff and of the
        transformed diff before it is scaled (None: no transform);
      - combine (lambdas, writer): writes base + sum_t lambda_t * tv_t.

    Without TIES the walk is node-major, nodes of ``split`` outside and
    tasks inside. Each task's node sums fold up the pairwise tree and every
    element gets base + lambda_0 * tv_0 + lambda_1 * tv_1 + ... in task
    order, so norms and sum are the bits a whole-tensor walk gives.

    With TIES the base is decoded whole into the first *work* buffer and the
    tensor goes through ``_ties_sum``, which trims each whole diff in the
    second when it takes norms and needs no such buffer when it only
    combines. *selections* maps (t, name) to what ``ties_trim`` selected.
    The walk that takes norms trims and records it; a combining walk without
    norms rebuilds the same trim from it, block by block, with no partition.
    """
    raw, transformed = norms or (None, None)
    lambdas, writer = combine or (None, None)
    base = reader.handles[0]
    ties = recipe.transform == "ties"
    sum_work = np.empty(_CHUNK) if writer is not None and not ties else None
    for name in sorted(base.index):
        meta = base.index[name]
        if ties:
            base_buf = read_tensor(base, name, out=work[0])
            out = _ties_sum(reader, name, base_buf.values, recipe, work[1], selections,
                            raw, transformed, lambdas)
            if writer is not None:
                writer.write(TensorBuffer(name, meta.shape, out))
            continue
        for lo, base_node, diffs in node_diffs(reader, name):
            if writer is not None:
                node_sum = sum_work[: base_node.size]
                np.copyto(node_sum, base_node)
            for t, v in diffs:
                if raw is not None:
                    raw.add_node(t, v)
                if recipe.transform == "dare":
                    dare_transform(v, recipe.dare_p, (recipe.seed, t, name), lo)
                if transformed is not None:
                    transformed.add_node(t, v)
                if writer is not None:
                    v *= lambdas[t]
                    node_sum += v
            if writer is not None:
                writer.append(name, meta.shape, node_sum)
        for acc in (raw, transformed):
            if acc is not None:
                acc.fold_nodes(meta.num_elements)


def _ties_sum(
    reader: RangeReader,
    name: str,
    base_values: np.ndarray,
    recipe: MergeRecipe,
    diff_work: np.ndarray | None,
    selections: dict[tuple[int, str], tuple[float, int] | None],
    raw: StatsAccumulator | None,
    transformed: StatsAccumulator | None,
    lambdas: list[float] | None,
) -> np.ndarray:
    """Norms and, given *lambdas*, the TIES merge of one tensor onto
    *base_values* in place.

    Taking norms, each task's diff is decoded whole into *diff_work*,
    square-summed, trimmed (its selection recorded) and square-summed again.
    Combining holds no payload and no diff: ``_elect`` takes one block at a
    time, for which each task's block is read by range, decoded, diffed and
    trimmed again by replaying its selection. A walk that takes norms too
    reads its last task no second time, as that task's trimmed diff is
    still whole in *diff_work*.
    """
    n = base_values.size
    holders = [t for t, model in enumerate(reader.handles[1:]) if name in model.index]
    if raw is not None:
        diff = diff_work[:n]
        for t in holders:
            reader.decode(t + 1, name, 0, n, diff)
            diff -= base_values
            raw.add_partial(t, diff)
            selections[t, name] = ties_trim(diff, recipe.ties_density)
            if transformed is not None:
                transformed.add_partial(t, diff)
    if lambdas is None or not holders:
        return base_values
    replayed = holders if raw is None else holders[:-1]
    tasks = [(lambdas[t], _replay(reader, t, name, base_values, selections[t, name]))
             for t in replayed]
    if raw is not None:
        tasks.append((lambdas[holders[-1]], lambda lo, hi: diff_work[lo:hi]))
    _elect(base_values, tasks)
    return base_values


def _replay(
    reader: RangeReader,
    t: int,
    name: str,
    base_values: np.ndarray,
    selection: tuple[float, int] | None,
) -> Callable[[int, int], np.ndarray]:
    """A fetch for ``_elect``: task t's diff over ``[lo, hi)``, read by
    range and decoded into a block of its own, less the base, and trimmed
    as *selection* says."""
    node_work = np.empty(min(CHUNK, base_values.size))

    def fetch(lo: int, hi: int) -> np.ndarray:
        node = node_work[: hi - lo]
        reader.decode(t + 1, name, lo, hi, node)
        node -= base_values[lo:hi]
        if selection is not None:
            thr, last = selection
            _zero_unselected(node, thr, last - lo)
        return node

    return fetch


def _elect(
    out: np.ndarray, tasks: list[tuple[float, Callable[[int, int], np.ndarray]]]
) -> None:
    """TIES sign election and disjoint merge onto *out*, in place, one
    ``CHUNK``-element block at a time. *tasks* holds (lambda_t, fetch_t) in
    task order; ``fetch_t(lo, hi)`` returns the trimmed diff tv_t over
    ``[lo, hi)`` in an array the election may scale and zero. Every task's
    block is fetched before *out*'s block changes.

    Per element, in task order: s = sum_t lambda_t * tv_t from zero, then
    out += lambda_t * tv_t where tv_t and s are both positive or both
    negative, and out += +0.0 elsewhere. For finite values that is the
    election ``sign(tv_t) == sign(s) != 0``. The compares take the unscaled
    tv_t, since lambda_t * tv_t may underflow to zero, and the zeroing ANDs
    bits, so no step branches per element.
    """
    m = min(CHUNK, out.size)
    scratch = [np.empty(m), np.empty(m), np.empty(m, dtype=np.uint64)]
    scratch += [np.empty(m, dtype=bool) for _ in range(4)]
    for lo in range(0, out.size, CHUNK):
        hi = min(lo + CHUNK, out.size)
        s, tmp, mask, pos, neg, hit, below = (a[: hi - lo] for a in scratch)
        blocks = [(lam, fetch(lo, hi)) for lam, fetch in tasks]
        s.fill(0.0)
        for lam, v in blocks:
            np.multiply(lam, v, out=tmp)
            s += tmp
        np.greater(s, 0.0, out=pos)
        np.less(s, 0.0, out=neg)
        for lam, v in blocks:
            np.greater(v, 0.0, out=hit)
            hit &= pos
            np.less(v, 0.0, out=below)
            below &= neg
            hit |= below
            v *= lam
            _keep_only(v, hit, mask)
            out[lo:hi] += v


def run_recipe(
    recipe: MergeRecipe, coeffs_override: CoefficientSet | None = None
) -> tuple[CheckpointHandle, MergeReport]:
    """Execute a merge recipe; returns the output handle and its report.

    Any failure aborts with no partial output file left behind.
    """
    recipe.validate()
    t0 = time.perf_counter()
    base = open_checkpoint(recipe.base)
    models = [open_checkpoint(t.path) for t in recipe.tasks]
    task_ids = [t.id for t in recipe.tasks]
    # given coefficients are applied by position, so their ids must line up
    if coeffs_override is not None and coeffs_override.task_ids != task_ids:
        raise ValidationError(
            f"coefficients are for tasks {coeffs_override.task_ids}, recipe has {task_ids}"
        )

    report = validate_compatibility([base] + models)
    report.require(recipe.strict_keys)
    # names present in some model but absent from the base cannot be merged
    skipped = sorted(n for n, absent in report.missing.items() if base.path in absent)

    raw = StatsAccumulator(task_ids)
    transformed = StatsAccumulator(task_ids) if recipe.transform != "none" else None
    norms = (raw, transformed)
    # TIES decodes the base whole, and trims each whole diff in a second
    # buffer; other merges read one node at a time
    work = None
    if recipe.transform == "ties":
        work = (working_buffer(base), working_buffer(base))
    selections: dict[tuple[int, str], tuple[float, int] | None] = {}
    coeffs = coeffs_override
    if coeffs is None and recipe.method in NORM_FREE_METHODS:
        coeffs = NORM_FREE_METHODS[recipe.method](task_ids, recipe.fixed_lambda)
    specs = [
        (name, meta.shape, "F32" if recipe.output_dtype == "F32" else meta.dtype)
        for name, meta in base.index.items()
    ]
    with RangeReader([base, *models]) as reader:
        if coeffs is None:
            # the coefficients read norms: take them all before combining
            _walk(reader, recipe, work, selections, norms=norms)
            use_raw = recipe.norm_source == "raw" or transformed is None
            coeffs = NORM_METHODS[recipe.method]((raw if use_raw else transformed).finalize())
            norms = None
            if work is not None:
                # without norms, combining replays each trim block by block:
                # the diff buffer goes first
                work = (work[0], None)
        writer = CheckpointWriter(recipe.output, specs, metadata=base.metadata)
        try:
            _walk(reader, recipe, work, selections,
                  norms=norms, combine=(coeffs.lambdas, writer))
        except Exception:
            writer.abort()
            raise
    writer.close()

    merge_report = MergeReport(
        recipe=recipe.to_dict(),
        coefficients=coeffs.to_dict(),
        raw_sq_norms=raw.finalize().sq_norms,
        transformed_sq_norms=(
            transformed.finalize().sq_norms if transformed is not None else None
        ),
        tensor_count=len(base.index),
        skipped_names=skipped,
        missing_names=report.missing_from(base, models, task_ids),
        wall_time_s=time.perf_counter() - t0,
    )
    return open_checkpoint(recipe.output), merge_report
