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

Memory never grows with total model size. The base and the plain sum
live in working buffers allocated at the size of the largest tensor, once
per run or walk, so their pages are not faulted in again on every read.
Without TIES a task diff is never whole: each task's tensor is read raw and
decoded, diffed, dropped and added one node of at most ``_CHUNK`` elements
at a time. TIES trims whole diffs: a walk that takes norms decodes each one
into a diff buffer allocated like the others and trims it there, recording
the selection. Its combine holds each task's raw read instead of its diff
and takes one block of ``CHUNK`` elements at a time: it decodes, diffs and
re-trims every task's block from its selection, then elects signs on it.
Measured with tracemalloc in float64 buffers B of the largest tensor, for T
tasks stored with s bytes per element (4 for F32, 2 for BF16), the peak is
at most the figure below plus a per-block scratch of 1 MiB that does not
grow with the model:
  - no transform or DARE, any T: (2 + s/8) * B, the base and the sum plus
    one stored copy from a raw read or an encoded write;
  - TIES with the closed form: max(3 * B, (1 + T * s/8) * B + T blocks).
    The norms walk holds the base, one diff and the magnitudes the trim
    partitions. The diff buffer goes before combining, which holds the
    base, T raw reads and one decoded block of each;
  - TIES with a norm-free method or given coefficients: (3 + (T-1) * s/8)
    * B, the base, the diff and its magnitudes as the last task is trimmed,
    and the raw reads of the T - 1 others. That task's trimmed diff is still
    whole when the walk combines, so it is not read again.
TIES selects once per (task, tensor): the walk that trims a diff records
the selection, and a later walk rebuilds the same trim from it with one
compare per element and no partition.
Everything is deterministic: re-running a recipe with the same seed
produces byte-identical output files and reports.
"""

from __future__ import annotations

import functools
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
from .task_vectors import (
    StatsAccumulator,
    blocked_dot,
    fold,
    task_nodes,
    working_buffer,
)
from .tensor_store import (
    CheckpointHandle,
    CheckpointWriter,
    Payload,
    TensorBuffer,
    open_checkpoint,
    read_payload,
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
    stream, threshold = _stream_and_threshold(p, stream_key)
    for start in range(0, values.size, CHUNK):
        block = values[start : start + CHUNK]
        drop = uniform_stream(stream, block.size, offset + start) < threshold
        block /= 1.0 - p
        # putmask, not block[drop] = 0.0: the boolean-index assignment is
        # about a third slower on masks this dense
        np.putmask(block, drop, 0.0)


@functools.lru_cache(maxsize=1)
def _stream_and_threshold(
    p: float, stream_key: tuple[int, int, str]
) -> tuple[int, np.uint64]:
    """The stream of *stream_key* and the draw threshold of *p*. A walk
    drops the nodes of one (task, tensor) in a row, so the one cached entry
    derives both once per (task, tensor), not once per node."""
    # a numpy scalar: numpy 1.x compares uint64 with a Python int above 2**63
    # as float64, which would move the threshold
    return stream_seed(*stream_key), np.uint64(drop_threshold(p))


def _walk(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    work: tuple[np.ndarray, np.ndarray | None],
    selections: dict[tuple[int, str], tuple[float, int] | None],
    norms: tuple[StatsAccumulator, StatsAccumulator | None] | None = None,
    combine: tuple[list[float], CheckpointWriter] | None = None,
) -> None:
    """One streaming walk over (tensor name, task diffs) in sorted-name order.

    Each diff goes to the sinks given:
      - norms (raw, transformed): squared norms of the diff and of the
        transformed diff before it is scaled (None: no transform);
      - combine (lambdas, writer): writes base + sum_t lambda_t * tv_t.

    The base lives in the head of the first *work* buffer, which every
    tensor reuses. Without TIES, each tensor goes through ``_node_sum``;
    with it, through ``_ties_sum``, which trims each whole diff in the
    second *work* buffer when it takes norms and needs no such buffer when
    it only combines.

    *selections* maps (t, name) to what ``ties_trim`` selected. The walk
    that takes norms trims and records it; a combining walk without norms
    rebuilds the same trim from it, block by block, with no partition.
    """
    raw, transformed = norms or (None, None)
    lambdas, writer = combine or (None, None)
    base_work, diff_work = work
    ties = recipe.transform == "ties"
    sum_work = working_buffer(base) if writer is not None and not ties else None
    for name in sorted(base.index):
        base_buf = read_tensor(base, name, out=base_work)
        if ties:
            out = _ties_sum(name, base_buf.values, models, recipe, diff_work, selections,
                            raw, transformed, lambdas)
        else:
            out = _node_sum(name, base_buf.values, models, recipe, raw, transformed,
                            lambdas, sum_work)
        if writer is not None:
            writer.write(TensorBuffer(name, base_buf.shape, out))


def _node_sum(
    name: str,
    base_values: np.ndarray,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    raw: StatsAccumulator | None,
    transformed: StatsAccumulator | None,
    lambdas: list[float] | None,
    sum_work: np.ndarray | None,
) -> np.ndarray | None:
    """Norms and, given *lambdas*, base + sum_t lambda_t * tv_t of one
    tensor with no transform or DARE, in the head of *sum_work*.

    Tasks go in the outer loop and the nodes of ``split`` in the inner one:
    each node is decoded, diffed, square-summed, dropped, square-summed
    again, scaled and added while it is in cache, and each task's node sums
    are folded up the pairwise tree. Every step is elementwise, so norms
    and sum are the bits a whole-tensor diff would give.
    """
    n = base_values.size
    out = None
    if lambdas is not None:
        out = sum_work[:n]
        np.copyto(out, base_values)
    for t, nodes in task_nodes(name, base_values, models):
        raw_sums, transformed_sums = [], []
        for lo, node in nodes:
            if raw is not None:
                raw_sums.append(blocked_dot(node, node))
            if recipe.transform == "dare":
                dare_transform(node, recipe.dare_p, (recipe.seed, t, name), lo)
            if transformed is not None:
                transformed_sums.append(blocked_dot(node, node))
            if out is not None:
                node *= lambdas[t]
                out[lo : lo + node.size] += node
        if raw is not None:
            raw.add_sq(t, fold(n, raw_sums))
        if transformed is not None:
            transformed.add_sq(t, fold(n, transformed_sums))
    return out


def _ties_sum(
    name: str,
    base_values: np.ndarray,
    models: list[CheckpointHandle],
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
    Combining holds each task's raw payload, not its diff: ``_elect`` takes
    one block at a time, for which each payload is decoded, diffed and
    trimmed again by replaying its selection. A walk that takes norms too
    reads its last task no second time, as that task's trimmed diff is
    still whole in *diff_work*. A payload that is not held goes before the
    trim partitions.
    """
    n = base_values.size
    holders = [t for t, model in enumerate(models) if name in model.index]
    held = []
    for t in holders:
        payload = read_payload(models[t], name)
        if raw is None:
            held.append((t, payload))
            continue
        diff = diff_work[:n]
        payload.decode(0, n, diff)
        diff -= base_values
        if lambdas is not None and t != holders[-1]:
            held.append((t, payload))
        del payload  # unless held, before the partition adds |v|
        raw.add_partial(t, diff)
        selections[t, name] = ties_trim(diff, recipe.ties_density)
        if transformed is not None:
            transformed.add_partial(t, diff)
    if lambdas is None or not holders:
        return base_values
    tasks = [(lambdas[t], _replay(payload, base_values, selections[t, name]))
             for t, payload in held]
    if raw is not None:
        tasks.append((lambdas[holders[-1]], lambda lo, hi: diff_work[lo:hi]))
    _elect(base_values, tasks)
    return base_values


def _replay(
    payload: Payload, base_values: np.ndarray, selection: tuple[float, int] | None
) -> Callable[[int, int], np.ndarray]:
    """A fetch for ``_elect``: the diff of *payload* over ``[lo, hi)``,
    decoded into a block of its own, less the base, and trimmed as
    *selection* says."""
    node_work = np.empty(min(CHUNK, base_values.size))

    def fetch(lo: int, hi: int) -> np.ndarray:
        node = node_work[: hi - lo]
        payload.decode(lo, hi, node)
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
    # TIES trims each whole diff in a second full-size buffer; other diffs
    # take one node at a time
    work = (working_buffer(base), working_buffer(base) if recipe.transform == "ties" else None)
    selections: dict[tuple[int, str], tuple[float, int] | None] = {}
    coeffs = coeffs_override
    if coeffs is None and recipe.method in NORM_FREE_METHODS:
        coeffs = NORM_FREE_METHODS[recipe.method](task_ids, recipe.fixed_lambda)
    if coeffs is None:
        # the coefficients read norms: take them all before combining anything
        _walk(base, models, recipe, work, selections, norms=norms)
        use_raw = recipe.norm_source == "raw" or transformed is None
        coeffs = NORM_METHODS[recipe.method]((raw if use_raw else transformed).finalize())
        norms = None
        # without norms, combining replays each trim block by block: the
        # diff buffer goes before the payloads are read
        work = (work[0], None)

    specs = [
        (name, meta.shape, "F32" if recipe.output_dtype == "F32" else meta.dtype)
        for name, meta in base.index.items()
    ]
    writer = CheckpointWriter(recipe.output, specs, metadata=base.metadata)
    try:
        _walk(
            base, models, recipe, work, selections,
            norms=norms, combine=(coeffs.lambdas, writer),
        )
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
