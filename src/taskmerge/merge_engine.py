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

Memory never grows with total model size, nor with the size of any
tensor. Without TIES a merge runs the walk of ``compute_stats``,
``task_vectors._walk_nodes``, with DARE as its transform: node by node,
each input's range is read, diffed, square-summed, dropped, scaled and
added while in cache, and the sum's node is appended before the next node
is read. A TIES trim keeps the k largest magnitudes of a diff, and a
``selection.Selection`` finds the k-th exactly in passes over the nodes,
with one fixed buffer of candidates: its first pass rides in the sweep
that reads a task for its raw norm, and a later sweep re-reads the task
to trim it and take its transformed norm (see ``_ties_norms``). TIES selects once per (task,
tensor) and records the selection; combining rebuilds the same trim from
it with one compare per element, one block of ``CHUNK`` elements at a
time, and elects signs there.
Measured with tracemalloc, the peak is at most a fixed figure, whatever the
size of the tensors:
  - no transform or DARE, any number of tasks: 2.1875 MiB (2.12-2.22 MB
    measured) of node-sized arrays and one chunk of stored bytes;
  - TIES: 2.3125 MiB (2.16-2.35 MB measured at one to eight tasks, 2**20
    and 2**22 elements) of node-sized arrays, the selection's buffer and
    scratch. Combining holds one block per task, and the blocks shrink
    past four tasks, so a merge that walks once stays inside that figure.
An input at fault is met in read order: node by node, so of two faulty
inputs of one tensor the error names the one whose fault comes first in
(node, task) order; with TIES in (sweep, node) order, where sweep i reads
the base and tasks i - 1 and i, and a further pass of task i's selection
re-reads the base and task i before sweep i + 1.
Everything is deterministic: re-running a recipe with the same seed
produces byte-identical output files and reports.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import jsonutil
from .coefficients import COEFFICIENT_METHODS, NORM_FREE_METHODS, NORM_METHODS, CoefficientSet
from .errors import RecipeError, ValidationError
from .rng import CHUNK, drop_threshold, stream_seed, uniform_stream
from .selection import Selection
from .task_vectors import StatsAccumulator, _walk_nodes, read_diff, split
from .tensor_store import (
    _CHUNK,
    CheckpointHandle,
    CheckpointWriter,
    RangeReader,
    open_checkpoint,
    read_tensor,  # noqa: F401 (the engine reads by range; bench/spans.py wraps this name)
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
        # the OS takes no path with a NUL in it
        for path in (self.base, self.output, *(t.path for t in self.tasks)):
            if isinstance(path, str) and "\0" in path:
                raise RecipeError(f"path {path!r} contains a NUL character")
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

    O(n), with the engine's pieces: a ``selection.Selection`` finds the
    k-th largest magnitude ``thr`` in passes over the nodes of
    ``split(n)``; every element with ``|v| > thr`` is kept, and the
    remaining slots go to the elements with ``|v| == thr``, lowest flat
    index first. That is the order of a stable descending sort by
    magnitude. Dropped elements become +0.0; kept ones, -0.0 included, are
    left as they are. Values must be finite, as every tensor the engine
    reads is: a NaN or an infinity raises ValidationError.

    Returns the selection ``(thr, last)``, where ``last`` is the flat index
    of the last kept tie: ``_trim_node(copy, 0, thr, 0, last)`` trims an
    unchanged copy of *values* to the same bytes. When ceil(density * n) >=
    n nothing is dropped and the result is None.
    """
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density out of range (0, 1]: {density}")
    n = values.size
    k = math.ceil(density * n)
    if k >= n:
        return None
    scratch = np.empty(min(n, _CHUNK))

    def magnitudes():
        for lo, hi in split(n):
            yield np.abs(values[lo:hi], out=scratch[: hi - lo])

    select = Selection(n, k)
    for mag in magnitudes():
        # NaN fails every compare, so no count would ever reach k
        if not mag.max() <= sys.float_info.max:
            raise ValidationError("ties_trim needs finite values")
        select.add(mag)
    thr, need = select.finish(magnitudes)
    _, last = _trim_node(values, 0, thr, need, -1)
    return thr, last


def _trim_node(
    v: np.ndarray, lo: int, thr: float, need: int, last: int
) -> tuple[int, int]:
    """Trim, in place, elements ``lo ..`` of a diff, *v*, to the selection
    of threshold *thr*, once the elements before *lo* are trimmed: keep
    ``|v| > thr`` and the ties ``|v| == thr`` in flat order while *need* of
    them are still to keep. Once *need* is 0, *last* is the flat index of
    the last kept tie. One ``CHUNK``-element block of magnitudes at a time,
    the ties are counted until that one is found. Returns the new ``(need,
    last)``.

    With *need* 0 this replays a recorded selection ``(thr, last)`` with no
    partition: it zeroes ``|v| < thr`` at flat indices up to *last* and
    ``|v| <= thr`` after it, so a negative *last*, or one past the end,
    keeps no tie or every tie."""
    m = min(CHUNK, v.size)
    mag, keep, mask = np.empty(m), np.empty(m, dtype=bool), np.empty(m, dtype=np.uint64)
    for start in range(0, v.size, CHUNK):
        block = v[start : start + CHUNK]
        k = block.size
        np.abs(block, out=mag[:k])
        if need:
            ties = np.flatnonzero(mag[:k] == thr)
            if ties.size < need:
                need -= ties.size
            else:
                need, last = 0, lo + start + int(ties[need - 1])
        # ties up to last are kept, and all of them while some are needed;
        # split is where the dropped ones start
        split = k if need else min(max(last + 1 - lo - start, 0), k)
        np.greater_equal(mag[:split], thr, out=keep[:split])
        np.greater(mag[split:k], thr, out=keep[split:k])
        _keep_only(block, keep[:k], mask[:k])
    return need, last


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
    selections: dict[tuple[int, str], tuple[float, int] | None],
    norms: tuple[StatsAccumulator, StatsAccumulator | None] | None = None,
    combine: tuple[list[float], CheckpointWriter] | None = None,
) -> None:
    """One walk of a merge over *reader*, input 0 the base and input t + 1
    task t, feeding the sinks given, norms (raw, transformed) and combine
    (lambdas, writer), as the module docstring says.

    Without TIES this is ``_walk_nodes``. With TIES, ``_ties_norms`` takes
    the norms and records in *selections*, under (t, name), what each trim
    selected. ``_ties_combine`` then replays every trim from its selection,
    block by block.
    """
    raw, transformed = norms or (None, None)
    if recipe.transform != "ties":
        def dare(t, name, lo, v):  # looks dare_transform up per call, as its wrappers need
            dare_transform(v, recipe.dare_p, (recipe.seed, t, name), lo)

        _walk_nodes(reader, raw, transformed, dare if recipe.transform == "dare" else None, combine)
        return
    lambdas, writer = combine or (None, None)
    for name in sorted(reader.handles[0].index):
        holders = [t for t, model in enumerate(reader.handles[1:]) if name in model.index]
        if raw is not None:
            _ties_norms(reader, name, holders, recipe.ties_density, selections, raw, transformed)
        if writer is not None:
            _ties_combine(reader, name, holders, lambdas, selections, writer)


def _ties_norms(
    reader: RangeReader,
    name: str,
    holders: list[int],
    density: float,
    selections: dict[tuple[int, str], tuple[float, int] | None],
    raw: StatsAccumulator,
    transformed: StatsAccumulator,
) -> None:
    """Both norms of each held task's diff of tensor *name*, node by node,
    and the selection of each trim, in ``len(holders) + 1`` sweeps over
    ``split(n)``.

    Sweep i decodes each base node once and does two jobs on it. It
    finishes task i - 1: re-reads the task's node, diffs it, trims it as
    ``ties_trim`` would and square-sums it. It starts task i: reads the
    node, diffs it, square-sums it and counts its magnitudes in the first
    pass of task i's ``Selection``. Should that pass not settle the
    selection, further passes re-read the base and task i, node by node,
    before sweep i + 1. Nothing tensor-sized is held, and an input at fault
    is met in (sweep, node) order.
    """
    n = reader.handles[0].index[name].num_elements
    k = math.ceil(density * n)
    base_node, node = np.empty(min(n, _CHUNK)), np.empty(min(n, _CHUNK))
    select = Selection(n, k) if k < n else None

    def magnitudes(t):
        for lo, hi in split(n):
            b = base_node[: hi - lo]
            reader.decode(0, name, lo, hi, b)
            v = read_diff(reader, t, name, lo, b, node[: hi - lo])
            yield np.abs(v, out=v)

    for i in range(len(holders) + 1 if holders else 0):
        if select is not None and i < len(holders):
            select.restart()
        for lo, hi in split(n):
            b = base_node[: hi - lo]
            reader.decode(0, name, lo, hi, b)
            if i:
                v = read_diff(reader, holders[i - 1], name, lo, b, node[: hi - lo])
                if select is not None:
                    need, last = _trim_node(v, lo, thr, need, last)
                transformed.add_node(holders[i - 1], v)
            if i < len(holders):
                v = read_diff(reader, holders[i], name, lo, b, node[: hi - lo])
                raw.add_node(holders[i], v)
                if select is not None:
                    select.add(np.abs(v, out=v))
        if i:
            selections[holders[i - 1], name] = (thr, last) if select is not None else None
        if i < len(holders) and select is not None:
            (thr, need), last = select.finish(lambda: magnitudes(holders[i])), -1
    raw.fold_nodes(n)
    transformed.fold_nodes(n)


def _ties_combine(
    reader: RangeReader,
    name: str,
    holders: list[int],
    lambdas: list[float],
    selections: dict[tuple[int, str], tuple[float, int] | None],
    writer: CheckpointWriter,
) -> None:
    """Write the TIES merge of tensor *name* one block at a time: decode the
    base's block, replay each held task's trimmed diff there, elect signs
    and append the block. A block is ``CHUNK`` elements for up to four held
    tasks and shrinks past that, so the blocks held at once never pass
    ``4 * CHUNK`` elements, whatever the number of tasks. Nothing
    tensor-sized is held. A tensor with no elements is appended once,
    empty, so the writer still begins it."""
    meta = reader.handles[0].index[name]
    n = meta.num_elements
    step = CHUNK * 4 // max(len(holders), 4)
    base_block = np.empty(min(step, n))
    blocks = [np.empty(min(step, n)) for _ in holders]
    for lo in range(0, max(n, 1), step):
        hi = min(lo + step, n)
        out = base_block[: hi - lo]
        reader.decode(0, name, lo, hi, out)
        held = []
        for t, block in zip(holders, blocks):
            v = read_diff(reader, t, name, lo, out, block[: hi - lo])
            if selections[t, name] is not None:
                thr, last = selections[t, name]
                _trim_node(v, 0, thr, 0, last - lo)
            held.append((lambdas[t], v))
        _elect(out, held)
        writer.append(name, meta.shape, out)


def _elect(out: np.ndarray, held: list[tuple[float, np.ndarray]]) -> None:
    """TIES sign election and disjoint merge onto *out*, in place. *held*
    holds (lambda_t, tv_t) in task order, trimmed diffs of *out*'s size
    that the election scales and zeroes.

    Per element, in task order: s = sum_t lambda_t * tv_t from zero, then
    out += lambda_t * tv_t where tv_t and s are both positive or both
    negative, and out += +0.0 elsewhere. For finite values that is the
    election ``sign(tv_t) == sign(s) != 0``. The compares take the unscaled
    tv_t, since lambda_t * tv_t may underflow to zero, and the zeroing ANDs
    bits, so no step branches per element.
    """
    m = out.size
    s, tmp, mask = np.zeros(m), np.empty(m), np.empty(m, dtype=np.uint64)
    pos, neg, hit, below = (np.empty(m, dtype=bool) for _ in range(4))
    for lam, v in held:
        np.multiply(lam, v, out=tmp)
        s += tmp
    np.greater(s, 0.0, out=pos)
    np.less(s, 0.0, out=neg)
    for lam, v in held:
        np.greater(v, 0.0, out=hit)
        hit &= pos
        np.less(v, 0.0, out=below)
        below &= neg
        hit |= below
        v *= lam
        _keep_only(v, hit, mask)
        out += v


def run_recipe(
    recipe: MergeRecipe, coeffs_override: CoefficientSet | None = None
) -> tuple[CheckpointHandle, MergeReport]:
    """Execute a merge recipe; returns the output handle and its report.

    Any failure aborts with no partial output file left behind.
    """
    recipe.validate()
    # the output replaces its path only after the walk has read every input,
    # so an output that is an input under another spelling would be lost
    if os.path.exists(recipe.output):
        for path in (recipe.base, *(t.path for t in recipe.tasks)):
            if os.path.exists(path) and os.path.samefile(recipe.output, path):
                raise RecipeError(f"output {recipe.output} is input {path}")
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
            _walk(reader, recipe, selections, norms=norms)
            use_raw = recipe.norm_source == "raw" or transformed is None
            coeffs = NORM_METHODS[recipe.method]((raw if use_raw else transformed).finalize())
            norms = None
        writer = CheckpointWriter(recipe.output, specs, metadata=base.metadata)
        try:
            _walk(reader, recipe, selections, norms=norms, combine=(coeffs.lambdas, writer))
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
