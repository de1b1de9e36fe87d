"""Streaming checkpoint merges: base + sum of scaled task vectors.

The pipeline runs two passes over the inputs, tensor name by tensor name in
sorted order:

  1. statistics: squared norms of each task vector, raw and (when a TIES
     trim or a drop-and-rescale transform is configured) transformed;
  2. combine: out[name] = base[name] + sum_t lambda_t * tv_t[name], where
     TIES replaces the plain sum with sign election + disjoint merge.

Coefficients come from the configured method between the passes. Peak
memory is bounded by T + 2 single-tensor buffers (base, the per-task
vectors for one name, one accumulator), never by total model size.
Everything is deterministic: re-running a recipe with the same seed
produces byte-identical output files and reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import jsonutil
from .coefficients import (
    CoefficientSet,
    fixed_coefficients,
    metagpt_coefficients,
    weight_average_coefficients,
)
from .errors import RecipeError, ValidationError
from .rng import stream_seed, uniform_stream
from .task_vectors import StatsAccumulator, TaskVectorStats
from .tensor_store import (
    CheckpointHandle,
    CheckpointWriter,
    TensorBuffer,
    open_checkpoint,
    read_tensor,
    validate_compatibility,
)

METHODS = ("weight_average", "task_arithmetic_fixed", "metagpt")
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
        if self.method not in METHODS:
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
        if not math.isfinite(self.fixed_lambda):
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
            tasks.append(TaskSpec(str(entry["id"]), str(entry["path"])))
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
    peak_live_buffers: int
    wall_time_s: float = field(default=0.0, compare=False)

    def to_dict(self, include_timing: bool = False) -> dict:
        out = {
            "recipe": self.recipe,
            "coefficients": self.coefficients,
            "sq_norms": {"raw": self.raw_sq_norms},
            "tensor_count": self.tensor_count,
            "skipped_names": self.skipped_names,
            "missing_names": self.missing_names,
            "peak_live_buffers": self.peak_live_buffers,
        }
        if self.transformed_sq_norms is not None:
            out["sq_norms"]["transformed"] = self.transformed_sq_norms
        if include_timing:
            # wall time varies run to run, so the canonical report omits it
            out["wall_time_s"] = self.wall_time_s
        return out

    def to_json(self, indent: int | None = None, include_timing: bool = False) -> str:
        return jsonutil.dumps(self.to_dict(include_timing), indent=indent)


class BufferCounter:
    """Tracks simultaneously live single-tensor buffers during a merge."""

    def __init__(self):
        self.live = 0
        self.peak = 0

    def acquire(self, n: int = 1) -> None:
        self.live += n
        self.peak = max(self.peak, self.live)

    def release(self, n: int = 1) -> None:
        self.live -= n


def ties_trim(tv: TensorBuffer, density: float) -> TensorBuffer:
    """Keep the ceil(density * n) largest-magnitude elements, zero the rest.

    O(n): ``np.partition`` finds the k-th largest magnitude ``thr``; every
    element with ``|v| > thr`` is kept, and the remaining slots go to the
    elements with ``|v| == thr``, lowest flat index first. That is the order
    of a stable descending sort by magnitude, so the output does not depend
    on how the partition breaks ties. Dropped elements are +0.0; kept ones,
    -0.0 included, are copied as they are. Values must be finite, as every
    tensor the engine reads is.
    """
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density out of range (0, 1]: {density}")
    v = tv.values
    n = v.size
    k = math.ceil(density * n)
    if k >= n:
        return tv
    mag = np.abs(v)
    thr = np.partition(mag, n - k)[n - k]
    keep = mag > thr
    need = k - np.count_nonzero(keep)
    keep[np.flatnonzero(mag == thr)[:need]] = True
    del mag  # free |v| before the output buffer is allocated
    return TensorBuffer(tv.name, tv.shape, np.where(keep, v, 0.0))


def ties_elect_sign(trimmed: list[TensorBuffer], coeffs: CoefficientSet) -> np.ndarray:
    """Per-element sign of the coefficient-weighted sum; exact zero sum -> 0."""
    if len(trimmed) != coeffs.num_tasks:
        raise ValidationError("one trimmed vector per coefficient required")
    acc = np.zeros_like(trimmed[0].values)
    for lam, buf in zip(coeffs.lambdas, trimmed):
        acc += lam * buf.values
    return np.sign(acc)


def ties_disjoint_merge(
    trimmed: list[TensorBuffer], signs: np.ndarray, coeffs: CoefficientSet
) -> TensorBuffer:
    """Sum lambda_t * v_t over tasks whose element sign matches the elected
    sign; elements with elected sign 0 output 0."""
    first = trimmed[0]
    acc = np.zeros_like(first.values)
    for lam, buf in zip(coeffs.lambdas, trimmed):
        match = (np.sign(buf.values) == signs) & (signs != 0.0)
        acc += np.where(match, lam * buf.values, 0.0)
    return TensorBuffer(first.name, first.shape, acc)


def dare_transform(
    tv: TensorBuffer, p: float, stream_key: tuple[int, int, str]
) -> TensorBuffer:
    """Drop elements with probability p, rescale survivors by 1/(1-p).

    Element e is kept iff u_e >= p, where u_e is the e-th uniform of a
    SplitMix64 stream keyed by (seed, task_index, tensor_name). p = 0 is a
    bit-exact identity; the output is unbiased in expectation.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"drop probability out of range [0, 1): {p}")
    seed, task_index, tensor_name = stream_key
    # the uniforms are freed once compared, before the output is allocated
    keep = uniform_stream(stream_seed(seed, task_index, tensor_name), tv.values.size) >= p
    out = np.where(keep, tv.values / (1.0 - p), 0.0)
    return TensorBuffer(tv.name, tv.shape, out)


def task_arithmetic_merge(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    coeffs: CoefficientSet,
    output: str,
    output_dtype: str = "base",
    strict: bool = True,
) -> CheckpointHandle:
    """Plain scaled-task-vector merge, written through the streaming engine."""
    recipe = MergeRecipe(
        base=base.path,
        tasks=[TaskSpec(tid, m.path) for tid, m in zip(coeffs.task_ids, models)],
        output=output,
        method="task_arithmetic_fixed",
        transform="none",
        strict_keys=strict,
        output_dtype=output_dtype,
    )
    handle, _ = run_recipe(recipe, coeffs_override=coeffs)
    return handle


def _transform_diff(
    diff: np.ndarray,
    name: str,
    task_index: int,
    recipe: MergeRecipe,
) -> np.ndarray:
    buf = TensorBuffer(name, (diff.size,), diff)
    if recipe.transform == "ties":
        return ties_trim(buf, recipe.ties_density).values
    if recipe.transform == "dare":
        return dare_transform(buf, recipe.dare_p, (recipe.seed, task_index, name)).values
    return diff


def _compute_pass_stats(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    counter: BufferCounter,
) -> tuple[TaskVectorStats, TaskVectorStats]:
    """One streaming pass producing raw and transformed squared norms.

    Without a transform the transformed norms are the raw ones, so they are
    accumulated once and the same stats are returned for both.
    """
    task_ids = [t.id for t in recipe.tasks]
    raw = StatsAccumulator(task_ids)
    transformed = StatsAccumulator(task_ids) if recipe.transform != "none" else None
    for name in sorted(base.index):
        base_buf = read_tensor(base, name)
        counter.acquire()
        for t, model in enumerate(models):
            if name not in model.index:
                raw.mark_missing(name, t)
                if transformed is not None:
                    transformed.mark_missing(name, t)
                continue
            diff = read_tensor(model, name).values - base_buf.values
            counter.acquire()
            raw.add_partial(name, t, diff)
            if transformed is not None:
                transformed.add_partial(name, t, _transform_diff(diff, name, t, recipe))
            counter.release()
        counter.release()
    raw_stats = raw.finalize()
    return raw_stats, transformed.finalize() if transformed is not None else raw_stats


def _select_coefficients(
    recipe: MergeRecipe, raw: TaskVectorStats, transformed: TaskVectorStats
) -> CoefficientSet:
    task_ids = [t.id for t in recipe.tasks]
    if recipe.method == "weight_average":
        return weight_average_coefficients(task_ids)
    if recipe.method == "task_arithmetic_fixed":
        return fixed_coefficients(task_ids, recipe.fixed_lambda)
    stats = transformed if recipe.norm_source == "transformed" else raw
    return metagpt_coefficients(stats)


def _merge_one_ties(
    name: str,
    base_vals: np.ndarray,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    lambdas: list[float],
    counter: BufferCounter,
) -> np.ndarray:
    """Sign-elect + disjoint-merge combine, accumulated onto the base values.

    All trimmed task vectors for this tensor are live at once (the election
    needs them), so the peak here is T + 2 buffers: base, T vectors, signs.
    """
    trimmed: list[np.ndarray | None] = []
    for t, model in enumerate(models):
        if name not in model.index:
            trimmed.append(None)
            continue
        diff = read_tensor(model, name).values - base_vals
        counter.acquire()
        trimmed.append(_transform_diff(diff, name, t, recipe))
    present = [(lam, v) for lam, v in zip(lambdas, trimmed) if v is not None]
    if present:
        signs = np.zeros_like(base_vals)
        counter.acquire()
        for lam, v in present:
            signs += lam * v
        np.sign(signs, out=signs)
        for lam, v in present:
            match = (np.sign(v) == signs) & (signs != 0.0)
            v *= lam
            v[~match] = 0.0
            base_vals += v
            counter.release()
        counter.release()  # signs
    return base_vals


def _merge_one_plain(
    name: str,
    base_vals: np.ndarray,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    lambdas: list[float],
    counter: BufferCounter,
) -> np.ndarray:
    """Plain scaled sum; task vectors are consumed one at a time."""
    acc = base_vals.copy()
    counter.acquire()
    for t, model in enumerate(models):
        if name not in model.index:
            continue
        diff = read_tensor(model, name).values - base_vals
        counter.acquire()
        tv = _transform_diff(diff, name, t, recipe)
        tv *= lambdas[t]
        acc += tv
        counter.release()
    return acc


def _merge_pass(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    coeffs: CoefficientSet,
    counter: BufferCounter,
) -> None:
    names = sorted(base.index)
    specs = [
        (
            name,
            base.index[name].shape,
            "F32" if recipe.output_dtype == "F32" else base.index[name].dtype,
        )
        for name in names
    ]
    writer = CheckpointWriter(recipe.output, specs, metadata=base.metadata)
    lambdas = list(coeffs.lambdas)
    merge_one = _merge_one_ties if recipe.transform == "ties" else _merge_one_plain
    try:
        for name in names:
            base_buf = read_tensor(base, name)
            counter.acquire()
            out = merge_one(name, base_buf.values, models, recipe, lambdas, counter)
            writer.write(TensorBuffer(name, base_buf.shape, out))
            # ties accumulates onto the base buffer itself; plain uses a copy
            counter.release(1 if out is base_buf.values else 2)
    except Exception:
        writer.abort()
        raise
    writer.close()


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
    if coeffs_override is not None and coeffs_override.num_tasks != len(models):
        raise ValidationError("coefficient count does not match task count")

    report = validate_compatibility([base] + models)
    if report.shape_mismatch:
        raise ValidationError(f"shape mismatch on: {sorted(report.shape_mismatch)}")
    if recipe.strict_keys and not report.clean:
        problems = sorted(set(report.missing) | set(report.dtype_mismatch))
        raise ValidationError(f"checkpoints are not key-compatible: {problems}")
    # names present in some model but absent from the base cannot be merged
    skipped = sorted(n for n, absent in report.missing.items() if base.path in absent)
    missing_from_tasks = {
        n: [m.path for m in models if m.path in absent]
        for n, absent in report.missing.items()
        if base.path not in absent
    }

    counter = BufferCounter()
    raw_stats, transformed_stats = _compute_pass_stats(base, models, recipe, counter)
    coeffs = (
        coeffs_override
        if coeffs_override is not None
        else _select_coefficients(recipe, raw_stats, transformed_stats)
    )
    _merge_pass(base, models, recipe, coeffs, counter)

    merge_report = MergeReport(
        recipe=recipe.to_dict(),
        coefficients=coeffs.to_dict(),
        raw_sq_norms=list(raw_stats.sq_norms),
        transformed_sq_norms=(
            list(transformed_stats.sq_norms) if recipe.transform != "none" else None
        ),
        tensor_count=len(base.index),
        skipped_names=skipped,
        missing_names={
            n: [t.id for t, m in zip(recipe.tasks, models) if m.path in paths]
            for n, paths in missing_from_tasks.items()
        },
        peak_live_buffers=counter.peak,
        wall_time_s=time.perf_counter() - t0,
    )
    return open_checkpoint(recipe.output), merge_report
