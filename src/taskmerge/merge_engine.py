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

The engine counts the single-tensor buffers it holds (base, the per-task
vectors for one name, one accumulator) and reports the peak of that count
as ``peak_live_buffers <= T + 2``; memory never grows with total model
size. The base, each diff and the plain sum are decoded or summed into
working buffers allocated once per run at the size of the largest tensor,
so their pages are faulted in once per run, not once per read; TIES and
DARE transform the diff in place. The count leaves out the raw bytes of a
read and the masks and magnitudes the transforms work from, so tracemalloc
peaks run higher. In float64 buffers of the largest tensor, on the
benchmark's inputs: about 3.26 with no transform, for T = 1 and T = 4 alike
(three working buffers plus one BF16 read), about 4.1 with DARE (T = 8,
F32; the uniforms on top), and about 8.25 with TIES (T = 4), which holds a
copy of each trimmed diff.
Everything is deterministic: re-running a recipe with the same seed
produces byte-identical output files and reports.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import jsonutil
from .coefficients import COEFFICIENT_METHODS, NORM_FREE_METHODS, NORM_METHODS, CoefficientSet
from .errors import RecipeError, ValidationError
from .rng import stream_seed, uniform_stream
from .task_vectors import StatsAccumulator, task_diffs, working_buffer
from .tensor_store import (
    CheckpointHandle,
    CheckpointWriter,
    TensorBuffer,
    open_checkpoint,
    read_tensor,
    validate_compatibility,
)

METHODS = COEFFICIENT_METHODS
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


def ties_trim(values: np.ndarray, density: float) -> None:
    """Keep the ceil(density * n) largest-magnitude elements of the flat
    float64 array *values* and zero the rest, in place.

    O(n): ``np.partition`` finds the k-th largest magnitude ``thr``; every
    element with ``|v| > thr`` is kept, and the remaining slots go to the
    elements with ``|v| == thr``, lowest flat index first. That is the order
    of a stable descending sort by magnitude, so the result does not depend
    on how the partition breaks ties. Dropped elements become +0.0; kept
    ones, -0.0 included, are left as they are. Values must be finite, as
    every tensor the engine reads is. Density 1 changes nothing.
    """
    if not 0.0 < density <= 1.0:
        raise ValidationError(f"density out of range (0, 1]: {density}")
    n = values.size
    k = math.ceil(density * n)
    if k >= n:
        return
    mag = np.abs(values)
    thr = np.partition(mag, n - k)[n - k]
    keep = mag > thr
    need = k - np.count_nonzero(keep)
    keep[np.flatnonzero(mag == thr)[:need]] = True
    del mag
    np.putmask(values, ~keep, 0.0)


def dare_transform(values: np.ndarray, p: float, stream_key: tuple[int, int, str]) -> None:
    """Drop elements of the flat float64 array *values* with probability p
    and rescale the survivors by 1/(1-p), in place.

    Element e is kept iff u_e >= p, where u_e is the e-th uniform of a
    SplitMix64 stream keyed by (seed, task_index, tensor_name); dropped
    elements become +0.0, and each survivor is divided once by (1 - p).
    p = 0 changes nothing and draws no stream. The result is unbiased in
    expectation.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"drop probability out of range [0, 1): {p}")
    if p == 0.0:
        return
    seed, task_index, tensor_name = stream_key
    # the uniforms are freed once compared
    drop = uniform_stream(stream_seed(seed, task_index, tensor_name), values.size) < p
    values /= 1.0 - p
    # putmask, not values[drop] = 0.0: the boolean-index assignment is about
    # a third slower on masks this dense, enough to show in a DARE merge
    np.putmask(values, drop, 0.0)


def _walk(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    counter: BufferCounter,
    work: tuple[np.ndarray, np.ndarray],
    norms: tuple[StatsAccumulator, StatsAccumulator | None] | None = None,
    combine: tuple[list[float], CheckpointWriter] | None = None,
) -> None:
    """One streaming walk over (tensor name, task diffs) in sorted-name order.

    Each diff goes to the sinks given:
      - norms (raw, transformed): squared norms of the diff and of the
        transformed diff before it is scaled (None: no transform);
      - combine (lambdas, writer): writes base + sum_t lambda_t * tv_t. The
        plain sum consumes one diff at a time. TIES holds a copy of each of
        a tensor's diffs for the sign election: T + 2 buffers (base, T
        vectors, signs).

    The base and each diff live in the heads of the *work* buffers (base,
    diff), which every tensor reuses, and the transform works on the diff
    in place; the plain sum lives in a buffer of the same size made once per
    walk. TIES needs no sum buffer: it adds onto the base.
    """
    raw, transformed = norms or (None, None)
    lambdas, writer = combine or (None, None)
    ties = writer is not None and recipe.transform == "ties"
    plain = writer is not None and not ties
    base_work, diff_work = work
    sum_work = working_buffer(base) if plain else None
    for name in sorted(base.index):
        base_buf = read_tensor(base, name, out=base_work)
        out = base_buf.values
        counter.acquire()
        if plain:
            out = sum_work[: out.size]
            np.copyto(out, base_buf.values)
            counter.acquire()
        held = []
        for t, diff in task_diffs(name, base_buf.values, models, out=diff_work):
            counter.acquire()
            if raw is not None:
                raw.add_partial(t, diff)
            if recipe.transform == "ties":
                ties_trim(diff, recipe.ties_density)
            elif recipe.transform == "dare":
                dare_transform(diff, recipe.dare_p, (recipe.seed, t, name))
            if transformed is not None:
                transformed.add_partial(t, diff)
            if ties:
                # the next diff is decoded into the same buffer
                held.append((lambdas[t], diff.copy()))
                continue
            if plain:
                diff *= lambdas[t]
                out += diff
            counter.release()
        if held:
            # sign election, then the disjoint merge onto the base buffer
            signs = np.zeros_like(out)
            counter.acquire()
            for lam, v in held:
                signs += lam * v
            np.sign(signs, out=signs)
            for lam, v in held:
                match = (np.sign(v) == signs) & (signs != 0.0)
                v *= lam
                np.putmask(v, ~match, 0.0)
                out += v
                counter.release()
            counter.release()  # signs
            held.clear()  # kept to the next tensor, they raised TIES peak RSS 11%
        if writer is not None:
            writer.write(TensorBuffer(name, base_buf.shape, out))
        # TIES accumulates onto the base buffer itself; the plain sum onto a copy
        counter.release(2 if plain else 1)


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
    counter = BufferCounter()
    work = (working_buffer(base), working_buffer(base))
    coeffs = coeffs_override
    if coeffs is None and recipe.method in NORM_FREE_METHODS:
        coeffs = NORM_FREE_METHODS[recipe.method](task_ids, recipe.fixed_lambda)
    if coeffs is None:
        # the coefficients read norms: take them all before combining anything
        _walk(base, models, recipe, counter, work, norms=norms)
        use_raw = recipe.norm_source == "raw" or transformed is None
        coeffs = NORM_METHODS[recipe.method]((raw if use_raw else transformed).finalize())
        norms = None

    specs = [
        (name, meta.shape, "F32" if recipe.output_dtype == "F32" else meta.dtype)
        for name, meta in base.index.items()
    ]
    writer = CheckpointWriter(recipe.output, specs, metadata=base.metadata)
    try:
        _walk(base, models, recipe, counter, work, norms=norms, combine=(coeffs.lambdas, writer))
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
        peak_live_buffers=counter.peak,
        wall_time_s=time.perf_counter() - t0,
    )
    return open_checkpoint(recipe.output), merge_report
