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
size. The count leaves out the temporaries of decoding, reduction and the
transforms, so traced peaks run higher: about 8.25 float64 single-tensor
buffers for T = 4 with TIES, and about 3.5 for T = 1 with no transform.
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
from .task_vectors import StatsAccumulator, task_diffs
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


def dare_transform(
    tv: TensorBuffer, p: float, stream_key: tuple[int, int, str]
) -> TensorBuffer:
    """Drop elements with probability p, rescale survivors by 1/(1-p).

    Element e is kept iff u_e >= p, where u_e is the e-th uniform of a
    SplitMix64 stream keyed by (seed, task_index, tensor_name); dropped
    elements are +0.0. p = 0 keeps every element and is a bit-exact identity,
    so it returns *tv* without drawing the stream. The output is unbiased in
    expectation.
    """
    if not 0.0 <= p < 1.0:
        raise ValidationError(f"drop probability out of range [0, 1): {p}")
    if p == 0.0:
        return tv
    seed, task_index, tensor_name = stream_key
    # the uniforms are freed once compared, before the output is allocated
    drop = uniform_stream(stream_seed(seed, task_index, tensor_name), tv.values.size) < p
    out = tv.values / (1.0 - p)
    # putmask, not out[drop] = 0.0: the boolean-index assignment is about a
    # third slower on masks this dense, enough to show in a DARE merge
    np.putmask(out, drop, 0.0)
    return TensorBuffer(tv.name, tv.shape, out)


def _walk(
    base: CheckpointHandle,
    models: list[CheckpointHandle],
    recipe: MergeRecipe,
    counter: BufferCounter,
    norms: tuple[StatsAccumulator, StatsAccumulator | None] | None = None,
    combine: tuple[list[float], CheckpointWriter] | None = None,
) -> None:
    """One streaming walk over (tensor name, task diffs) in sorted-name order.

    Each diff goes to the sinks given:
      - norms (raw, transformed): squared norms of the diff and of the
        transformed diff before it is scaled (None: no transform);
      - combine (lambdas, writer): writes base + sum_t lambda_t * tv_t. The
        plain sum consumes one diff at a time. TIES holds all of a tensor's
        diffs for the sign election: T + 2 buffers (base, T vectors, signs).
    """
    raw, transformed = norms or (None, None)
    lambdas, writer = combine or (None, None)
    ties = writer is not None and recipe.transform == "ties"
    for name in sorted(base.index):
        base_buf = read_tensor(base, name)
        out = base_buf.values
        counter.acquire()
        if writer is not None and not ties:
            out = out.copy()
            counter.acquire()
        held = []
        for t, diff in task_diffs(name, base_buf.values, models):
            counter.acquire()
            if raw is not None:
                raw.add_partial(t, diff)
            v, buf = diff, TensorBuffer(name, (diff.size,), diff)
            if recipe.transform == "ties":
                v = ties_trim(buf, recipe.ties_density).values
            elif recipe.transform == "dare":
                v = dare_transform(buf, recipe.dare_p, (recipe.seed, t, name)).values
            if transformed is not None:
                transformed.add_partial(t, v)
            if ties:
                held.append((lambdas[t], v))
                continue
            if writer is not None:
                v *= lambdas[t]
                out += v
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
                v[~match] = 0.0
                out += v
                counter.release()
            counter.release()  # signs
            held.clear()  # kept to the next tensor, they raised TIES peak RSS 11%
        if writer is not None:
            writer.write(TensorBuffer(name, base_buf.shape, out))
        # TIES accumulates onto the base buffer itself; the plain sum onto a copy
        counter.release(1 if out is base_buf.values else 2)


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
    report.require(recipe.strict_keys)
    # names present in some model but absent from the base cannot be merged
    skipped = sorted(n for n, absent in report.missing.items() if base.path in absent)

    task_ids = [t.id for t in recipe.tasks]
    raw = StatsAccumulator(task_ids)
    transformed = StatsAccumulator(task_ids) if recipe.transform != "none" else None
    norms = (raw, transformed)
    counter = BufferCounter()
    coeffs = coeffs_override
    if coeffs is None and recipe.method in NORM_FREE_METHODS:
        coeffs = NORM_FREE_METHODS[recipe.method](task_ids, recipe.fixed_lambda)
    if coeffs is None:
        # the coefficients read norms: take them all before combining anything
        _walk(base, models, recipe, counter, norms=norms)
        use_raw = recipe.norm_source == "raw" or transformed is None
        coeffs = NORM_METHODS[recipe.method]((raw if use_raw else transformed).finalize())
        norms = None

    specs = [
        (name, meta.shape, "F32" if recipe.output_dtype == "F32" else meta.dtype)
        for name, meta in base.index.items()
    ]
    writer = CheckpointWriter(recipe.output, specs, metadata=base.metadata)
    try:
        _walk(base, models, recipe, counter, norms=norms, combine=(coeffs.lambdas, writer))
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
