"""Scaling coefficients for task-vector merges.

The closed-form rule sets each task's coefficient proportional to its
squared task-vector norm:

    lambda_t = ||theta_t - theta_0||^2 / sum_k ||theta_k - theta_0||^2

so the coefficients need no data, sum to one, and degenerate to uniform
weight averaging when all norms are equal. Fixed-value baselines (the
conventional lambda = 0.3, and 1/T averaging) are provided for comparison.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

from . import jsonutil
from .errors import RecipeError, ValidationError
from .task_vectors import TaskVectorStats


@dataclass
class CoefficientSet:
    task_ids: list[str]
    lambdas: list[float]
    method: str
    source_stats_digest: str | None = None

    def __post_init__(self):
        if self.method not in LABELS:
            raise RecipeError(f"unknown coefficient method '{self.method}'")
        if len(self.lambdas) != len(self.task_ids) or not self.task_ids:
            raise ValidationError("need one coefficient per task (T >= 1)")
        if len(set(self.task_ids)) != len(self.task_ids):
            raise ValidationError(f"task ids must be unique: {list(self.task_ids)}")
        if any(not math.isfinite(v) for v in self.lambdas):
            raise ValidationError("non-finite coefficient")
        if self.method == "metagpt":
            if any(not 0.0 < v <= 1.0 for v in self.lambdas):
                raise ValidationError("closed-form coefficients must lie in (0, 1]")
            if abs(sum(self.lambdas) - 1.0) > 1e-12:
                raise ValidationError("closed-form coefficients must sum to 1")

    def to_dict(self) -> dict:
        out = {
            "method": self.method,
            "tasks": list(self.task_ids),
            "lambdas": list(self.lambdas),
        }
        if self.source_stats_digest is not None:
            out["source_stats_digest"] = self.source_stats_digest
        return out

    def to_json(self, indent: int | None = None) -> str:
        return jsonutil.dumps(self.to_dict(), indent=indent)


def metagpt_coefficients(stats: TaskVectorStats) -> CoefficientSet:
    """Norm-proportional closed form; rejects degenerate (zero-norm) tasks.

    A zero task vector means the "fine-tuned" model is the base itself;
    assigning it lambda = 0 would hide a recipe error, so it is refused, as
    are a negative squared norm and one so small beside the total that its
    lambda underflows to 0. Each error names the tasks at fault.
    """
    if stats.num_tasks == 0:
        raise ValidationError("no tasks")
    sq = [float(v) for v in stats.sq_norms]
    if not all(math.isfinite(v) for v in sq):
        raise ValidationError(f"non-finite squared norm: {sq}")
    negative = [stats.task_ids[i] for i, v in enumerate(sq) if v < 0.0]
    if negative:
        raise ValidationError(f"negative squared norm (a norm is never below 0): {negative}")
    zero = [stats.task_ids[i] for i, v in enumerate(sq) if v == 0.0]
    if zero:
        raise ValidationError(f"degenerate task vector (zero norm): {zero}")
    try:
        total = math.fsum(sq)
    except OverflowError as e:
        raise ValidationError("squared norms sum past the float64 range") from e
    lambdas = [v / total for v in sq]
    underflow = [stats.task_ids[i] for i, v in enumerate(lambdas) if v == 0.0]
    if underflow:
        raise ValidationError(
            f"coefficient underflows to 0 (squared norm too small beside the total "
            f"{total!r}): {underflow}"
        )
    return CoefficientSet(
        task_ids=list(stats.task_ids),
        lambdas=lambdas,
        method="metagpt",
        source_stats_digest=stats.digest(),
    )


def fixed_coefficients(task_ids: list[str], value: float = 0.3) -> CoefficientSet:
    """The same constant for every task (0.3 is the customary dataless default)."""
    if not task_ids:
        raise ValidationError("no tasks")
    if not math.isfinite(value):
        raise ValidationError("coefficient must be finite")
    return CoefficientSet(list(task_ids), [float(value)] * len(task_ids), "task_arithmetic_fixed")


def weight_average_coefficients(task_ids: list[str]) -> CoefficientSet:
    """lambda_t = 1/T exactly: plain weight averaging."""
    if not task_ids:
        raise ValidationError("no tasks")
    t = len(task_ids)
    return CoefficientSet(list(task_ids), [1.0 / t] * t, "weight_average")


# Recipe method name -> coefficient function. The norm-free methods take
# (task ids, fixed lambda), so they fix lambda before any tensor is read; the
# others take the task-vector statistics.
NORM_FREE_METHODS: dict[str, Callable[[list[str], float], CoefficientSet]] = {
    "weight_average": lambda task_ids, value: weight_average_coefficients(task_ids),
    "task_arithmetic_fixed": fixed_coefficients,
}
NORM_METHODS: dict[str, Callable[[TaskVectorStats], CoefficientSet]] = {
    "metagpt": metagpt_coefficients,
}
COEFFICIENT_METHODS = (*NORM_FREE_METHODS, *NORM_METHODS)
# the labels a CoefficientSet may carry: the recipe method that made it, or
# "external" for coefficients given from outside
LABELS = (*COEFFICIENT_METHODS, "external")


def coefficients_from_dict(data: dict) -> CoefficientSet:
    """Parse the JSON interchange form {"method", "tasks", "lambdas"}. A
    method not in ``LABELS``, such as the ``fixed`` of older files, reads
    as "external"."""
    if not isinstance(data, dict):
        raise RecipeError("bad coefficient spec: not a JSON object")
    tasks = jsonutil.read_strings(data.get("tasks"), "bad coefficient spec: 'tasks'")
    lambdas = jsonutil.read_numbers(data.get("lambdas"), "bad coefficient spec: 'lambdas'")
    digest = data.get("source_stats_digest")
    if digest is not None and not isinstance(digest, str):
        raise RecipeError("bad coefficient spec: 'source_stats_digest' must be a string")
    method = data.get("method")
    return CoefficientSet(tasks, lambdas, method if method in LABELS else "external", digest)
