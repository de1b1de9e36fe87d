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

METHODS = ("metagpt", "fixed", "weight_average", "external")


@dataclass
class CoefficientSet:
    task_ids: list[str]
    lambdas: list[float]
    method: str
    source_stats_digest: str | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise RecipeError(f"unknown coefficient method '{self.method}'")
        if len(self.lambdas) != len(self.task_ids) or not self.task_ids:
            raise ValidationError("need one coefficient per task (T >= 1)")
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
    assigning it lambda = 0 would hide a recipe error, so it is refused.
    """
    if stats.num_tasks == 0:
        raise ValidationError("no tasks")
    sq = [float(v) for v in stats.sq_norms]
    zero = [stats.task_ids[i] for i, v in enumerate(sq) if v <= 0.0]
    if zero:
        raise ValidationError(f"degenerate task vector (zero norm): {zero}")
    total = math.fsum(sq)
    lambdas = [v / total for v in sq]
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
    return CoefficientSet(list(task_ids), [float(value)] * len(task_ids), "fixed")


def weight_average_coefficients(task_ids: list[str]) -> CoefficientSet:
    """lambda_t = 1/T exactly: plain weight averaging."""
    if not task_ids:
        raise ValidationError("no tasks")
    t = len(task_ids)
    return CoefficientSet(list(task_ids), [1.0 / t] * t, "weight_average")


# Recipe method name -> coefficient function. The norm-free methods take
# (task ids, fixed lambda), so they fix lambda before any tensor is read; the
# others take the task-vector statistics. The CoefficientSet labels in
# METHODS differ ("fixed" is "task_arithmetic_fixed" here) and stay as they
# are: reports carry them.
NORM_FREE_METHODS: dict[str, Callable[[list[str], float], CoefficientSet]] = {
    "weight_average": lambda task_ids, value: weight_average_coefficients(task_ids),
    "task_arithmetic_fixed": fixed_coefficients,
}
NORM_METHODS: dict[str, Callable[[TaskVectorStats], CoefficientSet]] = {
    "metagpt": metagpt_coefficients,
}
COEFFICIENT_METHODS = (*NORM_FREE_METHODS, *NORM_METHODS)


def coefficients_from_dict(data: dict) -> CoefficientSet:
    """Parse the JSON interchange form {"method", "tasks", "lambdas"}."""
    try:
        tasks = list(data["tasks"])
        lambdas = [float(v) for v in data["lambdas"]]
        method = str(data.get("method", "external"))
    except (KeyError, TypeError, ValueError) as e:
        raise RecipeError(f"bad coefficient spec: {e}") from e
    if method not in METHODS:
        method = "external"
    return CoefficientSet(
        tasks, lambdas, method, source_stats_digest=data.get("source_stats_digest")
    )
