"""Command-line front door.

All machine-readable output goes to stdout as JSON; diagnostics go to
stderr. Exit codes: 0 success, 1 usage or schema error, 2 data/validation
error, 3 invariant violation (verify only). Unknown flags are rejected.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import jsonutil, theory_lab
from .coefficients import COEFFICIENT_METHODS, NORM_FREE_METHODS, NORM_METHODS
from .errors import FormatError, RecipeError, ValidationError
from .merge_engine import MergeRecipe, run_recipe
from .task_vectors import TaskVectorStats, compute_stats, default_task_ids
from .tensor_store import open_checkpoint, validate_compatibility

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_VIOLATION = 3


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 (not 2) on usage errors, matching the contract."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
    parser = _Parser(prog="taskmerge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", parents=[], help="list tensors and metadata of a checkpoint")
    p.add_argument("path")

    p = sub.add_parser("stats", help="task-vector norms (and cosines) of models vs a base")
    p.add_argument("base")
    p.add_argument("models", nargs="+")
    p.add_argument("--gram", action="store_true", help="also compute the cosine matrix")
    p.add_argument("--strict", action="store_true", help="reject any tensor-name drift")

    p = sub.add_parser("coeffs", help="compute scaling coefficients")
    p.add_argument("paths", nargs="*", metavar="BASE MODEL",
                   help="base checkpoint followed by fine-tuned models")
    p.add_argument("--stats", dest="stats_file",
                   help="use a stats JSON report instead of checkpoints")
    p.add_argument("--method", choices=COEFFICIENT_METHODS, default="metagpt")
    p.add_argument("--lambda", dest="fixed_lambda", type=float, default=0.3,
                   help="coefficient value for --method task_arithmetic_fixed")
    p.add_argument("--strict", action="store_true")

    p = sub.add_parser("merge", help="run a merge recipe")
    p.add_argument("--recipe", required=True, help="recipe JSON file")

    p = sub.add_parser("verify", help="run the theory verification suites")
    p.add_argument("--suite", required=True,
                   choices=theory_lab.SUITES + ("all",))
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, help="fix the parameter dimension")
    p.add_argument("--tasks", type=int, help="fix the task count")
    return parser


def cmd_inspect(args) -> int:
    handle = open_checkpoint(args.path)
    out = {
        "path": handle.path,
        "total_params": handle.total_params,
        "tensors": {
            name: {
                "dtype": meta.dtype,
                "shape": list(meta.shape),
                "params": meta.num_elements,
            }
            for name, meta in sorted(handle.index.items())
        },
        "metadata": handle.metadata,
    }
    print(jsonutil.dumps(out, indent=2))
    return EXIT_OK


def cmd_stats(args) -> int:
    base = open_checkpoint(args.base)
    models = [open_checkpoint(p) for p in args.models]
    stats = compute_stats(base, models, want_gram=args.gram, strict=args.strict)
    if stats.missing_names:
        print(f"warning: tensors missing from some models: "
              f"{sorted(stats.missing_names)}", file=sys.stderr)
    print(stats.to_json(indent=2))
    return EXIT_OK


def _load_json(path: str, what: str):
    """Parse the UTF-8 JSON file *path*; bad bytes or bad JSON are a RecipeError."""
    with open(path, encoding="utf-8") as f:
        try:
            return json.load(f)
        # JSONDecodeError and UnicodeDecodeError are both ValueErrors; deep
        # nesting overflows the decoder's recursion
        except (ValueError, RecursionError) as e:
            raise RecipeError(f"{what} is not valid JSON: {e}") from e


def _read_stats_file(path: str) -> TaskVectorStats:
    data = _load_json(path, "stats file")
    if not isinstance(data, dict):
        raise RecipeError("stats file must be a JSON object")
    tasks = jsonutil.read_strings(data.get("tasks"), "stats file needs 'tasks'")
    norms = jsonutil.read_numbers(data.get("sq_norms"), "stats file needs 'sq_norms'")
    if len(set(tasks)) != len(tasks) or len(norms) != len(tasks):
        raise RecipeError("stats file needs unique 'tasks' and one of 'sq_norms' per task")
    return TaskVectorStats(task_ids=tasks, sq_norms=norms)


def cmd_coeffs(args) -> int:
    if not math.isfinite(args.fixed_lambda):
        raise RecipeError("--lambda must be finite")
    if args.stats_file:
        if args.paths:
            raise RecipeError("pass either --stats or checkpoint paths, not both")
        stats = _read_stats_file(args.stats_file)
        task_ids = stats.task_ids
    else:
        if len(args.paths) < 2:
            raise RecipeError("need BASE and at least one MODEL (or --stats FILE)")
        base = open_checkpoint(args.paths[0])
        models = [open_checkpoint(p) for p in args.paths[1:]]
        if args.method in NORM_METHODS:
            stats = compute_stats(base, models, strict=args.strict)
        else:
            # these coefficients need the task ids alone: no tensor is read
            validate_compatibility([base] + models).require(args.strict)
            task_ids = default_task_ids(models)

    if args.method in NORM_METHODS:
        coeffs = NORM_METHODS[args.method](stats)
    else:
        coeffs = NORM_FREE_METHODS[args.method](task_ids, args.fixed_lambda)
    print(coeffs.to_json(indent=2))
    return EXIT_OK


def cmd_merge(args) -> int:
    recipe = MergeRecipe.from_dict(_load_json(args.recipe, "recipe"))
    _, report = run_recipe(recipe)
    print(report.to_json(indent=2))
    print(f"merged {report.tensor_count} tensors -> {recipe.output} "
          f"({report.wall_time_s:.2f}s)", file=sys.stderr)
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.trials < 1:
        raise RecipeError("--trials must be >= 1")
    if args.seed < 0:
        raise RecipeError("--seed must be non-negative")
    for flag in ("dim", "tasks"):
        if getattr(args, flag) is not None and getattr(args, flag) < 1:
            raise RecipeError(f"--{flag} must be >= 1")
    if args.dim is not None and args.tasks is not None and args.dim < args.tasks:
        raise RecipeError("--dim must be >= --tasks (orthogonality requires it)")
    names = list(theory_lab.SUITES) if args.suite == "all" else [args.suite]
    report = theory_lab.run_suites(
        names,
        trials=args.trials,
        seed=args.seed,
        dim=args.dim,
        tasks=args.tasks,
    )
    print(jsonutil.dumps(report, indent=2))
    return EXIT_OK if report["violations"] == 0 else EXIT_VIOLATION


_HANDLERS = {
    "inspect": cmd_inspect,
    "stats": cmd_stats,
    "coeffs": cmd_coeffs,
    "merge": cmd_merge,
    "verify": cmd_verify,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "inspect" and not args.path:
        parser.error("inspect needs a non-empty PATH")
    try:
        return _HANDLERS[args.command](args)
    except RecipeError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except (FormatError, ValidationError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
