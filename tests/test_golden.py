"""Byte identity of merges and statistics against recorded digests.

Each merge case runs a fixed recipe through ``run_recipe`` and hashes the
canonical report, with the recipe's paths replaced by file names, followed
by the merged file's bytes. Each statistics case hashes the exact bits of
``compute_stats``. A digest that moves means some output changed by at
least one byte. After an intended format change, record new digests with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

Every input value is a small integer times a power of two, so F32, BF16
and F16 all store it exactly, while the sums of squares span enough
binades to round.
"""

import hashlib
import itertools
import json
import os
from pathlib import Path

import numpy as np
import pytest

from taskmerge import CoefficientSet, MergeRecipe, TaskSpec, compute_stats, merge_engine
from taskmerge import open_checkpoint, run_recipe, task_vectors
from taskmerge.tensor_store import _CHUNK

from conftest import write_ckpt

DIGESTS = Path(__file__).with_name("golden_digests.json")
DTYPES = ("F32", "BF16", "F16")
MERGE_GRID = list(
    itertools.product(
        DTYPES,
        merge_engine.METHODS,
        merge_engine.TRANSFORMS,
        merge_engine.NORM_SOURCES,
        merge_engine.OUTPUT_DTYPES,
    )
)
STATS_GRID = list(itertools.product(DTYPES, (False, True)))
SHAPES = {"a": (5, 7), "b": (_CHUNK + 3,), "c": (9,), "d": (4, 4)}


def exact_values(rng, shape):
    """Integers in [-127, 127] times 2**e, e in [-20, 0]: exact in every dtype."""
    m = rng.integers(-127, 128, size=shape)
    return np.ldexp(m.astype(np.float64), rng.integers(-20, 1, size=shape))


def write_family(root: Path, dtype: str):
    """Base and three models; t1 lacks 'd' and t2 holds an extra 'z'."""
    rng = np.random.default_rng(20240611)
    root.mkdir()
    base = {n: exact_values(rng, s) for n, s in SHAPES.items()}
    models = [{n: exact_values(rng, s) for n, s in SHAPES.items()} for _ in range(3)]
    del models[1]["d"]
    models[2]["z"] = exact_values(rng, (3,))
    base_p = write_ckpt(root / "base.st", base, dtype=dtype)
    model_ps = [write_ckpt(root / f"t{i}.st", m, dtype=dtype) for i, m in enumerate(models)]
    return base_p, model_ps


def merge_digest(root: Path, dtype: str, method: str, transform: str,
                 norm_source: str, output_dtype: str) -> str:
    base_p, model_ps = write_family(root, dtype)
    recipe = MergeRecipe(
        base=base_p,
        tasks=[TaskSpec(f"t{i}", p) for i, p in enumerate(model_ps)],
        output=str(root / "out.st"),
        method=method,
        transform=transform,
        ties_density=0.3,
        dare_p=0.7,
        fixed_lambda=0.3,
        seed=12345,
        strict_keys=False,
        norm_source=norm_source,
        output_dtype=output_dtype,
    )
    _, report = run_recipe(recipe)
    r = report.recipe
    r["base"], r["output"] = os.path.basename(r["base"]), os.path.basename(r["output"])
    for task in r["tasks"]:
        task["path"] = os.path.basename(task["path"])
    h = hashlib.sha256(report.to_json().encode("utf-8"))
    h.update(Path(recipe.output).read_bytes())
    return h.hexdigest()


def stats_digest(root: Path, dtype: str, want_gram: bool) -> str:
    base_p, model_ps = write_family(root, dtype)
    stats = compute_stats(
        open_checkpoint(base_p), [open_checkpoint(p) for p in model_ps],
        want_gram=want_gram, strict=False,
    )
    h = hashlib.sha256(json.dumps([float(v).hex() for v in stats.sq_norms]).encode())
    h.update(json.dumps(stats.missing_names, sort_keys=True).encode())
    if stats.gram is not None:
        h.update(stats.gram.tobytes())
    return h.hexdigest()


def case_id(case) -> str:
    return "-".join(str(v) for v in case)


@pytest.fixture(scope="module")
def recorded():
    return json.loads(DIGESTS.read_text())


@pytest.mark.parametrize("case", MERGE_GRID, ids=case_id)
def test_merge_bytes_match_recorded(tmp_path, recorded, case):
    assert merge_digest(tmp_path / "family", *case) == recorded["merge"][case_id(case)]


@pytest.mark.parametrize("case", STATS_GRID, ids=case_id)
def test_stats_bits_match_recorded(tmp_path, recorded, case):
    assert stats_digest(tmp_path / "family", *case) == recorded["stats"][case_id(case)]


# (method, coefficients given, walks over the inputs)
READ_CASES = [
    ("weight_average", False, 1),
    ("task_arithmetic_fixed", False, 1),
    ("metagpt", True, 1),
    ("metagpt", False, 2),
]


@pytest.mark.parametrize("method,override,walks", READ_CASES)
def test_norm_free_merges_read_each_tensor_once(tmp_path, monkeypatch, method, override, walks):
    rng = np.random.default_rng(3)
    names = {"x": (4,), "y": (2, 3), "z": (5,)}
    paths = [
        write_ckpt(tmp_path / f"{i}.st", {n: exact_values(rng, s) for n, s in names.items()})
        for i in range(3)
    ]
    reads = []
    for module in (merge_engine, task_vectors):
        def counted(handle, name, out=None, _read=module.read_tensor):
            reads.append(name)
            return _read(handle, name, out=out)
        monkeypatch.setattr(module, "read_tensor", counted)
    recipe = MergeRecipe(
        base=paths[0],
        tasks=[TaskSpec("a", paths[1]), TaskSpec("b", paths[2])],
        output=str(tmp_path / "out.st"),
        method=method,
    )
    coeffs = CoefficientSet(["a", "b"], [0.5, 0.25], "external")
    run_recipe(recipe, coeffs_override=coeffs if override else None)
    assert len(reads) == walks * len(paths) * len(names)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {
            "merge": {
                case_id(c): merge_digest(Path(tmp) / f"m{i}", *c)
                for i, c in enumerate(MERGE_GRID)
            },
            "stats": {
                case_id(c): stats_digest(Path(tmp) / f"s{i}", *c)
                for i, c in enumerate(STATS_GRID)
            },
        }
    print(json.dumps(out, indent=2))
