"""Byte identity of merges and statistics against recorded digests.

Each merge case runs a fixed recipe through ``run_recipe`` and records two
digests: one of the merged file's bytes, and one of the canonical report
with the recipe's paths replaced by file names. A report format change
then moves only report digests. Each statistics case hashes the exact bits
of ``compute_stats``. A digest that moves means some output changed by at
least one byte. After an intended format change, record new digests with

    PYTHONPATH=src python tests/test_golden.py > tests/golden_digests.json

Every input value is a small integer times a power of two, so F32, BF16
and F16 all store it exactly, while the sums of squares span enough
binades to round.
"""

import hashlib
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from taskmerge import CoefficientSet, MergeRecipe, TaskSpec, compute_stats, merge_engine
from taskmerge import open_checkpoint, run_recipe, selection, tensor_store
from taskmerge.coefficients import COEFFICIENT_METHODS
from taskmerge.task_vectors import split
from taskmerge.tensor_store import _CHUNK

from conftest import write_ckpt

DIGESTS = Path(__file__).with_name("golden_digests.json")
DTYPES = ("F32", "BF16", "F16")
MERGE_GRID = list(
    itertools.product(
        DTYPES,
        COEFFICIENT_METHODS,
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


def merge_digests(root: Path, dtype: str, method: str, transform: str,
                  norm_source: str, output_dtype: str) -> dict[str, str]:
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
    return {
        "file": hashlib.sha256(Path(recipe.output).read_bytes()).hexdigest(),
        "report": hashlib.sha256(report.to_json().encode("utf-8")).hexdigest(),
    }


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
    assert merge_digests(tmp_path / "family", *case) == recorded["merge"][case_id(case)]


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
    names = {"x": (4,), "y": (2, 3), "z": (_CHUNK + 5,)}  # "z" splits into two nodes
    paths = [
        write_ckpt(tmp_path / f"{i}.st", {n: exact_values(rng, s) for n, s in names.items()})
        for i in range(3)
    ]
    # every read of stored bytes is a ranged one
    reads = []

    def counted(handle, name, lo, hi, *args, _read=tensor_store.read_payload):
        reads.append((handle.path, name, lo, hi))
        return _read(handle, name, lo, hi, *args)

    monkeypatch.setattr(tensor_store, "read_payload", counted)
    handles = []

    def opened(path, _open=merge_engine.open_checkpoint):
        handles.append(_open(path))
        return handles[-1]

    monkeypatch.setattr(merge_engine, "open_checkpoint", opened)
    recipe = MergeRecipe(
        base=paths[0],
        tasks=[TaskSpec("a", paths[1]), TaskSpec("b", paths[2])],
        output=str(tmp_path / "out.st"),
        method=method,
    )
    coeffs = CoefficientSet(["a", "b"], [0.5, 0.25], "external")
    run_recipe(recipe, coeffs_override=coeffs if override else None)
    # each walk reads every node of every tensor from every input once
    nodes = [(name, lo, hi) for name, shape in names.items()
             for lo, hi in split(math.prod(shape))]
    assert sorted(reads) == sorted(walks * [(p, *node) for p in paths for node in nodes])
    # each input's header once, then every payload once per walk
    inputs = handles[: len(paths)]
    assert [h.path for h in inputs] == paths
    for h in inputs:
        payload = sum(meta.num_bytes for meta in h.index.values())
        assert h.bytes_read == h.data_start + walks * payload


@pytest.mark.parametrize("refine", [None, "first node", "capacity"])
@pytest.mark.parametrize("method", ["metagpt", "task_arithmetic_fixed"])
def test_ties_reads_each_task_three_times(tmp_path, monkeypatch, method, refine):
    # per tensor, T + 1 sweeps take the norms and select, reading the base
    # each time, each task in two of them, and one walk combines: the base
    # is read T + 2 times and each task 3 times. A selection that needs
    # another pass re-reads its task and the base once per pass.
    # "first node": task a's "z" has a first node of diffs far larger than
    # the rest, so the first pass's pivots miss; "capacity": a buffer of one
    # candidate overflows
    rng = np.random.default_rng(5)
    names = {"x": (4,), "y": (2, 3), "z": (_CHUNK + 5,)}  # "z" splits into two nodes
    arrays = [{n: exact_values(rng, s) for n, s in names.items()} for _ in range(3)]
    if refine == "first node":
        arrays[1]["z"][:_CHUNK // 2] += 2.0**20 * rng.integers(1, 100, _CHUNK // 2)
    paths = [write_ckpt(tmp_path / f"{i}.st", a) for i, a in enumerate(arrays)]
    if refine == "capacity":
        monkeypatch.setattr(selection, "_CANDIDATES", 1)
    reads = []

    def counted(handle, name, lo, hi, *args, _read=tensor_store.read_payload):
        reads.append((handle.path, name, lo, hi))
        return _read(handle, name, lo, hi, *args)

    monkeypatch.setattr(tensor_store, "read_payload", counted)
    # the passes each (task, tensor) selection took, in the order selected
    passes = []
    real_finish = selection.Selection.finish

    def finish(select, again):
        levels = [0]

        def counting_again():
            levels[0] += 1
            return again()

        result = real_finish(select, counting_again)
        passes.append((select.n, levels[0]))
        return result

    monkeypatch.setattr(selection.Selection, "finish", finish)
    recipe = MergeRecipe(
        base=paths[0],
        tasks=[TaskSpec("a", paths[1]), TaskSpec("b", paths[2])],
        output=str(tmp_path / "out.st"),
        method=method, transform="ties", ties_density=0.3,
    )
    run_recipe(recipe)
    # per tensor, in sorted-name order, task a's selection then task b's
    extra = {name: [lv for _, lv in passes[2 * i : 2 * i + 2]]
             for i, name in enumerate(sorted(names))}
    assert [n for n, _ in passes] == [math.prod(names[n]) for n in sorted(names) for _ in "ab"]
    if refine is None:
        assert all(lv == [0, 0] for lv in extra.values())
    else:
        assert extra["z"][0] >= 1
    if refine == "first node":
        assert extra["x"] == extra["y"] == [0, 0] and extra["z"][1] == 0
    # every element of every tensor is read as many times from each input:
    # the base T + 2 times at T = 2, each task 3 times, plus the extra passes
    for name, shape in names.items():
        a, b = extra[name]
        for path, times in zip(paths, (2 + 2 + a + b, 3 + a, 3 + b)):
            covered = np.zeros(math.prod(shape), dtype=np.int64)
            for p, n, lo, hi in reads:
                if (p, n) == (path, name):
                    covered[lo:hi] += 1
            assert np.all(covered == times), (name, path)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        out = {
            "merge": {
                case_id(c): merge_digests(Path(tmp) / f"m{i}", *c)
                for i, c in enumerate(MERGE_GRID)
            },
            "stats": {
                case_id(c): stats_digest(Path(tmp) / f"s{i}", *c)
                for i, c in enumerate(STATS_GRID)
            },
        }
    print(json.dumps(out, indent=2))
