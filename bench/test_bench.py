"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import spans
import workloads
import worker

SMALL = workloads.DARE_CHECK


def _bytes(paths):
    return [Path(p).read_bytes() for p in paths]


def _files(directory):
    base, models = SMALL.inputs(directory)
    return [base, *models]


def test_generator_is_deterministic_per_seed(tmp_path):
    workloads.generate(SMALL, 1, tmp_path / "a")
    workloads.generate(SMALL, 1, tmp_path / "b")
    workloads.generate(SMALL, 2, tmp_path / "c")
    a, b, c = (_bytes(_files(tmp_path / d)) for d in "abc")
    assert a == b
    assert all(x != y for x, y in zip(a, c))


def _flip_last_byte(path):
    data = bytearray(Path(path).read_bytes())
    data[-1] ^= 0xFF
    Path(path).write_bytes(bytes(data))


def test_gate_counts_a_one_byte_corruption_as_failed(tmp_path):
    workloads.generate(SMALL, 3, tmp_path)
    runner = worker.Runner(workloads.Operation(SMALL, tmp_path))
    _, result = runner.run()
    runner.check(result)
    runner.op.save_first(result, tmp_path / "first.out")
    assert workloads.check_first_output(SMALL, 3, tmp_path, tmp_path / "first.out") is None

    _, result = runner.run()
    _flip_last_byte(runner.op.output)
    runner.check(result)
    assert (runner.attempted, runner.failed) == (2, 1)

    _flip_last_byte(tmp_path / "first.out")
    assert workloads.merged_matches_reference(SMALL, tmp_path, str(tmp_path / "first.out"))


def test_traced_run_restores_every_wrapped_attribute(tmp_path):
    workloads.generate(SMALL, 4, tmp_path / "work")
    runner = worker.Runner(workloads.Operation(SMALL, tmp_path / "work"))
    before = {(o, a): vars(o)[a] for o, a, *_ in spans._targets()}
    out = worker.measure_traced(SMALL, tmp_path / "work", 0.2, runner)
    assert out["wrappers_restored"]
    assert all(vars(o)[a] is fn for (o, a), fn in before.items())
    layers = out["layers"]
    assert layers["rng.draws"] == 2 * SMALL.tasks * SMALL.params
    assert layers["merge_engine.dare_calls"] == 2 * SMALL.tasks * len(SMALL.shapes)
    assert layers["merge_engine.ties_trim_calls"] == 0
    assert runner.failed == 0
    assert (tmp_path / f"{SMALL.name}.spans.jsonl").stat().st_size > 0


@pytest.mark.parametrize("trace", [False, True])
def test_second_seed_runs_and_passes_the_gate(trace):
    r = run.run_workload(SMALL, 5, 0.3, trace)
    assert r["failed"] == 0 and r["attempted"] >= 3
    if not trace:
        assert r["metrics"]["op_s"] > 0 and r["metrics"]["setup_s"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / run.BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{run.BENCH.name}/run.py", "--workload", "merge-plain",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
