"""Benchmark of the taskmerge streaming merge.

    python3 bench/run.py --workload merge-plain --seed 1 --seconds 8 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 8

Run from the root of a checkout. Generates the workload's checkpoints from
the seed, starts a worker process that opens them and runs one untimed
warm-up operation, then times operations in a closed loop for --seconds.
Every metric is printed by name with its unit; the last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}, holding the
end-to-end metrics with --trace 0 and the per-layer metrics with --trace 1.
See bench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads

BENCH = Path(__file__).resolve().parent
WORK = workloads.ROOT / ".bench_work"
SETUP_REPS = 3
WORKER_TIMEOUT_S = 150
MEMCPY_BYTES = 448 << 20  # at least 4x the 105 MiB L3 of the reference host
MIB = 1 << 20

# metric names and units, as BENCHMARK.json declares them
_SPEC = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


def memcpy_gib_per_s() -> float:
    """Median bandwidth of a numpy copy far larger than the L3 cache."""
    src = np.ones(MEMCPY_BYTES // 8)
    dst = np.empty_like(src)
    np.copyto(dst, src)
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    return MEMCPY_BYTES / statistics.median(times) / (1 << 30)


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(workloads.SRC), str(BENCH)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


class Worker:
    """A worker process, from its start to the end of its warm-up."""

    def __init__(self, w, work: Path, seconds: float, trace: bool):
        cmd = [sys.executable, str(BENCH / "worker.py"), w.name, str(work),
               repr(seconds), "1" if trace else "0"]
        self.proc = subprocess.Popen(cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, env=worker_env())
        if self.proc.stdout.readline().strip() != "ready":
            self.finish("stop")
            raise RuntimeError("worker failed before its first operation")

    def finish(self, command: str) -> str:
        """Send go or stop; wait for the process and return its stdout."""
        try:
            out, _ = self.proc.communicate(command + "\n", timeout=WORKER_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def set_up(w, seed: int, work: Path, seconds: float, trace: bool) -> tuple[Worker, float]:
    """Generate the inputs and start a worker up to its first timed op."""
    t0 = time.perf_counter()
    workloads.generate(w, seed, work)
    worker = Worker(w, work, seconds, trace)
    return worker, time.perf_counter() - t0


def cli_seconds(op: workloads.Operation, work: Path) -> tuple[float, bool]:
    """Wall time of the same operation through `python -m taskmerge`, and
    whether its output matches the library's first output."""
    cmd = [sys.executable, "-m", "taskmerge", *op.cli_args(work / "recipe.json")]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, env=worker_env(),
                          timeout=WORKER_TIMEOUT_S)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        return wall, False
    if op.w.is_merge:
        return wall, filecmp.cmp(op.output, work / "first.out", shallow=False)
    first = json.loads((work / "first.out").read_text())
    return wall, json.loads(proc.stdout)["sq_norms"] == first["sq_norms"]


def run_workload(w, seed: int, seconds: float, trace: bool) -> dict:
    work = WORK / w.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    worker = None
    try:
        memcpy = memcpy_gib_per_s()
        setups = []
        for rep in range(1 if trace else SETUP_REPS):
            if rep:
                worker.finish("stop")
            worker, setup_s = set_up(w, seed, work, seconds, trace)
            setups.append(setup_s)
        res = json.loads(worker.finish("go").splitlines()[-1])
        if not Path(res["taskmerge"]).is_relative_to(workloads.SRC):
            raise RuntimeError(f"taskmerge imported from {res['taskmerge']}, not the checkout")

        attempted, failed = res["attempted"], res["failed"]
        first = work / "first.out"
        try:
            problem = (workloads.check_first_output(w, seed, work, first)
                       if first.exists() else "no successful operation")
        except Exception as e:  # an unreadable output fails the gate
            problem = repr(e)
        if problem:
            print(f"{w.name}: correctness gate failed: {problem}", file=sys.stderr)
            failed += 1

        op_s = statistics.median(res["op_times"])
        metrics = {"machine.memcpy_gib_per_s": memcpy}
        if trace:
            cli_wall, cli_ok = cli_seconds(workloads.Operation(w, work), work)
            attempted += 1
            failed += not cli_ok
            if not res["wrappers_restored"]:
                raise RuntimeError("traced run left a wrapper installed")
            metrics.update(res["layers"])
            metrics["cli.overhead_s"] = cli_wall - op_s
            metrics["trace.overhead_frac"] = statistics.median(res["traced_op_times"]) / op_s - 1
            metrics = {k: metrics[k] for k in PER_LAYER_UNITS}
        else:
            metrics.update(
                op_s=op_s,
                mparams_per_s=w.tasks * w.params / op_s / 1e6,
                peak_rss_mib=res["maxrss"] / MIB,
                peak_rss_buffers=(res["maxrss"] - res["rss_before"]) / (8 * w.largest),
                setup_s=statistics.median(setups),
            )
        return {"ops": len(res["op_times"]), "op_times": res["op_times"], "setups": setups,
                "attempted": attempted, "failed": failed, "metrics": metrics}
    finally:
        if worker is not None and worker.proc.poll() is None:
            worker.proc.kill()
            worker.proc.wait()
        shutil.rmtree(work, ignore_errors=True)


def report(w, trace: bool, r: dict) -> None:
    units = PER_LAYER_UNITS if trace else {**END_TO_END_UNITS, "machine.memcpy_gib_per_s": "GiB/s"}
    t = r["op_times"]
    print(f"== {w.name} ({'traced' if trace else 'untraced'}): T={w.tasks}, "
          f"{w.params} params per checkpoint, {r['ops']} timed ops "
          f"(min {min(t):.4f} s, max {max(t):.4f} s), set-ups {[round(s, 3) for s in r['setups']]}")
    for k, unit in units.items():
        print(f"{w.name} {k} = {r['metrics'][k]:.10g} {unit}")
    print(f"{w.name} failed_frac = {r['failed'] / r['attempted']:.6g} "
          f"({r['failed']} of {r['attempted']} ops)")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through run_workload's cleanup, which stops the worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    if not workloads.program_present():
        print(f"error: no taskmerge sources under {workloads.ROOT}; "
              "run from the root of a checkout", file=sys.stderr)
        return 2

    if args.workload == "all":
        runs = [(w, t) for w in workloads.WORKLOADS.values() for t in (False, True)]
    else:
        runs = [(workloads.WORKLOADS[args.workload], bool(args.trace))]
    attempted = failed = 0
    metrics = {}
    for w, trace in runs:
        r = run_workload(w, args.seed, args.seconds, trace)
        report(w, trace, r)
        attempted += r["attempted"]
        failed += r["failed"]
        units = PER_LAYER_UNITS if trace else END_TO_END_UNITS
        prefix = f"{w.name}/" if args.workload == "all" else ""
        metrics.update({prefix + k: {"value": r["metrics"][k], "unit": units[k]} for k in units})
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
