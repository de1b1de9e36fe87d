"""The process that runs a workload's operations.

Started by run.py once the inputs exist, so its peak resident memory is the
operations' own. Protocol on stdout: one line when set-up (import, open and
one untimed warm-up operation) is done; then, after `go` on stdin, one JSON
line with the run's measurements. `stop` on stdin ends it after set-up.

    python3 bench/worker.py WORKLOAD WORKDIR SECONDS TRACE
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

import workloads

MIN_OPS = 2
MIB = 1 << 20


def memory_bytes(field: str) -> int:
    """VmRSS (resident now) or VmHWM (peak resident) of this process.

    VmHWM is the peak that getrusage's ru_maxrss reports, but of this
    address space only: ru_maxrss also carries the parent's peak across
    fork and exec, and the parent generated the inputs."""
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith(field + ":"):
                return int(line.split()[1]) * 1024
    raise RuntimeError(f"{field} missing from /proc/self/status")


class Runner:
    """Runs operations and gates each output against the first one."""

    def __init__(self, op: workloads.Operation):
        self.op = op
        self.first: str | None = None
        self.attempted = 0
        self.failed = 0

    def run(self, call=None):
        """One operation; returns (seconds, result or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            result = call() if call else self.op()
        except Exception as e:  # a failed operation is counted, not fatal
            print(f"operation failed: {e!r}", file=sys.stderr)
            self.failed += 1
            return time.perf_counter() - t0, None
        return time.perf_counter() - t0, result

    def check(self, result) -> None:
        if result is None:
            return
        digest = self.op.fingerprint(result)
        if self.first is None:
            self.first = digest
        elif digest != self.first:
            print("output differs from the first operation's", file=sys.stderr)
            self.failed += 1

    def loop(self, seconds: float, call=None) -> list[float]:
        """Closed loop: the next operation starts when the last one ends."""
        times: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(times) < MIN_OPS or time.perf_counter() < deadline:
            dt, result = self.run(call)
            times.append(dt)
            self.check(result)
        return times


def measure(seconds: float, runner: Runner, rss0: int) -> dict:
    times = runner.loop(seconds)
    return {
        "op_times": times,
        "rss_before": rss0,
        "maxrss": memory_bytes("VmHWM"),
    }


def measure_traced(w, work: Path, seconds: float, runner: Runner) -> dict:
    import spans

    untraced = runner.loop(seconds / 2)
    tracer = spans.Tracer()
    root = "op"
    tracer.install()
    try:
        traced = runner.loop(seconds / 2, lambda: tracer.call(root, runner.op))
    finally:
        tracer.uninstall()
    tracer.write(work.parent / f"{w.name}.spans.jsonl")
    per_op = [spans.layer_metrics(agg, root) for agg in tracer.per_root()]
    layers = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}

    # tracemalloc slows every allocation, so memory gets its own operation
    tracemalloc.start()
    try:
        _, result = runner.run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    runner.check(result)
    layers["mem.traced_peak_mib"] = peak / MIB
    layers["mem.traced_peak_buffers"] = peak / (8 * w.largest)
    layers["mem.peak_live_buffers"] = getattr(result, "peak_live_buffers", 0)
    return {
        "op_times": untraced,
        "traced_op_times": traced,
        "layers": layers,
        "wrappers_restored": tracer.restored(),
    }


def main(argv: list[str]) -> int:
    name, work, seconds, trace = argv[0], Path(argv[1]), float(argv[2]), argv[3] == "1"
    w = workloads.find(name)
    op = workloads.Operation(w, work)
    runner = Runner(op)
    rss0 = memory_bytes("VmRSS")
    _, result = runner.run()
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    runner.check(result)
    if result is not None:
        op.save_first(result, work / "first.out")
    if trace:
        out = measure_traced(w, work, seconds, runner)
    else:
        out = measure(seconds, runner, rss0)
    out.update(attempted=runner.attempted, failed=runner.failed,
               taskmerge=sys.modules["taskmerge"].__file__)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
