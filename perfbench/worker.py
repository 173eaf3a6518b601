"""One workload in its own process; run.py starts it.

Prints "ready" once symtest is imported and the workload's kept program
objects are built (run.py times process start to that line as setup_s),
then runs whole op cycles with one closed-loop client and prints one JSON
line of results.  With --trace 1 it builds the kept objects with every
symtest layer wrapped, runs untraced for half the time, then runs exactly
one cycle wrapped again, so the per-layer counts of a seed repeat exactly.
"""

import argparse
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SPANS_DIR = ROOT / ".bench_out"
TAIL_PERCENTILES = (99.9, 99, 95, 90, 75)
MIN_TAIL_SAMPLES = 10


def latency_stats(values_ms: list[float]) -> dict:
    """Median, sample count, and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values_ms)
    n = len(ordered)
    tail = None
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100 * n)
        if n - rank >= MIN_TAIL_SAMPLES:
            tail = [p, ordered[rank - 1]]
            break
    return {"n": n, "p50": statistics.median(ordered), "tail": tail}


class Reference:
    """A fixed piece of work, independent of symtest, timed after every op.

    The host the benchmark was defined on changed speed by up to 1.8x
    between runs a minute apart, and moved op latencies with it; dividing
    them by the reference time measured in the same run cancels most of
    that drift.  The kernel mixes the kinds of work the workloads do: an
    interpreter loop, allocation-heavy tuple, string and big-int handling,
    and numpy passes over arrays larger than L2.
    """

    def __init__(self):
        self.a = np.ones(1 << 19)
        self.b = np.ones(1 << 19)

    def seconds(self) -> float:
        t0 = time.perf_counter()
        total = 0
        for i in range(30_000):
            total += i * i
        bits = tuple(i & 1 for i in range(30_000))
        total += int("".join(map(str, bits)), 2) >> 3
        for _ in range(8):
            np.add(self.a, self.b, out=self.a)
        return time.perf_counter() - t0


class Runner:
    """One closed-loop client: the next op starts after the last one returned and was checked."""

    def __init__(self, workload: workloads.Workload):
        self.workload = workload
        self.reference = Reference()
        self.reference_ms: list[float] = []
        self.samples_ms = {kind: [] for kind in workload.kinds}
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def run_op(self, op: workloads.Op) -> tuple[float, bool]:
        """Run and check one op; returns its latency in seconds and whether it was right."""
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as e:  # an unexpected exception is a failed op, not a crash
            latency = time.perf_counter() - t0
            problem = f"{type(e).__name__}: {e}"
        else:
            latency = time.perf_counter() - t0
            problem = op.check(result)
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.failures.append(f"{op.kind}: {problem}")
        return latency, problem is None

    def run_cycles(self, seconds: float) -> float:
        """Repeat whole cycles, at least one, while the next would end nearer
        to `seconds` than the last did; returns correct ops per busy second."""
        busy, correct = 0.0, 0
        start = time.perf_counter()
        while True:
            cycle_start = time.perf_counter()
            for op in self.workload.cycle():
                latency, ok = self.run_op(op)
                self.samples_ms[op.kind].append(1000 * latency)
                self.reference_ms.append(1000 * self.reference.seconds())
                busy += latency
                correct += ok
            now = time.perf_counter()
            if now - start + (now - cycle_start) / 2 >= seconds:
                return correct / busy

    def run_traced_cycle(self, recorder: spans.Recorder, package) -> tuple[float, float]:
        """One cycle with every layer wrapped; returns (busy seconds, correct ops per busy second)."""
        ops = self.workload.cycle()
        busy, correct = 0.0, 0
        recorder.install(package)
        try:
            for i, op in enumerate(ops):
                recorder.op_id = i
                latency, ok = self.run_op(op)
                busy += latency
                correct += ok
        finally:
            recorder.uninstall()
        return busy, correct / busy


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload](args.size, args.seed)
    recorder = spans.Recorder()
    if args.trace:
        # The traced run also records the kept objects' construction, so
        # that work moved into set-up shows per layer too.
        import symtest

        recorder.install(symtest)
        t0 = time.perf_counter()
        try:
            workload.setup()
        finally:
            setup_s = time.perf_counter() - t0
            recorder.uninstall()
    else:
        workload.setup()
    print("ready", flush=True)
    if args.setup_only:
        return 0

    import symtest

    runner = Runner(workload)
    out = {"workload": args.workload, "seed": args.seed, "numpy": np.__version__}
    if args.trace:
        untraced = runner.run_cycles(args.seconds / 2)
        busy, traced = runner.run_traced_cycle(recorder, symtest)
        SPANS_DIR.mkdir(exist_ok=True)
        recorder.save(SPANS_DIR / f"spans-{args.workload}.npz")
        out["per_layer"] = recorder.metrics(setup_s, busy, traced / untraced)
    else:
        out["ops_per_s"] = runner.run_cycles(args.seconds)
        out["kinds"] = {kind: latency_stats(v) for kind, v in runner.samples_ms.items()}
        out["reference_ms"] = statistics.median(runner.reference_ms)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out.update(attempted=runner.attempted, failed=runner.failed, failures=runner.failures[:5])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
