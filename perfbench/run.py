"""The symtest benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload {sweep,wide,tables,all} --seed N
                             --seconds S --trace {0,1}

Run from a checkout that has symtest's sources under src/.  Each workload
runs in its own process (worker.py) with one closed-loop client: the next
op starts only after the previous one returned and its output was checked
against expectations derived from the seed without calling symtest.

With --trace 0 it prints the end-to-end metrics; with --trace 1, the
per-layer metrics of a traced run.  Every line but the last is for
people; the last is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every op was correct.

The JSON metrics are the ones BENCHMARK.json gates, which every workload
must report: setup_s, peak_rss_mb, and op timings as multiples of a
reference kernel timed in the same run (worker.Reference says why):
main_p50_ref and side_p50_ref are the median latencies of the workload's
first and second op kinds (verify/equiv, run/fault, table/gen), and
ops_per_ref is correct ops per reference time.  The lines for people
also give the raw per-kind medians in ms with their tails, ops_per_s and
fail_ratio.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

# setup_s is the median over this many extra process starts plus the run's own.
SETUP_PROBES = 8
# Each worker must end well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


class BenchError(Exception):
    pass


def machine() -> dict:
    """nproc, cache sizes and interpreter, recorded with each result."""
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            kind = (index / "type").read_text().strip()
            if kind != "Instruction":
                caches["L" + (index / "level").read_text().strip()] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cache": caches or "unknown",
        "python": platform.python_version(),
        "blas_threads": 1,
        "loadavg": [round(x, 2) for x in os.getloadavg()],
    }


def worker_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, workload: str, setup_only: bool) -> tuple[float, dict | None]:
    """Start one worker; returns (seconds from spawn to "ready", its result)."""
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--size", args.size,
    ] + (["--setup-only"] if setup_only else [])
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(), cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - t0
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    return setup, None if setup_only else json.loads(out.strip().splitlines()[-1])


def fmt(value) -> str:
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def run_workload(args, workload: str) -> tuple[dict, dict]:
    """Run one workload; prints its metrics for people and returns (result, metrics)."""
    setups = [] if args.trace else [run_worker(args, workload, True)[0] for _ in range(SETUP_PROBES)]
    setup, result = run_worker(args, workload, False)
    attempted, failed = result["attempted"], result["failed"]
    for failure in result["failures"]:
        print(f"# FAIL {workload}: {failure}", file=sys.stderr)
    about = " ".join(workloads.WORKLOADS[workload].__doc__.split())
    print(f"## {workload} (seed {args.seed}): {about}")
    if args.trace:
        print("# per-layer metrics over the traced set-up and one traced cycle; nothing waits")
        print("# on a queue, lock or thread in symtest, so no per-layer wait times are recorded")
        metrics = {name: {"value": v, "unit": u} for name, (v, u) in result["per_layer"].items()}
    else:
        stats = list(result["kinds"].values())
        ref_ms = result["reference_ms"]
        metrics = {
            "setup_s": {"value": statistics.median(setups + [setup]), "unit": "s"},
            "ops_per_ref": {"value": result["ops_per_s"] * ref_ms / 1000, "unit": "1/ref"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "main_p50_ref": {"value": stats[0]["p50"] / ref_ms, "unit": "ref"},
            "side_p50_ref": {"value": stats[1]["p50"] / ref_ms, "unit": "ref"},
        }
        print(f"setup_s {fmt(metrics['setup_s']['value'])} s  (median of {len(setups) + 1} process starts)")
        print(f"ops_per_s {fmt(result['ops_per_s'])} 1/s  (correct ops per busy second, one client)")
        print(f"peak_rss_mb {fmt(result['peak_rss_mb'])} MB")
        print(f"fail_ratio {fmt(failed / attempted)} ratio  ({failed} of {attempted} ops)")
        for kind, s in result["kinds"].items():
            tail = f"p{s['tail'][0]:g} {fmt(s['tail'][1])} ms" if s["tail"] else "no tail: under 10 samples beyond p75"
            print(f"{kind}_p50_ms {fmt(s['p50'])} ms  (n={s['n']}, {tail})")
        print(f"# gated: timings over the reference kernel's median of {fmt(ref_ms)} ms in this run")
        for name in ("ops_per_ref", "main_p50_ref", "side_p50_ref"):
            print(f"{name} {fmt(metrics[name]['value'])} {metrics[name]['unit']}")
    if args.trace:
        for name, m in metrics.items():
            print(f"{name} {fmt(m['value'])} {m['unit']}")
    return {"attempted": attempted, "failed": failed, "numpy": result["numpy"]}, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=list(workloads.SIZES), default="full",
                        help="smoke: the smallest size of every op, for the benchmark's own tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "symtest" / "__init__.py").is_file():
        print(f"perfbench: no symtest sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    info = machine()
    print(f"# seed {args.seed}, {args.seconds:g} s per workload, trace {args.trace}, size {args.size}")
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            result, m = run_workload(args, name)
            info["numpy"] = result["numpy"]
            attempted += result["attempted"]
            failed += result["failed"]
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update({prefix + k: v for k, v in m.items()})
    except (BenchError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    info["loadavg_end"] = [round(x, 2) for x in os.getloadavg()]
    print("# machine " + json.dumps(info))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
