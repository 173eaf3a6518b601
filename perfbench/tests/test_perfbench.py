"""The benchmark's own tests.

    python3 -m pytest perfbench/tests

A smallest-size run of every workload, traced and untraced; a check that
a deliberately wrong expectation shows up as failed ops; and a run in a
directory without symtest, which must fail without printing a result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import expected  # noqa: E402
import spans  # noqa: E402
import symtest  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / BENCH.name / "run.py"), *argv],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run(workload, trace):
    p = bench("--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", trace, "--size", "smoke")
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        if trace == "0":
            assert got["value"] > 0
    if trace == "1":
        # Loose at this size, where the benchmark's own glue between spans
        # is a visible part of a millisecond of traced work.
        assert 0.75 < result["metrics"]["trace.layer_share"]["value"] <= 1.0


@pytest.mark.parametrize(
    "workload, name, change, ops_per_cycle, failed_kind, failed_per_cycle",
    [
        ("wide", "pipeline_output", lambda out: (-out[0], out[1]), 6, "run", 3),
        ("sweep", "equiv_listing", lambda text: text.replace("equivalent", "not equivalent"), 3, "equiv", 1),
        ("tables", "parity_line", lambda line: line + " ", 19, "table", 3),
    ],
)
def test_wrong_expectation_shows_in_fail_ratio(
    monkeypatch, workload, name, change, ops_per_cycle, failed_kind, failed_per_cycle
):
    real = getattr(expected, name)
    monkeypatch.setattr(expected, name, lambda *args: change(real(*args)))
    wl = workloads.WORKLOADS[workload]("smoke", seed=3)
    wl.setup()
    runner = worker.Runner(wl)
    runner.run_cycles(0)  # exactly one cycle
    assert (runner.attempted, runner.failed) == (ops_per_cycle, failed_per_cycle)
    assert all(f.startswith(failed_kind + ":") for f in runner.failures)


def test_recorder_knows_every_reported_span_and_uninstalls():
    original = symtest.pipeline.butterfly
    recorder = spans.Recorder()
    recorder.install(symtest)
    try:
        assert symtest.pipeline.butterfly is symtest.circuits.butterfly is symtest.statevec.butterfly
        assert symtest.pipeline.butterfly is not original
    finally:
        recorder.uninstall()
    assert symtest.pipeline.butterfly is original
    assert set(spans.TIMED_SPANS + spans.COUNTED_SPANS) <= set(recorder.names)


def test_fails_without_symtest(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    p = bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout
