"""The benchmark's own tests.  From the root of a checkout:

    python3 -m pytest -q benchmark/test_benchmark.py

They start the benchmark in subprocesses and take a few minutes.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATING_UNITS = ("count", "ratio", "B")

sys.path.insert(0, str(BENCH))
import run  # noqa: E402


def bench(workload, trace, root=ROOT, seconds=1):
    return subprocess.run(
        [sys.executable, str(root / "benchmark" / "run.py"),
         "--workload", workload, "--seed", str(run.DEFAULT_SEED),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=600)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


def counts(result):
    return {name: m["value"] for name, m in result["metrics"].items()
            if m["unit"] in REPEATING_UNITS and name != "trace.overhead_frac"}


@pytest.fixture(scope="module")
def traced():
    return {w: result_of(bench(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_small_run_emits_every_end_to_end_metric(workload):
    result = result_of(bench(workload, 0))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_emits_every_per_layer_metric(traced):
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for result in traced.values():
        assert result["correct"] and result["failed"] == 0
        assert units(result) == want


def test_traced_counts_repeat(traced):
    for workload in WORKLOADS:
        again = result_of(bench(workload, 1))
        assert counts(again) == counts(traced[workload])


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "benchmark",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep", 0, root=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tail_is_the_workloads_percentile():
    samples = [float(i) for i in range(41)]
    assert run.tail(samples, 75) == (30.0, run.TAIL_BEYOND)
    assert run.tail(samples, 50) == (20.0, 20)


def test_scale_cancels_the_hosts_speed():
    assert run.scale(0.5, 1.0, 1.0) == 0.5
    assert run.scale(0.5, 0.5, 1.5) * 2.0 == run.scale(0.5, 0.25, 0.75)
