"""The command itself, on shrunk graphs: schema, determinism, clean exit."""

import json
import os
import shutil
import subprocess
import sys

import pytest

from conftest import E2E, ROOT
from lgbench import spec

RUN = os.path.join(E2E, "run.py")
EXACT = ("modeled_time_s", "modeled_speedup_vs_sync")


def quick(workload, trace=0, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "3",
         "--seconds", "0.5", "--trace", str(trace), "--quick"],
        stdout=subprocess.PIPE, text=True, timeout=120, cwd=cwd,
    )
    return done


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_run_twice_gives_equal_exact_metrics(workload):
    results = []
    for _ in range(2):
        done = quick(workload)
        assert done.returncode == 0, done.stdout
        got = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(got) == {"correct", "attempted", "failed", "metrics"}
        assert got["correct"] is True and got["failed"] == 0
        assert got["attempted"] >= 1
        assert list(got["metrics"]) == spec.E2E_NAMES
        for name, m in got["metrics"].items():
            assert m["unit"] == spec.E2E_UNITS[name] and m["value"] > 0
        results.append(got["metrics"])
    for name in EXACT:
        assert results[0][name]["value"] == results[1][name]["value"]


@pytest.mark.parametrize("workload", list(spec.WORKLOADS))
def test_quick_traced_run_reports_every_layer_metric(workload):
    done = quick(workload, trace=1)
    assert done.returncode == 0, done.stdout
    got = json.loads(done.stdout.strip().splitlines()[-1])
    assert got["correct"] is True
    assert list(got["metrics"]) == spec.LAYER_NAMES
    for name, m in got["metrics"].items():
        assert m["unit"] == spec.LAYER_UNITS[name]


def test_fails_without_the_program(tmp_path):
    """Only BENCHMARK.json and the benchmark's files: non-zero, no result."""
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(
        E2E, tmp_path / "benchmarks" / "e2e",
        ignore=shutil.ignore_patterns("out", "__pycache__", ".pytest_cache"),
    )
    done = quick(
        "sssp_road", cwd=tmp_path,
        script=str(tmp_path / "benchmarks" / "e2e" / "run.py"),
    )
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
