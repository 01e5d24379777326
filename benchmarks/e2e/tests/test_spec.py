"""BENCHMARK.json, the spec and the result line agree and fit the contract."""

import json
import os
import re

import run as bench_run
from conftest import ROOT
from lgbench import spec
from lgbench.workloads import Outcome

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_is_the_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        assert json.load(fh) == spec.benchmark_json()


def test_names_units_and_limits():
    doc = spec.benchmark_json()
    assert set(doc) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert 2 <= len(doc["workloads"]) <= 8
    assert 1 <= len(doc["end_to_end"]) <= 16
    assert 1 <= len(doc["per_layer"]) <= 128
    names = (
        [w["name"] for w in doc["workloads"]]
        + [m["name"] for m in doc["end_to_end"]]
        + [m["name"] for m in doc["per_layer"]]
    )
    assert len(set(names)) == len(names)
    for name in names:
        assert NAME.match(name), name
    for w in doc["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in doc["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in doc["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert UNIT.match(m["unit"]), m
        assert m["better"] in ("lower", "higher")
    setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [
        {"name": "setup_s", "unit": "s", "better": "lower",
         "bound": max(m["bound"] for m in doc["end_to_end"])}
    ]
    assert isinstance(doc["run_seconds"], int) and 1 <= doc["run_seconds"] <= 60
    assert len(json.dumps(doc)) < 64 * 1024


def test_result_line_round_trips():
    metrics = {name: 1.5 + i for i, name in enumerate(spec.E2E_NAMES)}
    line = bench_run.result_line(Outcome(metrics, attempted=7, failed=0))
    got = json.loads(line)
    assert set(got) == {"correct", "attempted", "failed", "metrics"}
    assert got["correct"] is True and got["attempted"] == 7
    assert {k: v["value"] for k, v in got["metrics"].items()} == metrics
    assert {k: v["unit"] for k, v in got["metrics"].items()} == spec.E2E_UNITS
    assert json.loads(
        bench_run.result_line(Outcome(metrics, attempted=7, failed=1))
    )["correct"] is False


def test_identical_gated_series_are_refused():
    metrics = {name: 2.0 + i for i, name in enumerate(spec.E2E_NAMES)}
    assert bench_run.check_outcome(Outcome(metrics, 1, 0), trace=False) == []
    metrics["op_s"] = metrics["setup_s"]
    assert bench_run.check_outcome(Outcome(metrics, 1, 0), trace=False)
