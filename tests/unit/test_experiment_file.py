"""Unit tests for JSON experiment-study files."""

import json

import pytest

from repro.bench.experiment_file import load_experiment_file, run_experiment_file
from repro.cli import main
from repro.errors import ConfigError


def write(tmp_path, doc):
    path = tmp_path / "study.json"
    path.write_text(json.dumps(doc))
    return str(path)


GOOD = {
    "name": "smoke",
    "defaults": {"machines": 4},
    "experiments": [
        {"graph": "road-ca-mini", "algorithm": "cc"},
        {"graph": "road-ca-mini", "algorithm": "cc", "engine": "powergraph-sync"},
        {"graph": "road-ca-mini", "algorithm": "kcore", "params": {"k": 3}},
    ],
}


class TestLoading:
    def test_good_file(self, tmp_path):
        name, configs = load_experiment_file(write(tmp_path, GOOD))
        assert name == "smoke"
        assert len(configs) == 3
        assert configs[0].machines == 4  # default applied
        assert configs[1].run.engine == "powergraph-sync"
        assert configs[2].resolved_params() == {"k": 3}

    def test_missing_file(self):
        with pytest.raises(ConfigError, match="cannot read"):
            load_experiment_file("/nonexistent/study.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="cannot read"):
            load_experiment_file(str(path))

    def test_unknown_experiment_key(self, tmp_path):
        doc = {"experiments": [{"graph": "g", "algorithm": "cc", "machnies": 4}]}
        with pytest.raises(ConfigError, match="unknown keys.*machnies"):
            load_experiment_file(write(tmp_path, doc))

    def test_unknown_top_level_key(self, tmp_path):
        doc = {"experiments": [{"graph": "g", "algorithm": "cc"}], "defautls": {}}
        with pytest.raises(ConfigError, match="top-level"):
            load_experiment_file(write(tmp_path, doc))

    def test_missing_required(self, tmp_path):
        doc = {"experiments": [{"algorithm": "cc"}]}
        with pytest.raises(ConfigError, match="missing 'graph'"):
            load_experiment_file(write(tmp_path, doc))

    def test_empty_experiments(self, tmp_path):
        with pytest.raises(ConfigError, match="non-empty"):
            load_experiment_file(write(tmp_path, {"experiments": []}))

    def test_params_must_be_object(self, tmp_path):
        doc = {"experiments": [{"graph": "g", "algorithm": "cc", "params": 3}]}
        with pytest.raises(ConfigError, match="params"):
            load_experiment_file(write(tmp_path, doc))


class TestExecution:
    def test_run_experiment_file(self, tmp_path):
        name, results = run_experiment_file(write(tmp_path, GOOD))
        assert len(results) == 3
        for cfg, r in results:
            assert r.stats.converged, cfg.label()

    def test_cli_command(self, tmp_path, capsys):
        rc = main(["experiment", "--config", write(tmp_path, GOOD)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "study: smoke" in out
        assert "powergraph-sync" in out


class TestPolicyFields:
    def test_policy_and_opts_accepted(self, tmp_path):
        doc = {
            "experiments": [{
                "graph": "road-ca-mini", "algorithm": "pagerank",
                "engine": "lazy-vertex", "machines": 4,
                "policy": "staleness", "policy_opts": {"mass_floor": 0.3},
            }],
        }
        _, configs = load_experiment_file(write(tmp_path, doc))
        policy = configs[0].run.policy
        assert policy.controller == "staleness"
        assert dict(policy.options) == {"mass_floor": 0.3}
        _, results = run_experiment_file(write(tmp_path, doc))
        assert results[0][1].stats.converged

    def test_policy_opts_must_be_object(self, tmp_path):
        doc = {"experiments": [{
            "graph": "g", "algorithm": "cc", "policy_opts": 3,
        }]}
        with pytest.raises(ConfigError, match="policy_opts"):
            load_experiment_file(write(tmp_path, doc))

    def test_named_policy_drives_the_harness(self, tmp_path):
        from repro.bench.configs import ExperimentConfig
        from repro.bench.harness import run_experiment
        from repro.runtime.run_config import RunConfig

        base = dict(graph="road-ca-mini", algorithm="pagerank", machines=4)
        paper = run_experiment(
            ExperimentConfig(run=RunConfig(engine="lazy-vertex"), **base)
        )
        batched = run_experiment(
            ExperimentConfig(
                run=RunConfig(engine="lazy-vertex", policy="batched"), **base
            )
        )
        # the batched controller coalesces partial exchanges
        assert batched.stats.coherency_points < paper.stats.coherency_points
