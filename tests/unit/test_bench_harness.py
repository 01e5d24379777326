"""Unit tests for the benchmark harness and reporting."""

import pytest

from repro.bench.configs import (
    ExperimentConfig,
    default_kcore_k,
    default_program_params,
    FIG9_ALGORITHMS,
    FIG9_GRAPHS,
)
from repro.bench.harness import (
    clear_caches,
    compare_lazy_vs_sync,
    run_experiment,
    session_for,
)
from repro.bench.reporting import format_series, format_table
from repro.errors import ConfigError
from repro.runtime.run_config import RunConfig


class TestConfigs:
    def test_fig9_axes(self):
        assert len(FIG9_GRAPHS) == 8
        assert set(FIG9_ALGORITHMS) == {"kcore", "pagerank", "sssp", "cc"}

    def test_kcore_k_by_class(self):
        assert default_kcore_k("road-usa-mini") == 3
        assert default_kcore_k("twitter-mini") == 10

    def test_default_params(self):
        assert default_program_params("sssp", "road-usa-mini") == {"source": 0}
        assert "tolerance" in default_program_params("pagerank", "twitter-mini")
        with pytest.raises(ConfigError):
            default_program_params("bogus", "twitter-mini")

    def test_config_param_overlay(self):
        cfg = ExperimentConfig(
            "twitter-mini", "kcore", run=RunConfig(params={"k": 7})
        )
        assert cfg.resolved_params() == {"k": 7}
        assert ExperimentConfig("twitter-mini", "kcore").resolved_params() == {
            "k": 10
        }

    def test_no_field_on_both_config_types(self):
        from dataclasses import fields

        experiment = {f.name for f in fields(ExperimentConfig)}
        assert not experiment & set(RunConfig.field_names())

    def test_label(self):
        cfg = ExperimentConfig("road-ca-mini", "cc", machines=8)
        assert "cc/road-ca-mini@8" in cfg.label()


class TestHarness:
    def setup_method(self):
        clear_caches()

    def test_graph_cache_shares_objects(self):
        from repro.algorithms import make_program

        session = session_for("road-ca-mini", 4)
        assert session_for("road-ca-mini", 4) is session
        # one prepared variant per program requirement, shared by runs
        directed = session.partitioned(make_program("pagerank"))
        assert session.partitioned(make_program("pagerank")) is directed
        assert session.partitioned(make_program("cc")) is not directed

    def test_partition_cache(self):
        a = session_for("road-ca-mini", 4)
        assert session_for("road-ca-mini", 8) is not a
        assert session_for("road-ca-mini", 4, partitioner="random") is not a
        assert session_for("road-ca-mini", 4, seed=1) is not a

    def test_clear_caches_closes_sessions(self):
        session = session_for("road-ca-mini", 4)
        clear_caches()
        with pytest.raises(ConfigError, match="closed"):
            session.run("cc")
        assert session_for("road-ca-mini", 4) is not session

    def test_run_config_and_cache(self):
        cfg = ExperimentConfig("road-ca-mini", "cc", machines=4)
        a = run_experiment(cfg)
        b = run_experiment(cfg)
        assert a.stats.converged
        # both ran on the one resident session, deterministically
        assert session_for("road-ca-mini", 4).runs_completed == 2
        assert a.stats.modeled_time_s == b.stats.modeled_time_s

    def test_run_config_unknown_engine(self):
        cfg = ExperimentConfig(
            "road-ca-mini", "cc", machines=4, run=RunConfig(engine="bogus")
        )
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_explicit_policy_on_eager_engine_fails_loudly(self):
        cfg = ExperimentConfig(
            "road-ca-mini", "cc", machines=4,
            run=RunConfig(engine="powergraph-sync", policy="paper"),
        )
        with pytest.raises(ConfigError, match="eagerly coherent"):
            run_experiment(cfg)

    def test_compare_row_fields(self):
        row = compare_lazy_vs_sync("road-ca-mini", "cc", machines=4)
        assert set(row) >= {"speedup", "norm_syncs", "norm_traffic"}
        assert row["speedup"] > 0
        assert 0 <= row["norm_syncs"]


class TestReporting:
    def test_table_alignment(self):
        text = format_table(
            ["name", "x"], [["a", 1.5], ["longer", 22]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.500" in text
        assert all(len(l) == len(lines[1]) for l in lines[2:])

    def test_series(self):
        text = format_series("P", [8, 16], {"sync": [1.0, 2.0], "lazy": [0.5, 0.8]})
        assert "sync" in text and "lazy" in text
        assert "16" in text
