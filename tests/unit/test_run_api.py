"""Unit tests for the public repro.run() entry point."""

import numpy as np
import pytest

import repro
from repro.errors import ConfigError


class TestRun:
    def test_run_by_names(self):
        r = repro.run("road-ca-mini", "cc", machines=4)
        assert r.engine == "lazy-block"
        assert r.stats.converged

    def test_run_with_program_instance(self, er_weighted):
        prog = repro.make_program("sssp", source=3)
        r = repro.run(er_weighted, prog, machines=4)
        assert r.values[3] == 0.0

    def test_algorithm_params_forwarded(self, er_symmetric):
        r = repro.run(er_symmetric, "kcore", machines=4, k=4)
        # k=4 core members keep core >= 4
        survivors = r.values[r.values > 0]
        assert survivors.size == 0 or survivors.min() >= 4

    def test_params_with_instance_rejected(self, er_graph):
        prog = repro.make_program("pagerank")
        with pytest.raises(ConfigError, match="algorithm_params"):
            repro.run(er_graph, prog, machines=2, tolerance=1e-4)

    def test_unknown_engine(self, er_graph):
        with pytest.raises(ConfigError, match="unknown engine"):
            repro.run(er_graph, "pagerank", engine="bogus", machines=2)

    def test_removed_interval_kwarg_raises(self, er_graph):
        with pytest.raises(ConfigError, match='use policy="simple"'):
            repro.run(er_graph, "pagerank", machines=2, interval="simple")

    def test_never_interval_via_policy(self, er_graph):
        r = repro.run(er_graph, "pagerank", machines=2,
                      policy="never")
        assert r.stats.local_iterations == 0

    def test_every_engine_runs(self, er_weighted):
        for engine in repro.ENGINE_NAMES:
            r = repro.run(er_weighted, "sssp", engine=engine, machines=3)
            assert r.stats.converged, engine


class TestPrepareGraph:
    def test_symmetrizes_for_cc(self, er_graph):
        prog = repro.make_program("cc")
        g = repro.prepare_graph(er_graph, prog)
        assert np.array_equal(g.in_degrees(), g.out_degrees())

    def test_attaches_weights_for_sssp(self, er_graph):
        prog = repro.make_program("sssp")
        g = repro.prepare_graph(er_graph, prog)
        assert g.weights is not None

    def test_dataset_resolution(self):
        prog = repro.make_program("pagerank")
        g = repro.prepare_graph("road-ca-mini", prog)
        assert g.name == "road-ca-mini"

    def test_weighted_dataset_for_sssp(self):
        prog = repro.make_program("sssp")
        g = repro.prepare_graph("road-ca-mini", prog)
        assert g.weights is not None


class TestRegistry:
    def test_program_names(self):
        assert set(repro.program_names()) == {
            "pagerank", "ppr", "sssp", "cc", "kcore", "bfs", "msbfs",
        }

    def test_unknown_program(self):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError, match="unknown algorithm"):
            repro.make_program("nope")

    def test_engine_names(self):
        assert set(repro.ENGINE_NAMES) == {
            "powergraph-sync",
            "powergraph-async",
            "powergraph-gas-sync",
            "lazy-block",
            "lazy-vertex",
        }

    def test_engine_names_match_registry(self):
        from repro.runtime.registry import engine_names

        assert repro.ENGINE_NAMES == engine_names()

    def test_specs_are_complete(self):
        for spec in repro.engine_specs():
            assert spec.cls.name == spec.name
            assert spec.family in ("eager", "lazy")
            assert spec.description

    def test_gas_engine_reachable_from_run(self):
        r = repro.run(
            "road-ca-mini", "cc", engine="powergraph-gas-sync", machines=4
        )
        assert r.engine == "powergraph-gas-sync"
        assert r.stats.converged
        # eager cost structure: 3 syncs per superstep, no lazy points
        assert r.stats.global_syncs == 3 * r.stats.supersteps

    def test_gas_engine_rejects_delta_program_instance(self, er_graph):
        prog = repro.make_program("pagerank")
        with pytest.raises(ConfigError, match="GASProgram"):
            repro.run(er_graph, prog, engine="powergraph-gas-sync", machines=2)

    def test_delta_engine_rejects_gas_program_instance(self, er_graph):
        from repro.powergraph.gas import GASPageRank

        with pytest.raises(ConfigError, match="DeltaProgram"):
            repro.run(er_graph, GASPageRank(), engine="lazy-block", machines=2)

    def test_gas_engine_has_no_bfs_formulation(self, er_graph):
        from repro.errors import AlgorithmError

        with pytest.raises(AlgorithmError, match="no classic GAS"):
            repro.run(
                er_graph, "bfs", engine="powergraph-gas-sync", machines=2
            )
