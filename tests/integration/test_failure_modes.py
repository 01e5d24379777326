"""Failure injection: the library must fail loudly and precisely.

A reproduction harness that silently produces wrong numbers is worse
than one that crashes; these tests pin the error paths.
"""

import numpy as np
import pytest

import repro
from repro.algorithms import PageRankDeltaProgram, SSSPProgram
from repro.api.vertex_program import DeltaProgram, SUM_ALGEBRA
from repro.core import LazyBlockAsyncEngine, build_lazy_graph
from repro.errors import ConvergenceError, EngineError
from repro.graph.digraph import DiGraph
from repro.powergraph import PowerGraphSyncEngine


class OscillatorProgram(DeltaProgram):
    """A deliberately non-converging program: every apply re-fires."""

    name = "oscillator"
    algebra = SUM_ALGEBRA

    def make_state(self, mg):
        return {"vdata": np.zeros(mg.num_local_vertices)}

    def initial_scatter(self, mg, state):
        return np.ones(mg.num_local_vertices), np.ones(
            mg.num_local_vertices, dtype=bool
        )

    def apply(self, mg, state, idx, accum):
        state["vdata"][idx] += accum
        return np.ones(idx.size), np.ones(idx.size, dtype=bool)

    def edge_message(self, mg, edge_sel, delta_per_edge):
        return delta_per_edge


class TestConvergenceFailure:
    def test_superstep_budget_enforced_eager(self, er_graph):
        pg = build_lazy_graph(er_graph, 4, seed=1)
        eng = PowerGraphSyncEngine(pg, OscillatorProgram(), max_supersteps=10)
        with pytest.raises(ConvergenceError, match="did not converge"):
            eng.run()

    def test_superstep_budget_enforced_lazy(self, er_graph):
        pg = build_lazy_graph(er_graph, 4, seed=1)
        eng = LazyBlockAsyncEngine(pg, OscillatorProgram(), max_supersteps=10)
        with pytest.raises(ConvergenceError):
            eng.run()

    def test_budget_must_be_positive(self, er_graph):
        pg = build_lazy_graph(er_graph, 4, seed=1)
        with pytest.raises(EngineError, match="max_supersteps"):
            PowerGraphSyncEngine(pg, PageRankDeltaProgram(), max_supersteps=0)

    def test_tight_budget_on_real_algorithm(self, er_graph):
        pg = build_lazy_graph(er_graph, 4, seed=1)
        eng = PowerGraphSyncEngine(
            pg, PageRankDeltaProgram(tolerance=1e-9), max_supersteps=2
        )
        with pytest.raises(ConvergenceError):
            eng.run()


class TestInputGuards:
    def test_weights_required_for_sssp(self, er_graph):
        pg = build_lazy_graph(er_graph, 4, seed=1)
        with pytest.raises(EngineError, match="weights"):
            LazyBlockAsyncEngine(pg, SSSPProgram(0))

    def test_run_api_attaches_weights_instead(self, er_graph):
        # the high-level API repairs the same situation
        r = repro.run(er_graph, "sssp", machines=4)
        assert r.stats.converged

    def test_empty_edge_graph(self):
        g = DiGraph(5, [], [])
        r = repro.run(g, "cc", machines=3)
        # five isolated vertices: each its own component
        assert np.array_equal(r.values, np.arange(5.0))

    def test_single_vertex_graph(self):
        g = DiGraph(1, [], [])
        r = repro.run(g, "pagerank", machines=2)
        assert r.values[0] == pytest.approx(0.15)

    def test_unreachable_source_component(self, er_weighted):
        # a source with no out-edges: everything else stays at infinity
        g = er_weighted
        sinks = np.flatnonzero(g.out_degrees() == 0)
        if sinks.size == 0:
            pytest.skip("no sink vertex in fixture")
        r = repro.run(g, "sssp", machines=4, source=int(sinks[0]))
        assert r.values[sinks[0]] == 0.0
        finite = np.isfinite(r.values)
        assert finite.sum() == 1
