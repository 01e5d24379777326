"""Unit tests for the compute-skew (load imbalance) ledger."""

import numpy as np
import pytest

import repro
from repro.cluster.simulator import ClusterSim
from repro.graph.generators import powerlaw_graph


def _charge(sim, machine, edge_ops):
    """Charge ``edge_ops`` edge traversals to one machine, the rest idle."""
    edges = np.zeros(sim.num_machines)
    edges[machine] = edge_ops
    sim.add_compute_all(edges, np.zeros(sim.num_machines))


class TestSkewLedger:
    def test_balanced_work_has_skew_one(self):
        sim = ClusterSim(4)
        for m in range(4):
            _charge(sim, m, 1000)
        sim.barrier()
        assert sim.stats.compute_skew == pytest.approx(1.0)

    def test_single_hot_machine(self):
        sim = ClusterSim(4)
        _charge(sim, 0, 1000)
        sim.barrier()
        # max = 1000/teps, mean = 250/teps
        assert sim.stats.compute_skew == pytest.approx(4.0)

    def test_no_work_is_defined(self):
        sim = ClusterSim(4)
        sim.barrier()
        assert sim.stats.compute_skew == 1.0

    def test_accumulates_across_folds(self):
        sim = ClusterSim(2)
        _charge(sim, 0, 100)
        sim.barrier()
        _charge(sim, 0, 100)
        _charge(sim, 1, 100)
        sim.barrier()
        # fold 1: max 100, mean 50; fold 2: max 100, mean 100
        assert sim.stats.compute_skew == pytest.approx(200 / 150)


class TestEndToEnd:
    def test_vertex_cut_balances_skewed_graph(self):
        """§2.2: vertex-cut placement tames the hub-imbalance that an
        edge-cut suffers on power-law graphs."""
        g = powerlaw_graph(400, 4000, seed=3)
        r_vertex = repro.run(
            g, "pagerank", engine="powergraph-sync", machines=8,
            partitioner="coordinated",
        )
        r_edge = repro.run(
            g, "pagerank", engine="powergraph-sync", machines=8,
            partitioner="edge",
        )
        assert r_vertex.stats.compute_skew < r_edge.stats.compute_skew

    def test_skew_reported_for_all_engines(self, er_weighted):
        for engine in repro.ENGINE_NAMES:
            r = repro.run(er_weighted, "sssp", engine=engine, machines=4)
            assert r.stats.compute_skew >= 1.0, engine
