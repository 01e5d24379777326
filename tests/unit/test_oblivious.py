"""Unit tests for the oblivious (uncoordinated) greedy vertex-cut."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.partition.base import PARTITIONER_NAMES, partition_graph
from repro.partition.oblivious_cut import oblivious_cut
from repro.partition.partitioned_graph import PartitionedGraph


class TestObliviousCut:
    def test_registered(self):
        assert "oblivious" in PARTITIONER_NAMES

    def test_valid_assignment(self, er_graph):
        asg = partition_graph(er_graph, 6, "oblivious", seed=2)
        assert asg.shape == (er_graph.num_edges,)
        assert asg.min() >= 0 and asg.max() < 6

    def test_deterministic(self, er_graph):
        a = oblivious_cut(er_graph, 5, seed=7)
        b = oblivious_cut(er_graph, 5, seed=7)
        assert np.array_equal(a, b)

    def test_balanced(self, er_graph):
        asg = oblivious_cut(er_graph, 6, seed=2)
        loads = np.bincount(asg, minlength=6)
        assert loads.max() <= 1.2 * er_graph.num_edges / 6 + 1

    def test_builds_valid_partitioned_graph(self, er_graph):
        asg = oblivious_cut(er_graph, 5, seed=3)
        PartitionedGraph.build(er_graph, asg, 5).validate()

    def test_no_worse_than_random_no_better_than_coordinated_on_skewed(
        self, social_graph
    ):
        """Private placement state loses to the coordinated variant on
        locality-free skewed graphs (the cost of obliviousness)."""
        P = 8
        lam = {
            m: PartitionedGraph.build(
                social_graph, partition_graph(social_graph, P, m, seed=1), P
            ).replication_factor
            for m in ("coordinated", "oblivious", "random")
        }
        assert lam["coordinated"] <= lam["oblivious"] + 1e-9
        assert lam["oblivious"] <= lam["random"] * 1.1

    def test_single_machine(self, er_graph):
        assert np.all(oblivious_cut(er_graph, 1, seed=1) == 0)

    def test_empty_graph(self):
        asg = oblivious_cut(DiGraph(3, [], []), 4)
        assert asg.size == 0

    def test_machine_cap(self, er_graph):
        with pytest.raises(PartitionError, match="supports up to"):
            oblivious_cut(er_graph, 4096)

    def test_engine_equivalence(self, er_weighted):
        """Engines stay correct on oblivious layouts too."""
        from repro.algorithms import SSSPProgram, sssp_reference
        from repro.core import LazyBlockAsyncEngine

        asg = oblivious_cut(er_weighted, 5, seed=4)
        pg = PartitionedGraph.build(er_weighted, asg, 5)
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        ref = sssp_reference(er_weighted, 0)
        finite = np.isfinite(ref)
        assert np.allclose(r.values[finite], ref[finite])
