"""Unit tests for replica-set computation and λ."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.partition.random_cut import random_cut
from repro.partition.replication import replica_csr, replication_factor


def replica_sets(graph, assignment, num_machines):
    """Machines hosting each vertex, as a list of Python sets: the
    oracle for :func:`replica_csr`. Vertices with no edges get an empty
    set."""
    sets = [set() for _ in range(graph.num_vertices)]
    for endpoint in (graph.src, graph.dst):
        if endpoint.size == 0:
            continue
        key = endpoint.astype(np.int64) * num_machines + assignment
        for k in np.unique(key):
            sets[int(k) // num_machines].add(int(k) % num_machines)
    return sets


class TestReplicaSets:
    def test_hand_case(self):
        #  edges: 0->1 on m0, 1->2 on m1  => vertex 1 spans both machines
        g = DiGraph(3, [0, 1], [1, 2])
        asg = np.array([0, 1], dtype=np.int32)
        sets = replica_sets(g, asg, 2)
        assert sets[0] == {0}
        assert sets[1] == {0, 1}
        assert sets[2] == {1}

    def test_csr_matches_sets(self, er_graph):
        P = 5
        asg = random_cut(er_graph, P, seed=4)
        sets = replica_sets(er_graph, asg, P)
        indptr, machines = replica_csr(er_graph, asg, P)
        for v in range(er_graph.num_vertices):
            got = set(machines[indptr[v] : indptr[v + 1]].tolist())
            assert got == sets[v]

    def test_lambda_hand_case(self):
        g = DiGraph(3, [0, 1], [1, 2])
        asg = np.array([0, 1], dtype=np.int32)
        assert replication_factor(g, asg, 2) == pytest.approx(4 / 3)

    def test_lambda_single_machine_is_one(self, er_graph):
        asg = np.zeros(er_graph.num_edges, dtype=np.int32)
        assert replication_factor(er_graph, asg, 1) == pytest.approx(1.0)

    def test_lambda_counts_lonely_vertices(self):
        g = DiGraph(5, [0], [1])  # vertices 2,3,4 have no edges
        asg = np.array([0], dtype=np.int32)
        assert replication_factor(g, asg, 2) == pytest.approx(1.0)

    def test_lambda_at_least_one(self, er_graph):
        for P in (1, 2, 8):
            asg = random_cut(er_graph, P, seed=1)
            assert replication_factor(er_graph, asg, P) >= 1.0

    def test_lambda_monotone_in_machines(self, er_graph):
        lams = [
            replication_factor(er_graph, random_cut(er_graph, P, seed=1), P)
            for P in (2, 4, 8, 16)
        ]
        assert lams == sorted(lams)

    def test_empty_graph(self):
        g = DiGraph(0, [], [])
        assert replication_factor(g, np.empty(0, dtype=np.int32), 4) == 0.0
