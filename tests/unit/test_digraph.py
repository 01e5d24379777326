"""Unit tests for the CSR directed-graph substrate."""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph


class TestConstruction:
    def test_basic_sizes(self, tiny_graph):
        assert tiny_graph.num_vertices == 6
        assert tiny_graph.num_edges == 5
        assert len(tiny_graph) == 6

    def test_ev_ratio(self, tiny_graph):
        assert tiny_graph.ev_ratio == pytest.approx(5 / 6)

    def test_empty_graph(self):
        g = DiGraph(0, [], [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert g.ev_ratio == 0.0

    def test_vertices_without_edges(self):
        g = DiGraph(10, [0], [1])
        assert g.num_vertices == 10
        assert g.out_degrees().sum() == 1

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(GraphError, match="endpoints"):
            DiGraph(3, [0, 1], [1, 3])

    def test_rejects_negative_endpoint(self):
        with pytest.raises(GraphError, match="endpoints"):
            DiGraph(3, [-1], [0])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(GraphError, match="equal length"):
            DiGraph(3, [0, 1], [1])

    def test_rejects_mismatched_weights(self):
        with pytest.raises(GraphError, match="weights"):
            DiGraph(3, [0, 1], [1, 2], weights=[1.0])

    def test_rejects_float_endpoints(self):
        with pytest.raises(GraphError, match="integer"):
            DiGraph(3, np.array([0.5]), np.array([1.0]))

    def test_rejects_2d_endpoints(self):
        with pytest.raises(GraphError, match="1-D"):
            DiGraph(3, np.array([[0]]), np.array([[1]]))

    def test_rejects_negative_vertex_count(self):
        with pytest.raises(GraphError):
            DiGraph(-1, [], [])

    def test_self_loops_allowed(self):
        g = DiGraph(2, [0], [0])
        assert g.has_edge(0, 0)


class TestDegrees:
    def test_out_degrees(self, tiny_graph):
        assert tiny_graph.out_degrees().tolist() == [1, 1, 2, 1, 0, 0]

    def test_in_degrees(self, tiny_graph):
        assert tiny_graph.in_degrees().tolist() == [1, 1, 1, 1, 1, 0]

    def test_total_degrees(self, tiny_graph):
        assert tiny_graph.degrees().tolist() == [2, 2, 3, 2, 1, 0]

    def test_degree_sums_equal_edges(self, er_graph):
        assert er_graph.out_degrees().sum() == er_graph.num_edges
        assert er_graph.in_degrees().sum() == er_graph.num_edges


class TestAdjacency:
    def test_out_neighbors(self, tiny_graph):
        assert sorted(tiny_graph.out_neighbors(2).tolist()) == [0, 3]
        assert tiny_graph.out_neighbors(4).size == 0

    def test_in_neighbors(self, tiny_graph):
        assert tiny_graph.in_neighbors(0).tolist() == [2]
        assert tiny_graph.in_neighbors(5).size == 0

    def test_edge_ids_resolve_endpoints(self, er_graph):
        for v in (0, 7, 42):
            eids = er_graph.out_edge_ids(v)
            assert np.all(er_graph.src[eids] == v)
            eids = er_graph.in_edge_ids(v)
            assert np.all(er_graph.dst[eids] == v)

    def test_csr_covers_every_edge_once(self, er_graph):
        indptr, eids = er_graph.out_csr()
        assert indptr[-1] == er_graph.num_edges
        assert sorted(eids.tolist()) == list(range(er_graph.num_edges))

    def test_csr_rejects_out_of_range_keys(self):
        # arrays edited after construction bypass the constructor's check
        g = DiGraph(3, [0, 1], [1, 2])
        g.src[0] = 3
        with pytest.raises(GraphError, match=r"\[0, 3\)"):
            g.out_csr()
        g.dst[1] = -1
        with pytest.raises(GraphError, match=r"\[0, 3\)"):
            g.in_csr()

    def test_has_edge(self, tiny_graph):
        assert tiny_graph.has_edge(0, 1)
        assert not tiny_graph.has_edge(1, 0)


class TestTransforms:
    def test_reverse_flips_edges(self, tiny_graph):
        rev = tiny_graph.reverse()
        assert rev.has_edge(1, 0)
        assert not rev.has_edge(0, 1)
        assert rev.num_edges == tiny_graph.num_edges

    def test_reverse_preserves_weights(self):
        g = DiGraph(3, [0, 1], [1, 2], weights=[2.0, 7.0])
        rev = g.reverse()
        assert rev.weights.tolist() == [2.0, 7.0]

    def test_symmetrized_contains_both_directions(self, tiny_graph):
        sym = tiny_graph.symmetrized()
        for u, v in tiny_graph.edges():
            assert sym.has_edge(u, v)
            assert sym.has_edge(v, u)

    def test_symmetrized_drops_self_loops(self):
        g = DiGraph(3, [0, 1, 1], [0, 2, 2])
        sym = g.symmetrized()
        assert not sym.has_edge(0, 0)
        assert sym.num_edges == 2  # 1<->2 both ways

    def test_symmetrized_keeps_min_weight_per_pair(self):
        # pairs 0-1 (weights 5, 3) and 1-2 (4, 7); the self-loop drops
        g = DiGraph(3, [0, 1, 1, 2, 2], [1, 0, 2, 1, 2],
                    weights=[5.0, 3.0, 4.0, 7.0, 1.0])
        sym = g.symmetrized()
        assert sym.src.tolist() == [0, 1, 1, 2]
        assert sym.dst.tolist() == [1, 2, 0, 1]
        assert sym.weights.tolist() == [3.0, 4.0, 3.0, 4.0]

    def test_symmetrized_in_equals_out_degree(self, er_graph):
        sym = er_graph.symmetrized()
        assert np.array_equal(sym.in_degrees(), sym.out_degrees())

    def test_to_undirected_dedups_reciprocal_pairs(self):
        g = DiGraph(3, [0, 1, 0], [1, 0, 2])
        u, v = g.to_undirected_edges()
        pairs = set(zip(u.tolist(), v.tolist()))
        assert pairs == {(0, 1), (0, 2)}

    def test_edge_weights_default_ones(self, tiny_graph):
        assert np.all(tiny_graph.edge_weights() == 1.0)

    def test_with_weights(self, tiny_graph):
        w = np.arange(tiny_graph.num_edges, dtype=float)
        g = tiny_graph.with_weights(w)
        assert g.weights is not None
        assert tiny_graph.weights is None

    def test_structural_equality(self, tiny_graph):
        clone = DiGraph(6, tiny_graph.src[::-1], tiny_graph.dst[::-1])
        assert tiny_graph.structurally_equal(clone)
        other = DiGraph(6, [0], [1])
        assert not tiny_graph.structurally_equal(other)
