"""Unit tests for graph file I/O (edge list, SNAP, DIMACS, npz)."""

import numpy as np
import pytest

from repro.errors import GraphFormatError
from repro.graph.io import (
    load_dimacs,
    load_edge_list,
    load_npz,
    load_snap,
    save_dimacs,
    save_edge_list,
    save_npz,
)


class TestEdgeList:
    def test_round_trip_unweighted(self, tmp_path, er_graph):
        path = tmp_path / "g.txt"
        save_edge_list(er_graph, path)
        loaded = load_edge_list(path, num_vertices=er_graph.num_vertices)
        assert er_graph.structurally_equal(loaded)

    def test_round_trip_weighted(self, tmp_path, er_weighted):
        path = tmp_path / "g.txt"
        save_edge_list(er_weighted, path)
        loaded = load_edge_list(path, num_vertices=er_weighted.num_vertices)
        assert er_weighted.structurally_equal(loaded)

    def test_comments_and_blank_lines(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# header\n\n0 1\n% other comment\n1 2\n")
        g = load_edge_list(path)
        assert g.num_edges == 2

    def test_comma_separated(self, tmp_path):
        path = tmp_path / "g.csv"
        path.write_text("0,1\n1,2\n")
        assert load_edge_list(path).num_edges == 2

    def test_rejects_partial_weight_column(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 2.0\n1 2\n")
        with pytest.raises(GraphFormatError, match="some lines"):
            load_edge_list(path)

    def test_rejects_garbage_vertex(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("a b\n")
        with pytest.raises(GraphFormatError, match="non-integer"):
            load_edge_list(path)

    def test_rejects_single_column(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("7\n")
        with pytest.raises(GraphFormatError, match="expected"):
            load_edge_list(path)

    def test_weighted_true_requires_column(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n")
        with pytest.raises(GraphFormatError, match="no weight column"):
            load_edge_list(path, weighted=True)

    def test_weighted_false_ignores_column(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1 5.5\n")
        g = load_edge_list(path, weighted=False)
        assert g.weights is None

    def test_snap_alias(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# SNAP style\n0\t1\n1\t2\n")
        g = load_snap(path)
        assert g.num_edges == 2
        assert g.weights is None


class TestDimacs:
    def _write(self, tmp_path, body):
        path = tmp_path / "g.gr"
        path.write_text(body)
        return path

    def test_basic_load(self, tmp_path):
        path = self._write(
            tmp_path, "c comment\np sp 3 2\na 1 2 5\na 2 3 7\n"
        )
        g = load_dimacs(path)
        assert g.num_vertices == 3
        assert g.num_edges == 2
        assert g.has_edge(0, 1)  # 1-based ids converted
        assert g.weights.tolist() == [5.0, 7.0]

    def test_missing_problem_line(self, tmp_path):
        path = self._write(tmp_path, "a 1 2 5\n")
        with pytest.raises(GraphFormatError, match="problem line"):
            load_dimacs(path)

    def test_arc_count_mismatch(self, tmp_path):
        path = self._write(tmp_path, "p sp 3 5\na 1 2 5\n")
        with pytest.raises(GraphFormatError, match="declares"):
            load_dimacs(path)

    def test_out_of_range_vertex(self, tmp_path):
        path = self._write(tmp_path, "p sp 3 1\na 1 9 5\n")
        with pytest.raises(GraphFormatError, match="out of range"):
            load_dimacs(path)

    def test_duplicate_problem_line(self, tmp_path):
        path = self._write(tmp_path, "p sp 3 0\np sp 3 0\n")
        with pytest.raises(GraphFormatError, match="duplicate"):
            load_dimacs(path)

    @pytest.mark.parametrize("text", ["p sp 2 x\n", "p sp 2 1\na 1 2 x\n"],
                             ids=["problem", "arc"])
    def test_non_numeric_field(self, tmp_path, text):
        path = self._write(tmp_path, text)
        lineno = text.count("\n")
        with pytest.raises(GraphFormatError, match=f":{lineno}: non-numeric"):
            load_dimacs(path)

    def test_unknown_record(self, tmp_path):
        path = self._write(tmp_path, "p sp 2 0\nx 1 2\n")
        with pytest.raises(GraphFormatError, match="unknown record"):
            load_dimacs(path)

    def test_save_round_trip_weighted(self, tmp_path, er_weighted):
        path = tmp_path / "g.gr"
        save_dimacs(er_weighted, path, comment="round trip")
        loaded = load_dimacs(path)
        assert er_weighted.structurally_equal(loaded)

    def test_save_unweighted_gets_unit_arcs(self, tmp_path, tiny_graph):
        path = tmp_path / "g.gr"
        save_dimacs(tiny_graph, path)
        loaded = load_dimacs(path)
        assert np.all(loaded.weights == 1.0)
        assert loaded.num_edges == tiny_graph.num_edges

    def test_save_integer_weights_stay_integers(self, tmp_path):
        from repro.graph.digraph import DiGraph

        g = DiGraph(2, [0], [1], weights=[7.0])
        path = tmp_path / "g.gr"
        save_dimacs(g, path)
        assert "a 1 2 7\n" in path.read_text()


class TestNpz:
    def test_round_trip(self, tmp_path, er_weighted):
        path = tmp_path / "g.npz"
        save_npz(er_weighted, path)
        loaded = load_npz(path)
        assert er_weighted.structurally_equal(loaded)
        assert loaded.name == er_weighted.name

    def test_round_trip_unweighted(self, tmp_path, tiny_graph):
        path = tmp_path / "g.npz"
        save_npz(tiny_graph, path)
        assert load_npz(path).weights is None

    def test_rejects_non_npz(self, tmp_path):
        path = tmp_path / "bogus.npz"
        path.write_text("not a zip")
        with pytest.raises(GraphFormatError):
            load_npz(path)
