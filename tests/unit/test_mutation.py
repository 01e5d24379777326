"""MutationBatch semantics + graph patch layout guarantees.

The dynamic-graph layer leans on two contracts proved here:

* :func:`apply_batch` lays the patched graph out as kept-in-order ++
  added, and the returned :class:`EdgeDiff` is an exact old↔new edge-id
  correspondence;
* :func:`symmetrized_patch` is structurally equivalent to re-running
  the full symmetrization on the patched base — same edge multiset,
  same per-pair min weights — while keeping surviving edge-id slots.
"""

import numpy as np
import pytest

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.mutation import (
    EdgeDiff,
    MutationBatch,
    apply_batch,
    symmetrized_patch,
)


def edge_multiset(g: DiGraph):
    if g.weights is not None:
        return sorted(zip(g.src.tolist(), g.dst.tolist(),
                          np.round(g.weights, 9).tolist()))
    return sorted(zip(g.src.tolist(), g.dst.tolist()))


@pytest.fixture
def graph():
    return DiGraph(
        6,
        np.array([0, 0, 1, 2, 3, 4, 4], dtype=np.int64),
        np.array([1, 2, 2, 3, 4, 5, 0], dtype=np.int64),
        name="toy",
    )


@pytest.fixture
def weighted(graph):
    return graph.with_weights(
        np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
    )


class TestBatchBuilding:
    def test_builders_chain_and_count(self):
        batch = (
            MutationBatch()
            .add_vertices(2)
            .add_edge(0, 6)
            .add_edges([(1, 7), (2, 3)])
            .remove_edge(0, 1)
            .remove_vertex(5)
        )
        assert batch.num_added_vertices == 2
        assert batch.num_added_edges == 3
        assert batch.num_removed_edges == 1
        assert batch.num_removed_vertices == 1
        assert not batch.is_empty()
        assert len(batch) == 7

    def test_empty_batch(self):
        assert MutationBatch().is_empty()
        assert len(MutationBatch()) == 0

    def test_merge_concatenates(self):
        a = MutationBatch().add_edge(0, 1, weight=2.0).add_vertices(1)
        b = MutationBatch().remove_edge(3, 4).add_edge(1, 2)
        merged = a.merge(b)
        assert merged.num_added_edges == 2
        assert merged.num_removed_edges == 1
        assert merged.num_added_vertices == 1
        assert merged.explicit_weights() == [2.0, None]

    def test_without_weights_strips_only_weights(self):
        batch = MutationBatch().add_edge(0, 1, weight=9.0).remove_edge(2, 3)
        bare = batch.without_weights()
        assert bare.num_added_edges == 1
        assert bare.num_removed_edges == 1
        assert bare.explicit_weights() == [None]
        # the original is untouched
        assert batch.explicit_weights() == [9.0]

    def test_wire_format_round_trip(self):
        batch = (
            MutationBatch()
            .add_vertices(1)
            .add_edge(0, 6, weight=1.5)
            .add_edge(1, 2)
            .remove_edge(3, 4)
            .remove_vertex(5)
        )
        clone = MutationBatch.from_dict(batch.to_dict())
        assert clone.to_dict() == batch.to_dict()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(GraphError):
            MutationBatch.from_dict({"add_edgez": [[0, 1]]})


class TestValidation:
    def test_endpoints_may_use_new_vertices(self, graph):
        batch = MutationBatch().add_vertices(1).add_edge(5, 6)
        batch.validate(graph)  # no raise

    def test_out_of_range_endpoint_rejected(self, graph):
        with pytest.raises(GraphError):
            MutationBatch().add_edge(0, 6).validate(graph)

    def test_removing_absent_edge_rejected(self, graph):
        with pytest.raises(GraphError):
            MutationBatch().remove_edge(5, 0).validate(graph)

    def test_weighted_add_on_unweighted_graph_rejected(self, graph):
        with pytest.raises(GraphError):
            MutationBatch().add_edge(0, 3, weight=2.0).validate(graph)

    def test_missing_removals_named_first_five_in_batch_order(self, graph):
        absent = [(5, 0), (3, 0), (2, 1), (1, 0), (5, 4), (4, 3), (3, 2)]
        batch = MutationBatch().remove_edge(0, 1)  # present
        for i, pair in enumerate(absent):
            batch.remove_edge(*pair)
            if i == 2:
                batch.remove_edge(4, 0)  # present, between the absent ones
        with pytest.raises(GraphError) as err:
            batch.validate(graph)
        assert str(err.value) == (
            "remove_edge targets not present in the graph: "
            f"{absent[:5]}"
        )

    def test_removal_present_only_as_parallel_copies(self):
        g = DiGraph(3, np.array([0, 0, 1]), np.array([1, 1, 2]))
        MutationBatch().remove_edge(0, 1).remove_edge(0, 1).validate(g)


class TestApplyBatch:
    def test_layout_is_kept_then_added(self, graph):
        batch = MutationBatch().remove_edge(0, 2).add_edge(3, 0)
        patched, diff = apply_batch(graph, batch)
        assert diff.num_removed == 1
        assert diff.removed_eids.tolist() == [1]
        # kept edges keep their relative order
        np.testing.assert_array_equal(
            patched.src[: diff.num_kept], graph.src[diff.kept_eids]
        )
        np.testing.assert_array_equal(
            patched.dst[diff.num_kept:], np.array([0])
        )
        assert diff.added_eids.tolist() == [diff.num_kept]

    def test_remove_vertex_drops_all_incident_edges(self, graph):
        patched, diff = apply_batch(
            graph, MutationBatch().remove_vertex(2)
        )
        assert 2 not in patched.src.tolist()
        assert 2 not in patched.dst.tolist()
        # vertex id slots are never renumbered
        assert patched.num_vertices == graph.num_vertices
        assert diff.num_removed == 3  # 0->2, 1->2, 2->3

    def test_remove_edge_removes_all_parallel_copies(self):
        g = DiGraph(
            3,
            np.array([0, 0, 1], dtype=np.int64),
            np.array([1, 1, 2], dtype=np.int64),
        )
        patched, diff = apply_batch(g, MutationBatch().remove_edge(0, 1))
        assert patched.num_edges == 1
        assert diff.num_removed == 2

    def test_weights_carried_and_defaulted(self, weighted):
        batch = (
            MutationBatch()
            .remove_edge(0, 1)
            .add_edge(5, 0, weight=2.5)
            .add_edge(3, 1)
        )
        patched, diff = apply_batch(weighted, batch)
        np.testing.assert_array_equal(
            patched.weights[: diff.num_kept],
            weighted.weights[diff.kept_eids],
        )
        assert patched.weights[diff.num_kept:].tolist() == [2.5, 1.0]

    def test_input_graph_untouched(self, graph):
        before = edge_multiset(graph)
        apply_batch(graph, MutationBatch().remove_edge(0, 1).add_edge(5, 0))
        assert edge_multiset(graph) == before

    def test_identity_batch(self, graph):
        patched, diff = apply_batch(graph, MutationBatch())
        assert diff.is_identity()
        assert edge_multiset(patched) == edge_multiset(graph)


class TestSymmetrizedPatch:
    @pytest.mark.parametrize("seed", [0, 7])
    def test_structurally_equals_full_resymmetrization(self, seed):
        base = erdos_renyi_graph(40, 160, seed=seed)
        old_sym = base.symmetrized()
        batch = (
            MutationBatch()
            .add_vertices(1)
            .add_edge(0, 40)
            .add_edge(3, 17)
            .remove_edge(int(base.src[0]), int(base.dst[0]))
            .remove_vertex(11)
        )
        new_base, _ = apply_batch(base, batch)
        patched, diff = symmetrized_patch(old_sym, base, new_base)
        assert edge_multiset(patched) == edge_multiset(
            new_base.symmetrized()
        )
        assert diff.num_kept + diff.num_added == patched.num_edges

    def test_weighted_base_weight_change_replaces_pair(self):
        base = DiGraph(
            3,
            np.array([0, 1], dtype=np.int64),
            np.array([1, 2], dtype=np.int64),
            np.array([5.0, 2.0]),
        )
        old_sym = base.symmetrized()
        # replace 0->1 at a new weight: remove + add in one batch
        batch = MutationBatch().remove_edge(0, 1).add_edge(0, 1, weight=1.0)
        new_base, _ = apply_batch(base, batch)
        patched, diff = symmetrized_patch(old_sym, base, new_base)
        assert edge_multiset(patched) == edge_multiset(
            new_base.symmetrized()
        )
        assert diff.num_removed == 2 and diff.num_added == 2

    def test_synthetic_weights_fill_and_caller_overwrite(self):
        base = erdos_renyi_graph(20, 60, seed=3)
        old_sym = base.symmetrized().with_weights(
            np.linspace(1.0, 2.0, base.symmetrized().num_edges)
        )
        batch = MutationBatch().add_edge(0, 19)
        new_base, _ = apply_batch(base, batch)
        patched, diff = symmetrized_patch(old_sym, base, new_base)
        # kept edges keep their synthetic weights; added get the fill
        np.testing.assert_array_equal(
            patched.weights[: diff.num_kept], old_sym.weights[diff.kept_eids]
        )
        assert set(patched.weights[diff.num_kept:].tolist()) == {1.0}


class TestEdgeDiff:
    def test_added_eids_follow_kept(self):
        diff = EdgeDiff(
            kept_eids=np.array([0, 2], dtype=np.int64),
            removed_eids=np.array([1], dtype=np.int64),
            added_src=np.array([4], dtype=np.int64),
            added_dst=np.array([5], dtype=np.int64),
            num_vertices_before=6,
            num_vertices_after=6,
        )
        assert diff.added_eids.tolist() == [2]
        assert not diff.is_identity()
        assert "kept=2" in diff.summary()


class TestDegreeCarry:
    """A patch carries its input's cached degrees by the batch; they
    equal what counting the patched graph's edges gives, dtype too."""

    @staticmethod
    def _random_batch(graph, rng):
        n = graph.num_vertices
        batch = MutationBatch().add_vertices(int(rng.integers(0, 3)))
        n_after = n + batch.num_added_vertices
        picks = rng.choice(graph.num_edges, size=4, replace=False)
        batch.remove_edges(
            {(int(graph.src[e]), int(graph.dst[e])) for e in picks}
        )
        if rng.random() < 0.5:
            batch.remove_vertex(int(rng.integers(0, n)))
        ends = rng.integers(0, n_after, size=(5, 2))
        batch.add_edges([(int(u), int(v)) for u, v in ends])
        return batch

    @staticmethod
    def _assert_counted(g: DiGraph):
        want_out = np.bincount(g.src, minlength=g.num_vertices)
        want_in = np.bincount(g.dst, minlength=g.num_vertices)
        got_out, got_in = g._out_degree, g._in_degree
        assert got_out is not None and got_in is not None
        np.testing.assert_array_equal(got_out, want_out)
        np.testing.assert_array_equal(got_in, want_in)
        fresh = DiGraph(g.num_vertices, g.src, g.dst)
        assert got_out.dtype == fresh.out_degrees().dtype
        assert got_in.dtype == fresh.in_degrees().dtype

    @pytest.mark.parametrize("seed", range(6))
    def test_apply_batch_carries_both_degrees(self, seed):
        rng = np.random.default_rng(seed)
        g = erdos_renyi_graph(40, 160, seed=seed)
        g.out_degrees(), g.in_degrees()
        for _ in range(5):
            g, _ = apply_batch(g, self._random_batch(g, rng))
            self._assert_counted(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_symmetrized_patch_carries_both_degrees(self, seed):
        rng = np.random.default_rng(seed)
        base = erdos_renyi_graph(30, 90, seed=seed)
        sym = base.symmetrized()
        sym.out_degrees(), sym.in_degrees()
        for _ in range(4):
            new_base, _ = apply_batch(base, self._random_batch(base, rng))
            sym, _ = symmetrized_patch(sym, base, new_base)
            base = new_base
            self._assert_counted(sym)

    def test_only_a_cached_degree_is_carried(self):
        g = erdos_renyi_graph(20, 60, seed=3)
        g.out_degrees()
        new, _ = apply_batch(g, MutationBatch().add_edge(0, 1))
        assert new._out_degree is not None and new._in_degree is None
        untouched, _ = apply_batch(
            erdos_renyi_graph(20, 60, seed=3), MutationBatch().add_edge(0, 1)
        )
        assert untouched._out_degree is None and untouched._in_degree is None
