"""Unit tests for the vertex-cut / edge-cut partitioners."""

import sys
import tracemalloc

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.partition.base import (
    PARTITIONER_NAMES,
    _PARTITIONERS,
    partition_graph,
    register_partitioner,
    validate_assignment,
)
from repro.partition.coordinated_cut import coordinated_cut
from repro.partition.edge_cut import edge_cut
from repro.partition.grid_cut import _grid_shape, grid_cut
from repro.partition.hybrid_cut import hybrid_cut
from repro.partition.oblivious_cut import oblivious_cut
from repro.partition.partitioned_graph import PartitionedGraph
from repro.partition.random_cut import random_cut


ALL_PARTITIONERS = ["random", "grid", "coordinated", "oblivious", "hybrid", "edge"]


@pytest.fixture
def scratch_registry(monkeypatch):
    """``register_partitioner`` has no inverse: register into a copy."""
    monkeypatch.setattr(
        sys.modules["repro.partition.base"], "_PARTITIONERS",
        dict(_PARTITIONERS),
    )


class TestDispatch:
    def test_names_registered(self):
        for name in ALL_PARTITIONERS:
            assert name in PARTITIONER_NAMES

    def test_unknown_partitioner(self, er_graph):
        with pytest.raises(PartitionError, match="unknown partitioner"):
            partition_graph(er_graph, 4, "bogus")

    def test_invalid_machine_count(self, er_graph):
        with pytest.raises(PartitionError):
            partition_graph(er_graph, 0)

    @pytest.mark.parametrize("bad", [
        lambda n: np.full(n, 1.7),
        lambda n: np.full(n, np.nan),
        lambda n: np.ones(n, dtype=bool),
    ], ids=["float", "nan", "bool"])
    def test_non_integer_assignment_rejected(
        self, er_graph, bad, scratch_registry
    ):
        """A float used to be truncated by the int32 cast (1.7 -> 1), a
        NaN to pass the range check and become machine -2**31."""
        assignment = bad(er_graph.num_edges)
        with pytest.raises(PartitionError, match="integer array"):
            validate_assignment(er_graph, assignment, 4)
        register_partitioner("returns-bad", lambda g, p, seed=None: assignment)
        with pytest.raises(PartitionError, match="integer array"):
            partition_graph(er_graph, 4, "returns-bad")

    def test_any_integer_dtype_is_accepted(self, er_graph, scratch_registry):
        register_partitioner(
            "all-on-two",
            lambda g, p, seed=None: np.full(g.num_edges, 2, dtype=np.uint8),
        )
        asg = partition_graph(er_graph, 4, "all-on-two")
        assert asg.dtype == np.int32 and np.all(asg == 2)

    @pytest.mark.parametrize("method", ALL_PARTITIONERS)
    def test_every_edge_assigned_in_range(self, er_graph, method):
        asg = partition_graph(er_graph, 7, method, seed=3)
        assert asg.shape == (er_graph.num_edges,)
        assert asg.min() >= 0 and asg.max() < 7

    @pytest.mark.parametrize("method", ALL_PARTITIONERS)
    def test_deterministic_given_seed(self, er_graph, method):
        a = partition_graph(er_graph, 5, method, seed=9)
        b = partition_graph(er_graph, 5, method, seed=9)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("method", ALL_PARTITIONERS)
    def test_single_machine(self, er_graph, method):
        asg = partition_graph(er_graph, 1, method, seed=1)
        assert np.all(asg == 0)


class TestLoadBalance:
    @pytest.mark.parametrize("method", ["random", "grid", "coordinated"])
    def test_edge_balance(self, er_graph, method):
        P = 6
        asg = partition_graph(er_graph, P, method, seed=2)
        loads = np.bincount(asg, minlength=P)
        assert loads.max() <= 1.6 * er_graph.num_edges / P


class TestCoordinated:
    def test_capacity_respected(self, er_graph):
        asg = coordinated_cut(er_graph, 6, seed=1, balance_slack=0.10)
        loads = np.bincount(asg, minlength=6)
        cap = int(1.10 * er_graph.num_edges / 6)
        assert loads.max() <= cap + 1

    def test_lower_lambda_than_random(self, webby_graph):
        P = 8
        lam_coord = PartitionedGraph.build(
            webby_graph, coordinated_cut(webby_graph, P, seed=1), P
        ).replication_factor
        lam_rand = PartitionedGraph.build(
            webby_graph, random_cut(webby_graph, P, seed=1), P
        ).replication_factor
        assert lam_coord < lam_rand

    def test_shuffle_option_changes_result(self, er_graph):
        a = coordinated_cut(er_graph, 4, seed=1, shuffle_edges=False)
        b = coordinated_cut(er_graph, 4, seed=1, shuffle_edges=True)
        assert not np.array_equal(a, b)

    def test_too_many_machines_rejected(self, er_graph):
        with pytest.raises(PartitionError, match="supports up to"):
            coordinated_cut(er_graph, 2000)

    def test_empty_graph(self):
        asg = coordinated_cut(DiGraph(3, [], []), 4)
        assert asg.size == 0

    @pytest.mark.parametrize("cut", [coordinated_cut, oblivious_cut])
    @pytest.mark.parametrize("kwargs,match", [
        ({"num_machines": 0}, "num_machines must be >= 1"),
        ({"num_machines": -3}, "num_machines must be >= 1"),
        ({"num_machines": 4, "balance_slack": float("nan")}, "balance_slack"),
        ({"num_machines": 4, "balance_slack": float("inf")}, "balance_slack"),
        ({"num_machines": 4, "balance_slack": -0.5}, "balance_slack"),
    ])
    def test_bad_arguments_are_partition_errors(self, er_graph, cut, kwargs, match):
        """Called directly these were ZeroDivisionError / ValueError /
        OverflowError, and a negative slack was silently accepted."""
        with pytest.raises(PartitionError, match=match):
            cut(er_graph, **kwargs)

    def test_transient_memory_follows_the_chunk_not_the_graph(self):
        """The loop turns edges into Python ints a chunk at a time; whole-
        graph ``tolist()`` endpoint / result lists are ~60 MB of boxed
        ints on the benchmark's 650k-edge graph, next to a resident
        session (docs/performance.md, "Cold set-up")."""
        chunk = sys.modules["repro.partition.coordinated_cut"]._CHUNK_EDGES
        n_edges = 200_000
        assert n_edges > 6 * chunk
        ends = np.random.default_rng(0).integers(0, 2000, size=(2, n_edges))
        graph = DiGraph(2000, ends[0], ends[1])
        graph.degrees()  # in/out degrees are cached on the graph
        tracemalloc.start()
        try:
            asg = coordinated_cut(graph, 8, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # measured 0.33 MB: two endpoint lists and the result list of
        # this chunk and the last, plus ~0.15 MB that follows |V| and P;
        # with the chunk set past the graph the same call takes 15.3 MB
        assert peak - asg.nbytes < 512 * chunk


class TestGrid:
    def test_grid_shape_covers(self):
        for p in (4, 6, 9, 12, 48, 7):
            r, c = _grid_shape(p)
            assert r * c >= p

    def test_replication_bounded_by_grid(self, social_graph):
        P = 16  # 4x4 grid
        asg = grid_cut(social_graph, P, seed=1)
        lam = PartitionedGraph.build(social_graph, asg, P).replication_factor
        r, c = _grid_shape(P)
        # per-vertex bound is r + c - 1; the mean must be well below it
        assert lam <= r + c - 1


class TestHybrid:
    """In-degree above 100 (PowerLyra's default) is high-degree."""

    def test_low_degree_edges_follow_target(self, er_graph):
        # every in-degree is at most 100: each vertex's in-edges together
        assert er_graph.in_degrees().max() <= 100
        asg = hybrid_cut(er_graph, 5, seed=2)
        for v in range(er_graph.num_vertices):
            eids = er_graph.in_edge_ids(v)
            if eids.size:
                assert np.unique(asg[eids]).size == 1

    def test_high_degree_targets_spread(self, er_graph):
        # a hub with 150 in-edges from distinct sources: placed by source
        hub_src = np.arange(150)
        graph = DiGraph(
            er_graph.num_vertices,
            np.concatenate([er_graph.src, hub_src]),
            np.concatenate([er_graph.dst, np.full(150, 199)]),
        )
        asg = hybrid_cut(graph, 8, seed=2)
        eids = graph.in_edge_ids(199)
        assert eids.size > 100
        assert np.unique(asg[eids]).size > 1
        # the other targets keep their in-edges together
        for v in range(150, 199):
            assert np.unique(asg[graph.in_edge_ids(v)]).size <= 1


class TestEdgeCut:
    def test_edges_follow_source(self, er_graph):
        P = 5
        asg = edge_cut(er_graph, P, seed=3)
        for v in range(0, 50):
            eids = er_graph.out_edge_ids(v)
            if eids.size:
                assert np.unique(asg[eids]).size == 1
