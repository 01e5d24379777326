"""Unit tests for the distributed graph representation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_graph
from repro.graph.mutation import MutationBatch, apply_batch
from repro.partition.base import partition_graph
from repro.partition.partitioned_graph import PartitionedGraph


class TestBuild:
    def test_validates(self, er_partitioned):
        er_partitioned.validate()

    def test_every_vertex_has_master(self, er_partitioned):
        pg = er_partitioned
        assert pg.master_of.shape == (pg.graph.num_vertices,)
        for v in range(pg.graph.num_vertices):
            assert pg.master_of[v] in pg.replicas_of(v)

    def test_edges_partition_exactly(self, er_partitioned):
        seen = np.zeros(er_partitioned.graph.num_edges, dtype=int)
        for mg in er_partitioned.machines:
            np.add.at(seen, mg.eglobal, 1)
        assert np.all(seen == 1)

    def test_local_endpoint_resolution(self, er_partitioned):
        g = er_partitioned.graph
        for mg in er_partitioned.machines:
            assert np.array_equal(mg.vertices[mg.esrc], g.src[mg.eglobal])
            assert np.array_equal(mg.vertices[mg.edst], g.dst[mg.eglobal])

    def test_replication_factor_matches_machine_lists(self, er_partitioned):
        total = sum(mg.num_local_vertices for mg in er_partitioned.machines)
        expected = total / er_partitioned.graph.num_vertices
        assert er_partitioned.replication_factor == pytest.approx(expected)

    def test_exactly_one_master_per_vertex(self, er_partitioned):
        count = np.zeros(er_partitioned.graph.num_vertices, dtype=int)
        for mg in er_partitioned.machines:
            np.add.at(count, mg.vertices[mg.is_master], 1)
        assert np.all(count == 1)

    def test_out_deg_global_is_global(self, er_partitioned):
        g = er_partitioned.graph
        out = g.out_degrees()
        for mg in er_partitioned.machines:
            assert np.array_equal(mg.out_deg_global, out[mg.vertices])

    def test_lonely_vertices_get_home(self):
        g = DiGraph(6, [0], [1])
        pg = PartitionedGraph.build(g, np.array([0], dtype=np.int32), 3)
        pg.validate()
        assert np.all(pg.num_replicas >= 1)

    def test_single_machine(self, er_graph):
        asg = np.zeros(er_graph.num_edges, dtype=np.int32)
        pg = PartitionedGraph.build(er_graph, asg, 1)
        pg.validate()
        assert pg.replication_factor == pytest.approx(1.0)
        assert pg.machines[0].num_local_edges == er_graph.num_edges

    def test_rejects_bad_assignment(self, er_graph):
        bad = np.full(er_graph.num_edges, 9, dtype=np.int32)
        with pytest.raises(PartitionError):
            PartitionedGraph.build(er_graph, bad, 4)

    def test_rejects_short_assignment(self, er_graph):
        with pytest.raises(PartitionError, match="one entry per edge"):
            PartitionedGraph.build(er_graph, np.zeros(3, dtype=np.int32), 4)


class TestParallelEdges:
    def _build(self, graph, P, parallel):
        asg = partition_graph(graph, P, "coordinated", seed=2)
        return PartitionedGraph.build(graph, asg, P, parallel_eids=parallel)

    def test_copies_on_every_target_machine(self, er_graph):
        parallel = np.arange(0, 40)
        pg = self._build(er_graph, 5, parallel)
        pg.validate()
        copies = np.zeros(er_graph.num_edges, dtype=int)
        for mg in pg.machines:
            np.add.at(copies, mg.eglobal, 1)
        for e in parallel:
            t = er_graph.dst[e]
            assert copies[e] == pg.num_replicas[t]

    def test_source_replicas_added(self, er_graph):
        parallel = np.arange(0, 40)
        pg = self._build(er_graph, 5, parallel)
        for e in parallel:
            s, t = er_graph.src[e], er_graph.dst[e]
            assert set(pg.replicas_of(t)).issubset(set(pg.replicas_of(s)))

    def test_parallel_flag_set(self, er_graph):
        parallel = np.array([0, 1, 2])
        pg = self._build(er_graph, 4, parallel)
        for mg in pg.machines:
            par_mask = np.isin(mg.eglobal, parallel)
            assert np.array_equal(mg.eparallel, par_mask)

    def test_assignment_masked_for_parallel(self, er_graph):
        parallel = np.array([5, 6])
        pg = self._build(er_graph, 4, parallel)
        assert np.all(pg.assignment[parallel] == -1)
        keep = np.ones(er_graph.num_edges, dtype=bool)
        keep[parallel] = False
        assert np.all(pg.assignment[keep] >= 0)

    def test_out_of_range_parallel_id(self, er_graph):
        asg = partition_graph(er_graph, 4, "coordinated", seed=2)
        with pytest.raises(PartitionError, match="parallel edge id"):
            PartitionedGraph.build(
                er_graph, asg, 4, parallel_eids=[er_graph.num_edges + 5]
            )


class TestLocalEdgeLayout:
    """Local edges by source, then one-edge before parallel, then by
    global edge id; per-edge arrays read-only (PartitionedGraph.validate)."""

    EDGE_FIELDS = ("esrc", "edst", "eweight", "eparallel", "eglobal")
    TABLE_FIELDS = (
        "master_of", "rep_indptr", "rep_machines", "rep_local_idx",
        "num_replicas", "parallel_eids", "assignment",
    )

    @staticmethod
    def _expected_order(mg):
        return np.lexsort((mg.eglobal, mg.eparallel, mg.esrc))

    def test_machines_and_blocks_are_source_ordered(self, er_graph):
        # a fresh partition: the shared fixture's block list stays unbuilt
        asg = partition_graph(er_graph, 6, "coordinated", seed=3)
        pg = PartitionedGraph.build(er_graph, asg, 6)
        assert any(b.num_machines > 1 for b in pg.blocks)
        pg.validate()
        for mg in pg.machines + pg.blocks:
            order = self._expected_order(mg)
            assert np.array_equal(order, np.arange(mg.num_local_edges))

    def test_validate_rejects_another_order_or_writeable_edges(
        self, er_partitioned
    ):
        pg = dataclasses.replace(er_partitioned, machines=list(
            er_partitioned.machines
        ))
        mg = pg.machines[0]
        rev = {f: getattr(mg, f)[::-1].copy() for f in self.EDGE_FIELDS}
        for a in rev.values():
            a.flags.writeable = False
        pg.machines[0] = dataclasses.replace(mg, **rev)
        with pytest.raises(PartitionError, match="source order"):
            pg.validate()
        pg.machines[0] = dataclasses.replace(mg, eweight=mg.eweight.copy())
        with pytest.raises(PartitionError, match="writeable"):
            pg.validate()

    def test_per_edge_arrays_are_read_only(self, er_graph, er_weighted):
        # not only the per-edge arrays: every array a built, a spliced
        # and a re-weighted partition holds (re-weighted variants share
        # them all but eweight)
        asg = partition_graph(er_graph, 3, "coordinated", seed=2)
        built = PartitionedGraph.build(er_graph, asg, 3)
        new_graph, diff = apply_batch(er_graph, MutationBatch().remove_edge(
            int(er_graph.src[0]), int(er_graph.dst[0])
        ).add_edge(0, 199))
        spliced, _ = built.splice(
            new_graph, diff, np.zeros(diff.num_added, dtype=np.int64)
        )
        reweighted = built.reweighted(er_weighted)
        for pg in (built, spliced, reweighted):
            arrays = [(n, getattr(pg, n)) for n in self.TABLE_FIELDS]
            arrays += list(pg._flat.items())
            for mg in pg.machines + pg.blocks:
                arrays.append(("machine_offsets", mg.machine_offsets))
                arrays += [(f.name, getattr(mg, f.name))
                           for f in dataclasses.fields(mg)
                           if f.name != "machine_id"]
            for name, arr in arrays:
                assert not arr.flags.writeable, name
            with pytest.raises(ValueError):
                pg.machines[0].esrc[0] = 0
            with pytest.raises(ValueError):
                pg.rep_local_idx[0] = 0
            pg.validate()

    def test_validate_rejects_a_writeable_table(self, er_partitioned):
        pg = dataclasses.replace(
            er_partitioned, master_of=er_partitioned.master_of.copy()
        )
        with pytest.raises(PartitionError, match="writeable"):
            pg.validate()

    def test_reweighted_shares_all_but_eweight(self, er_graph, er_weighted):
        asg = partition_graph(er_graph, 3, "coordinated", seed=2)
        pg = PartitionedGraph.build(er_graph, asg, 3)
        rw = pg.reweighted(er_weighted)
        assert pg.reweighted(er_graph) is pg
        assert rw.graph is er_weighted
        want = PartitionedGraph.build(er_weighted, asg, 3)
        for name in self.TABLE_FIELDS:
            assert getattr(rw, name) is getattr(pg, name)
        for name, arr in rw._flat.items():
            np.testing.assert_array_equal(arr, want._flat[name])
            assert (arr is pg._flat[name]) == (name != "eweight"), name
        for a, b in zip(rw.machines + rw.blocks, pg.machines + pg.blocks):
            assert a.esrc is b.esrc and a.edst is b.edst
            assert a.machine_offsets is b.machine_offsets
            assert not np.shares_memory(a.eweight, b.eweight)
        rw.validate()
        with pytest.raises(PartitionError, match="edge list"):
            pg.reweighted(DiGraph(er_graph.num_vertices, [0], [1]))

    def test_build_peak_is_its_own_output(self):
        # tracemalloc over one build of a fixed powerlaw graph: the
        # in-place pair keys, the ones eweight and the dropped
        # replica-table locals keep the traced peak at what the
        # partition retains: 1.003x measured (the build before them
        # peaked at 2.17x on this graph); bound = measured + 10 %
        graph = powerlaw_graph(20_000, 150_000, seed=3)
        asg = partition_graph(graph, 8, "coordinated", seed=0)
        graph.out_degrees()  # cached on the graph: not the build's
        tracemalloc.start()
        try:
            pg = PartitionedGraph.build(graph, asg, 8)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pg.num_machines == 8
        assert peak <= 1.10 * kept, peak / kept
