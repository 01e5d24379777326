"""Unit tests for the per-machine runtime kernels."""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponentsProgram, PageRankDeltaProgram
from repro.graph.digraph import DiGraph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime


def runtime_for(graph, program, parallel=None):
    asg = np.zeros(graph.num_edges, dtype=np.int32)
    pg = PartitionedGraph.build(graph, asg, 1, parallel_eids=parallel)
    return MachineRuntime(pg.machines[0], program)


@pytest.fixture()
def cc_rt():
    g = DiGraph(4, [0, 1, 2], [1, 2, 3]).symmetrized()
    return runtime_for(g, ConnectedComponentsProgram())


class TestScatter:
    def test_deposits_messages(self, cc_rt):
        edges = cc_rt.scatter(np.array([0]), np.array([0.0]), track_delta=False)
        assert edges == 1  # vertex 0 has one out-edge (to 1)
        assert cc_rt.has_msg[1]
        assert cc_rt.msg[1] == 0.0

    def test_track_delta_accumulates(self, cc_rt):
        cc_rt.scatter(np.array([0]), np.array([0.0]), track_delta=True)
        assert cc_rt.has_delta[1]
        assert cc_rt.delta_msg[1] == 0.0

    def test_combine_folds_multiple_messages(self, cc_rt):
        # 0 and 2 both point at 1; min must be kept
        cc_rt.scatter(np.array([0, 2]), np.array([5.0, 3.0]), track_delta=False)
        assert cc_rt.msg[1] == 3.0

    def test_empty_scatter(self, cc_rt):
        assert cc_rt.scatter(np.array([], dtype=int), np.array([]), False) == 0

    def test_vertex_without_out_edges(self):
        g = DiGraph(2, [0], [1])
        rt = runtime_for(g, ConnectedComponentsProgram())
        assert rt.scatter(np.array([1]), np.array([0.0]), False) == 0


class TestTakeReady:
    def test_drains_and_resets(self, cc_rt):
        cc_rt.scatter(np.array([0]), np.array([0.0]), track_delta=False)
        idx, accum = cc_rt.take_ready()
        assert idx.tolist() == [1]
        assert accum.tolist() == [0.0]
        assert cc_rt.num_active == 0
        assert cc_rt.msg[1] == cc_rt.algebra.identity

    def test_empty_when_idle(self, cc_rt):
        idx, accum = cc_rt.take_ready()
        assert idx.size == 0 and accum.size == 0


class TestApplyAndScatter:
    # the return value is per-machine (edges, applies) rows; these
    # runtimes hold one machine, so one column
    def test_fires_propagate(self, cc_rt):
        work = cc_rt.apply_and_scatter(
            np.array([1]), np.array([0.0]), track_delta=False
        )
        # vertex 1 applied, fired, and connects to 0 and 2
        assert work.tolist() == [[2], [1]]
        assert cc_rt.has_msg[0] and cc_rt.has_msg[2]

    def test_no_fire_no_scatter(self, cc_rt):
        # label 9 does not improve vertex 1's label 1: applied, not fired
        work = cc_rt.apply_and_scatter(
            np.array([1]), np.array([9.0]), track_delta=False
        )
        assert work.tolist() == [[0], [1]]
        assert cc_rt.num_active == 0

    def test_empty_idx(self, cc_rt):
        work = cc_rt.apply_and_scatter(
            np.array([], dtype=int), np.array([]), False
        )
        assert work.tolist() == [[0], [0]]


class TestParallelEdgeHandling:
    def test_parallel_messages_skip_delta(self):
        g = DiGraph(3, [0, 1], [1, 2])
        rt = runtime_for(g, ConnectedComponentsProgram(), parallel=[0])
        rt.scatter(np.array([0, 1]), np.array([0.0, 1.0]), track_delta=True)
        # edge 0->1 is parallel: message arrives but not in deltaMsg
        assert rt.has_msg[1] and not rt.has_delta[1]
        # edge 1->2 is one-edge: both buffers written
        assert rt.has_msg[2] and rt.has_delta[2]


class TestBootstrap:
    def test_pagerank_bootstrap_scatters(self):
        g = DiGraph(3, [0, 1, 2], [1, 2, 0])
        rt = runtime_for(g, PageRankDeltaProgram())
        edges, applies = rt.bootstrap(track_delta=True)
        assert (edges.tolist(), applies.tolist()) == ([3], [3])
        assert rt.has_msg.all() and rt.has_delta.all()

    def test_bootstrap_without_delta_tracking(self):
        g = DiGraph(3, [0, 1, 2], [1, 2, 0])
        rt = runtime_for(g, PageRankDeltaProgram())
        rt.bootstrap(track_delta=False)
        assert rt.has_msg.all() and not rt.has_delta.any()

    def test_clear_deltas(self, cc_rt):
        cc_rt.scatter(np.array([0]), np.array([0.0]), track_delta=True)
        cc_rt.clear_deltas(np.array([1]))
        assert not cc_rt.has_delta[1]
        assert cc_rt.delta_msg[1] == cc_rt.algebra.identity
