"""Unit tests for the per-machine runtime kernels."""

import warnings

import numpy as np
import pytest

from repro.algorithms import (
    ConnectedComponentsProgram,
    PageRankDeltaProgram,
    PersonalizedPageRankProgram,
)
from repro.core import LazyBlockAsyncEngine, LazyVertexAsyncEngine, build_lazy_graph
from repro.graph.digraph import DiGraph
from repro.kernels import configured
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
        idx, accum, _ = cc_rt.take_ready()
        assert idx.tolist() == [1]
        assert accum.tolist() == [0.0]
        assert cc_rt.num_active == 0
        assert cc_rt.msg[1] == cc_rt.algebra.identity

    def test_empty_when_idle(self, cc_rt):
        idx, accum, _ = cc_rt.take_ready()
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


class TestNoPerRunEdgeGathers:
    """A delta out-plan's order is the identity, so a runtime reads its
    block's per-edge arrays as they are."""

    def test_operand_is_the_blocks_own_weights(self):
        from repro.algorithms import SSSPProgram

        g = DiGraph(4, [0, 1, 2, 0], [1, 2, 3, 3], [1.0, 2.0, 3.0, 9.0])
        rt = runtime_for(g, SSSPProgram(source=0))
        assert rt.out_plan.edge_ids(np.arange(2)).tolist() == [0, 1]
        assert np.shares_memory(rt._tf_operand, rt.mg.eweight)
        assert rt._all_one_edge and rt._one_edge_sorted is None

    def test_parallel_copies_keep_the_sorted_mask(self):
        g = DiGraph(3, [0, 1, 0], [1, 2, 2])
        asg = np.array([0, 1, 0], dtype=np.int32)
        pg = PartitionedGraph.build(g, asg, 2, parallel_eids=[1])
        mg = next(m for m in pg.machines if m.eparallel.any())
        rt = MachineRuntime(mg, ConnectedComponentsProgram())
        assert not rt._all_one_edge
        np.testing.assert_array_equal(
            rt._one_edge_sorted, ~mg.eparallel[rt.out_plan.edge_ids()]
        )


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


class TestDeltaAge:
    """The staleness clock: ``tick_delta_age`` ages pending deltas and
    zeroes the rest; ``reset_delta_age`` (after an exchange that shipped
    something) zeroes slots left without a delta."""

    def _pending(self, rt, slots):
        rt.has_delta[:] = False
        rt.has_delta[slots] = True

    def test_starts_at_zero(self, cc_rt):
        assert cc_rt.delta_age.dtype == np.int64
        assert not cc_rt.delta_age.any()

    def test_tick_ages_pending_and_zeroes_the_rest(self, cc_rt):
        self._pending(cc_rt, [1, 2])
        cc_rt.tick_delta_age()
        cc_rt.tick_delta_age()
        assert cc_rt.delta_age.tolist() == [0, 2, 2, 0]
        self._pending(cc_rt, [2, 3])
        cc_rt.tick_delta_age()
        assert cc_rt.delta_age.tolist() == [0, 0, 3, 1]

    def test_reset_zeroes_only_slots_without_a_delta(self, cc_rt):
        self._pending(cc_rt, [1, 2])
        cc_rt.tick_delta_age()
        cc_rt.clear_deltas(np.array([1]))  # shipped; 2 stays pending
        cc_rt.reset_delta_age()
        assert cc_rt.delta_age.tolist() == [0, 0, 1, 0]

    def test_a_delta_cleared_by_an_empty_exchange_keeps_its_age(self, cc_rt):
        # no reset after an exchange that shipped nothing, and none in
        # clear_deltas: a delta arriving before the next tick inherits
        # the age (LazyVertexAsync's staleness_max reads it)
        self._pending(cc_rt, [1])
        cc_rt.tick_delta_age()
        cc_rt.tick_delta_age()
        cc_rt.clear_deltas(np.array([1]))
        assert cc_rt.delta_age[1] == 2
        self._pending(cc_rt, [1])
        cc_rt.tick_delta_age()
        assert cc_rt.delta_age[1] == 3


class TestDanglingSources:
    """PageRank / PPR divide each fired out-delta by the source's global
    out-degree once, before it is expanded to edges. A dangling
    (zero-out-degree) vertex still fires — every vertex at PageRank's
    bootstrap, a dangling seed at PPR's — so its divisor must never be
    a 0 the runtime actually divides by."""

    @staticmethod
    def _graph():
        # vertices 40..59 have no out-edges; 55..59 have no edges at all
        rng = np.random.default_rng(3)
        src = rng.integers(0, 40, size=200)
        dst = rng.integers(0, 55, size=200)
        keep = src != dst
        return DiGraph(60, src[keep], dst[keep])

    @pytest.mark.parametrize(
        "engine_cls", [LazyBlockAsyncEngine, LazyVertexAsyncEngine]
    )
    @pytest.mark.parametrize(
        "make_program",
        [
            lambda: PageRankDeltaProgram(tolerance=1e-4),
            # seeds 41 and 57 are dangling (57 is isolated)
            lambda: PersonalizedPageRankProgram([0, 41, 57]),
        ],
        ids=["pagerank", "ppr"],
    )
    def test_no_fp_error_and_generic_bits(self, engine_cls, make_program):
        pg = build_lazy_graph(self._graph(), 3, seed=1)
        values = {}
        for mode in ("auto", "generic"):
            # dense_min_edges=1 lets the auto run take its dense sweeps
            with configured(mode=mode, dense_min_edges=1), \
                    np.errstate(all="raise"), warnings.catch_warnings():
                warnings.simplefilter("error")
                eng = engine_cls(pg, make_program())
                result = eng.run()
            for rt in eng.runtimes:
                for buf in (rt.msg, rt.delta_msg, *rt.state.values()):
                    assert np.isfinite(buf).all()
            assert np.isfinite(result.values).all()
            values[mode] = result.values
        assert values["auto"].view(np.int64).tolist() == \
            values["generic"].view(np.int64).tolist()
