"""Unit tests for the kernel layer: config, CSR plans, the fold, stats."""

import dataclasses

import numpy as np
import pytest

from repro.algorithms import ConnectedComponentsProgram, PageRankDeltaProgram
from repro.api.vertex_program import (
    MAX_ALGEBRA, MIN_ALGEBRA, SUM_ALGEBRA, DeltaProgram,
)
from repro.errors import AlgorithmError, ConfigError, GraphError
from repro.graph.digraph import DiGraph
from repro.kernels import (
    CSRPlan,
    KernelConfig,
    apply_segment_sums,
    configured,
    get_config,
    monoid_kind,
    scatter_reduce,
    segment_sum,
)
from repro.core.lazy_block_async import LazyBlockAsyncEngine
from repro.core.transmission import build_lazy_graph
from repro.graph.generators import powerlaw_graph, road_grid_graph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime


class TestKernelConfig:
    def test_defaults(self):
        cfg = KernelConfig()
        assert cfg.mode == "auto"
        assert [f.name for f in dataclasses.fields(cfg)] == [
            "mode", "dense_sweep_fraction", "dense_min_edges",
        ]

    @pytest.mark.parametrize(
        "bad",
        [
            dict(mode="fast"),
            dict(dense_sweep_fraction=-0.1),
        ],
    )
    def test_validation(self, bad):
        with pytest.raises(ConfigError):
            KernelConfig(**bad)

    def test_configured_restores_on_exit_and_error(self):
        before = get_config()
        with configured(mode="generic"):
            assert get_config().mode == "generic"
        assert get_config() is before
        with pytest.raises(RuntimeError):
            with configured(dense_min_edges=7):
                raise RuntimeError("boom")
        assert get_config() is before


class TestMonoidKind:
    def test_kinds(self):
        assert monoid_kind(SUM_ALGEBRA) == "sum"
        assert monoid_kind(MIN_ALGEBRA) == "min"
        assert monoid_kind(MAX_ALGEBRA) == "max"

    def test_unknown_ufunc_is_generic(self):
        class Odd:
            ufunc = np.multiply

        assert monoid_kind(Odd()) == "generic"


# ----------------------------------------------------------------------
# CSRPlan
# ----------------------------------------------------------------------
class TestCSRPlan:
    # edges grouped by source: 0->{1,2}, 2->{0,0}; vertex 1 has none
    KEY = np.array([2, 0, 2, 0])
    DST = np.array([0, 1, 0, 2])

    def plan(self):
        return CSRPlan(self.KEY, 3, dst=self.DST)

    def test_flatten_structures(self):
        p = self.plan()
        assert p.key_sorted.tolist() == [0, 0, 2, 2]
        assert p.counts.tolist() == [2, 0, 2]
        assert p.indptr.tolist() == [0, 2, 2, 4]
        assert p.nonempty_slots.tolist() == [0, 2]
        # stable order: original edge ids 1,3 (src 0) then 0,2 (src 2)
        assert p.edge_ids().tolist() == [1, 3, 0, 2]

    @pytest.mark.parametrize(
        "n, m", [(1, 5), (3, 0), (1000, 4000), (2**16, 3000), (2**16 + 7, 3000)]
    )
    def test_plan_matches_numpy_spelling(self, n, m):
        # the argsort + searchsorted construction the plan replaced, on
        # both sides of the uint16 width boundary
        key = np.random.default_rng(n).integers(0, n, m)
        p = CSRPlan(key, n)
        order = np.argsort(key, kind="stable")
        indptr = np.searchsorted(key[order], np.arange(n + 1))
        ids = p.edge_ids()
        assert ids.dtype == p.indptr.dtype == p.counts.dtype == np.int64
        assert np.array_equal(ids, order)
        assert np.array_equal(p.key_sorted, key[order])
        assert np.array_equal(p.indptr, indptr)
        assert np.array_equal(p.counts, np.diff(indptr))

    @pytest.mark.parametrize("bad", [3, -1])
    def test_out_of_range_key_raises(self, bad):
        # a key outside [0, n) would desynchronise counts and eorder
        with pytest.raises(GraphError, match=r"\[0, 3\)"):
            CSRPlan(np.array([0, bad, 2]), 3)

    def test_flatten_matches_naive(self):
        p = self.plan()
        pos, counts = p.flatten(np.array([0, 2]))
        assert counts.tolist() == [2, 2]
        assert p.key_sorted[pos].tolist() == [0, 0, 2, 2]
        pos, counts = p.flatten(np.array([1]))
        assert pos.size == 0 and counts.tolist() == [0]

    def test_dst_precomputations(self):
        p = self.plan()
        assert p.dst_sorted.tolist() == [1, 2, 0, 0]
        assert p.dst_counts_full.tolist() == [2, 1, 1]

    def test_select_sparse_small_frontier(self):
        p = self.plan()
        with configured(dense_min_edges=1, dense_sweep_fraction=0.6):
            mode, pos, counts, total = p.select(np.array([0]))
        assert (mode, total) == ("sparse", 2)  # 2/4 edges < 0.6
        assert counts.tolist() == [2]
        assert p.key_sorted[pos].tolist() == [0, 0]

    def test_select_dense_full(self):
        p = self.plan()
        with configured(dense_min_edges=1, dense_sweep_fraction=0.5):
            mode, pos, counts, total = p.select(np.array([0, 2]))
        assert (mode, pos, counts, total) == ("dense-full", None, None, 4)

    def test_select_dense_partial(self):
        # 6 edges over 3 sources; frontier {0,1} covers 4/6 >= 0.5: a
        # dense selection carries no positions, the sweep covers every
        # edge
        p = CSRPlan(np.array([0, 0, 1, 1, 2, 2]), 3)
        with configured(dense_min_edges=1, dense_sweep_fraction=0.5):
            mode, pos, counts, total = p.select(np.array([0, 1]))
        assert (mode, pos, counts, total) == ("dense", None, None, 4)

    def test_select_gates(self):
        p = self.plan()
        # generic mode pins the sparse flatten
        with configured(mode="generic", dense_min_edges=1,
                        dense_sweep_fraction=0.0):
            mode, *_ = p.select(np.array([0, 2]))
        assert mode == "sparse"
        # graphs below dense_min_edges never sweep densely
        with configured(dense_min_edges=1000, dense_sweep_fraction=0.0):
            mode, *_ = p.select(np.array([0, 2]))
        assert mode == "sparse"

    def test_select_empty_frontier(self):
        p = self.plan()
        mode, pos, counts, total = p.select(np.array([1]))
        assert (mode, total) == ("sparse", 0)
        assert pos.size == 0 and pos.dtype == np.int64

    def test_plan_holds_three_per_edge_arrays(self):
        # a plan lives as long as its session's partition and a merged
        # block's plan covers up to 2**17 edges: per edge it keeps the
        # stable order, the sorted keys and the sorted targets, nothing
        # else (no cached positions), plus O(slots)
        n, m = 500, 20_000
        rng = np.random.default_rng(7)
        p = CSRPlan(rng.integers(0, n, m), n, dst=rng.integers(0, n, m))
        arrays = {
            name: a for name, a in vars(p).items()
            if isinstance(a, np.ndarray)
        }
        per_edge = sorted(k for k, a in arrays.items() if a.size >= m)
        assert per_edge == ["dst_sorted", "eorder", "key_sorted"]
        assert all(arrays[k].itemsize == 8 for k in per_edge)
        per_slot = sum(a.nbytes for a in arrays.values()) - 24 * m
        assert per_slot <= 48 * (n + 1)

    @pytest.mark.parametrize("graph, machines", [
        (powerlaw_graph(3000, 20000, seed=4), 4),  # blocks of one machine
        (road_grid_graph(20, 20, seed=4), 8),      # one merged block
    ])
    def test_delta_plan_over_a_partition_is_a_view(self, graph, machines):
        # a partition's local edges are in source order, so a block's
        # out-plan sorts nothing: no eorder, and its per-edge arrays
        # are the block's own esrc / edst
        for block in build_lazy_graph(graph, machines, seed=0).blocks:
            m = block.num_local_edges
            p = CSRPlan(block.esrc, block.num_local_vertices, dst=block.edst)
            assert p.eorder is None
            assert np.shares_memory(p.key_sorted, block.esrc)
            assert np.shares_memory(p.dst_sorted, block.edst)
            owned = [
                name for name, a in vars(p).items()
                if isinstance(a, np.ndarray) and a.size == m
                and not np.shares_memory(a, block.esrc)
                and not np.shares_memory(a, block.edst)
            ]
            assert owned == []
            assert np.array_equal(p.edge_ids(), np.arange(m))
            assert np.array_equal(p.edge_ids(np.array([2, 0])), [2, 0])

    def test_tiebreak_orders_equal_keys(self):
        # edges 1 and 3 share key 0: the tiebreak lists 3 first
        p = CSRPlan(np.array([1, 0, 1, 0]), 2, tiebreak=np.array([3, 2, 1, 0]))
        assert p.edge_ids().tolist() == [3, 1, 2, 0]
        assert p.key_sorted.tolist() == [0, 0, 1, 1]
        # a tiebreak sorts even keys that are already in order
        p = CSRPlan(np.array([0, 0, 1]), 2, tiebreak=np.array([1, 0, 2]))
        assert p.edge_ids().tolist() == [1, 0, 2]


# ----------------------------------------------------------------------
# scatter_reduce
# ----------------------------------------------------------------------
class TestScatterReduce:
    IDX = np.array([0, 1, 1, 2, 0, 2, 1, 0])
    VAL = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])

    def test_empty_is_noop(self):
        buf = np.zeros(3)
        assert scatter_reduce(SUM_ALGEBRA, buf, self.IDX[:0], self.VAL[:0]) \
            == "noop"
        assert buf.tolist() == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize(
        "algebra,dtype", [
            (SUM_ALGEBRA, np.float64),
            (SUM_ALGEBRA, np.float32),
            (MIN_ALGEBRA, np.float64),
            (MAX_ALGEBRA, np.float64),
        ],
    )
    def test_nonempty_is_one_ufunc_at(self, algebra, dtype):
        buf = np.full(3, algebra.identity, dtype=dtype)
        base = buf.copy()
        algebra.ufunc.at(base, self.IDX, self.VAL.astype(dtype))
        label = scatter_reduce(algebra, buf, self.IDX, self.VAL.astype(dtype))
        assert label == "ufunc_at"
        assert buf.tobytes() == base.tobytes()


class TestApplySegmentSums:
    def test_residual_refold_on_dirty_buffer(self):
        # slot 0 is non-zero AND receives two contributions -> unsafe,
        # must re-fold through add.at elementwise
        buf = np.array([0.1, 0.0, 5.0])
        idx = np.array([0, 0, 2])
        vals = np.array([1e16, -1e16, 1.0])
        base = buf.copy()
        np.add.at(base, idx, vals)
        sums = np.bincount(idx, weights=vals, minlength=3)
        counts = np.bincount(idx, minlength=3)
        apply_segment_sums(buf, sums, counts, idx, vals)
        assert buf.view(np.int64).tolist() == base.view(np.int64).tolist()

    def test_negative_zero_not_treated_as_identity(self):
        # -0.0 + +0.0 == +0.0, while the "identity slot" shortcut would
        # keep -0.0; the kernel must detect this and take the exact path
        buf = np.array([-0.0])
        idx = np.array([0, 0])
        vals = np.array([0.0, 0.0])
        base = buf.copy()
        np.add.at(base, idx, vals)
        sums = np.bincount(idx, weights=vals, minlength=1)
        counts = np.bincount(idx, minlength=1)
        apply_segment_sums(buf, sums, counts, idx, vals)
        assert buf.view(np.int64).tolist() == base.view(np.int64).tolist()

    def test_untouched_slots_unchanged(self):
        buf = np.array([1.0, 2.0, 3.0])
        idx = np.array([1, 1])
        vals = np.array([1.0, 1.0])
        apply_segment_sums(
            buf, np.bincount(idx, weights=vals, minlength=3),
            np.bincount(idx, minlength=3), idx, vals,
        )
        assert buf.tolist() == [1.0, 4.0, 3.0]


class TestSegmentSum:
    def test_empty(self):
        out = segment_sum(np.array([], dtype=np.int64), np.array([]), 4)
        assert out.tolist() == [0.0] * 4

    @pytest.mark.parametrize("mode", ["auto", "generic"])
    def test_out_of_range_slot_raises(self, mode):
        # a contribution to a slot >= n is a caller bug in both modes:
        # bincount must not silently drop what np.add.at rejects
        with configured(mode=mode), pytest.raises(IndexError):
            segment_sum(np.array([0, 5]), np.array([1.0, 2.0]), 3)

    @pytest.mark.parametrize("mode", ["auto", "generic"])
    def test_pads_untouched_tail_slots(self, mode):
        with configured(mode=mode):
            out = segment_sum(np.array([1, 1]), np.array([1.0, 2.0]), 4)
        assert out.tolist() == [0.0, 3.0, 0.0, 0.0]


# ----------------------------------------------------------------------
# MachineRuntime integration points
# ----------------------------------------------------------------------
def _runtime(graph, program):
    pg = PartitionedGraph.build(
        graph, np.zeros(graph.num_edges, dtype=np.int32), 1
    )
    return MachineRuntime(pg.machines[0], program)


class TestEdgeTransformValidation:
    def test_unknown_op_raises(self):
        class Bad(ConnectedComponentsProgram):
            def edge_transform(self, mg):
                return ("multiply", None)

        g = DiGraph(3, [0, 1], [1, 2])
        with pytest.raises(AlgorithmError, match="edge_transform op"):
            _runtime(g, Bad())

    def test_wrong_operand_shape_raises(self):
        class Bad(ConnectedComponentsProgram):
            def edge_transform(self, mg):
                return ("add", np.zeros(mg.esrc.size + 1))

        g = DiGraph(3, [0, 1], [1, 2])
        with pytest.raises(AlgorithmError, match="per-local-edge"):
            _runtime(g, Bad())

    def test_wrong_source_operand_shape_raises(self):
        class Bad(PageRankDeltaProgram):
            def edge_transform(self, mg):
                # per-edge, where divide_source takes one per local vertex
                return ("divide_source", mg.out_deg_global[mg.esrc])

        g = DiGraph(3, [0, 1], [1, 2])
        with pytest.raises(AlgorithmError, match="per-source"):
            _runtime(g, Bad())

    def test_add_without_operand_raises_at_construction(self):
        class Bad(ConnectedComponentsProgram):
            def edge_transform(self, mg):
                return ("add", None)

        pg = build_lazy_graph(DiGraph(3, [0, 1], [1, 2]), 2, seed=1)
        with pytest.raises(AlgorithmError, match="needs an operand"):
            LazyBlockAsyncEngine(pg, Bad())

    def test_program_declaring_no_transform_is_refused(self):
        class Undeclared(DeltaProgram):
            name = "undeclared"

            def make_state(self, mg):
                return {"vdata": np.zeros(mg.num_local_vertices)}

            def initial_scatter(self, mg, state):
                return None, np.ones(mg.num_local_vertices, dtype=bool)

            def apply(self, mg, state, idx, accum):
                return accum, np.zeros(idx.size, dtype=bool)

        pg = build_lazy_graph(DiGraph(3, [0, 1], [1, 2]), 2, seed=1)
        with pytest.raises(AlgorithmError, match="undeclared: no per-edge"):
            LazyBlockAsyncEngine(pg, Undeclared())

    def test_derivation_without_transform_raises(self):
        class Opaque(PageRankDeltaProgram):
            def edge_transform(self, mg):
                return None

        # the runtime is not built: the program fails before any scatter
        with pytest.raises(AlgorithmError, match="must override edge_message"):
            _runtime(DiGraph(3, [0, 1], [1, 2]), Opaque())

    def test_transform_matches_edge_message(self):
        # the hoisted divide transform must reproduce edge_message bits
        g = DiGraph(4, [0, 0, 1, 2], [1, 2, 3, 3])
        rt = _runtime(g, PageRankDeltaProgram())
        frontier = np.array([0, 1])
        deltas = np.array([0.3, 0.7])
        rt.scatter(frontier, deltas, track_delta=False)
        fast = rt.msg.copy()
        with configured(mode="generic"):
            rt2 = _runtime(g, PageRankDeltaProgram())
            rt2.scatter(frontier, deltas, track_delta=False)
        assert fast.view(np.int64).tolist() == \
            rt2.msg.view(np.int64).tolist()


class TestSweepModeFlags:
    """Sparse, dense and dense-full scatters leave identical buffers.

    A block with parallel edges sweeps sparse whatever the frontier: its
    ``has_delta`` must stay unset where only parallel-edge messages
    landed, which one shared fold cannot give."""

    # 0..5 each reach the next three around a ring (edges 0..17), and
    # 0,1 -> 6, 2,4 -> 7 (edges 18..21); marked parallel, those last four
    # are the only way into 6 and 7
    SRC = np.r_[np.repeat(np.arange(6), 3), 0, 1, 2, 4]
    DST = np.r_[(np.repeat(np.arange(6), 3) + np.tile([1, 2, 3], 6)) % 6,
                6, 6, 7, 7]

    def _scatter(self, program, frontier, fraction, parallel):
        g = DiGraph(8, self.SRC, self.DST)
        pg = PartitionedGraph.build(
            g, np.zeros(g.num_edges, dtype=np.int32), 1,
            parallel_eids=parallel,
        )
        with configured(dense_min_edges=1, dense_sweep_fraction=fraction):
            rt = MachineRuntime(pg.machines[0], program)
            rt.scatter(frontier, np.linspace(0.5, 2.0, frontier.size), True)
        return rt

    @pytest.mark.parametrize(
        "program", [PageRankDeltaProgram(), ConnectedComponentsProgram()],
        ids=["sum", "min"],
    )
    @pytest.mark.parametrize(
        "parallel", [None, np.arange(18, 22)], ids=["one-edge", "parallel"]
    )
    @pytest.mark.parametrize(
        "frontier,dense_mode",
        [(np.array([0, 1, 2, 4]), "dense"), (np.arange(8), "dense-full")],
        ids=["partial", "full"],
    )
    def test_modes_leave_identical_buffers(
        self, program, parallel, frontier, dense_mode
    ):
        # a fraction above 1 never sweeps densely; 0 always does
        sparse = self._scatter(program, frontier, 2.0, parallel)
        dense = self._scatter(program, frontier, 0.0, parallel)
        assert sparse._last_sweep_mode == "sparse"
        assert dense._last_sweep_mode == (
            dense_mode if parallel is None else "sparse"
        )
        for name in ("msg", "delta_msg", "has_msg", "has_delta"):
            a, b = getattr(sparse, name), getattr(dense, name)
            assert a.tobytes() == b.tobytes(), name
        assert dense.has_msg[[6, 7]].all()
        # reached only over parallel edges: a message but no deltaMsg
        assert dense.has_delta[6] == dense.has_delta[7] == (parallel is None)


class TestComplementFlags:
    """A dense sweep that pads the frontier's complement flags exactly
    the targets the frontier's own edges reach (read off the folded
    values); checked against a brute-force OR over those edges on random
    plans. Blocks with parallel edges sweep sparse."""

    @staticmethod
    def _graph(seed, n=40, m=160, isolated=6):
        # the last `isolated` vertices own no out-edges
        rng = np.random.default_rng(seed)
        src = rng.integers(0, n - isolated, m)
        dst = rng.integers(0, n, m)
        return DiGraph(n, src, dst), rng

    @pytest.mark.parametrize(
        "program", [PageRankDeltaProgram(), ConnectedComponentsProgram()],
        ids=["sum", "min"],
    )
    @pytest.mark.parametrize("parallel", [False, True], ids=["one-edge", "parallel"])
    @pytest.mark.parametrize(
        "cover", ["full", "random", "with-edgeless"],
    )
    @pytest.mark.parametrize("seed", range(4))
    def test_flags_match_brute_force(self, program, parallel, cover, seed):
        g, rng = self._graph(seed)
        par = (
            np.flatnonzero(rng.random(g.num_edges) < 0.25) if parallel else None
        )
        pg = PartitionedGraph.build(
            g, np.zeros(g.num_edges, dtype=np.int32), 1, parallel_eids=par,
        )
        mg = pg.machines[0]
        n = mg.num_local_vertices
        if cover == "full":
            frontier = np.arange(n)
        else:
            frontier = np.flatnonzero(rng.random(n) < 0.75)
            if cover == "with-edgeless":
                edgeless = np.flatnonzero(np.bincount(mg.esrc, minlength=n) == 0)
                frontier = np.union1d(frontier, edgeless[::2])
        deltas = np.linspace(0.5, 2.0, frontier.size)
        with configured(dense_min_edges=1, dense_sweep_fraction=0.0):
            rt = MachineRuntime(mg, program)
            rt.scatter(frontier, deltas, True)
        assert rt._last_sweep_mode == (
            "sparse" if parallel
            else "dense-full" if cover == "full" else "dense"
        )
        with configured(mode="generic"):
            base = MachineRuntime(mg, program)
            base.scatter(frontier, deltas, True)
        for name in ("msg", "delta_msg", "has_msg", "has_delta"):
            a, b = getattr(rt, name), getattr(base, name)
            assert a.tobytes() == b.tobytes(), name
        fired = np.isin(mg.esrc, frontier)
        want_msg = np.zeros(n, dtype=bool)
        want_msg[mg.edst[fired]] = True
        want_delta = np.zeros(n, dtype=bool)
        want_delta[mg.edst[fired & ~mg.eparallel]] = True
        assert rt.has_msg.tolist() == want_msg.tolist()
        assert rt.has_delta.tolist() == want_delta.tolist()
        # deltaMsg holds the identity wherever has_delta is unset
        ident = np.float64(program.algebra.identity)
        assert (rt.delta_msg[~rt.has_delta] == ident).all()


class TestIdentityPadding:
    """Only programs whose edge transform maps the ⊕-identity to itself
    sweep densely; every other program sweeps sparse, bit-equal."""

    G = DiGraph(6, [0, 0, 1, 2, 3, 4, 5, 5], [1, 2, 3, 3, 4, 5, 0, 2])

    def _mode(self, program):
        with configured(dense_min_edges=1, dense_sweep_fraction=0.0):
            rt = _runtime(self.G, program)
            rt.scatter(np.arange(5), np.linspace(1.0, 3.0, 5), True)
        with configured(mode="generic"):
            base = _runtime(self.G, program)
            base.scatter(np.arange(5), np.linspace(1.0, 3.0, 5), True)
        for name in ("msg", "delta_msg", "has_msg", "has_delta"):
            assert getattr(rt, name).tobytes() == getattr(base, name).tobytes()
        return rt._last_sweep_mode

    def test_builtin_transforms_pad(self):
        from repro.algorithms import BFSProgram

        for program in (PageRankDeltaProgram(), ConnectedComponentsProgram(),
                        BFSProgram()):
            assert self._mode(program) == "dense", program.name

    def test_no_transform_sweeps_sparse(self):
        class Opaque(PageRankDeltaProgram):
            def edge_transform(self, mg):
                return None

            def edge_message(self, mg, edge_sel, delta_per_edge):
                return delta_per_edge / mg.out_deg_global[mg.esrc[edge_sel]]

        assert self._mode(Opaque()) == "sparse"

    def test_sum_add_sweeps_sparse(self):
        class Shifted(PageRankDeltaProgram):
            # 0 + 1 != 0: padding would not be the identity
            def edge_transform(self, mg):
                return ("add", 1.0)

        assert self._mode(Shifted()) == "sparse"

    def test_min_add_with_infinite_operand_sweeps_sparse(self):
        class Unbounded(ConnectedComponentsProgram):
            # inf + (-inf) is NaN, not the identity
            def edge_transform(self, mg):
                w = np.zeros(mg.esrc.size)
                w[0] = -np.inf
                return ("add", w)

        assert self._mode(Unbounded()) == "sparse"


class TestTakeReadyScratch:
    def test_consecutive_drains_reuse_scratch(self):
        g = DiGraph(3, [0, 1], [1, 2]).symmetrized()
        rt = _runtime(g, ConnectedComponentsProgram())
        rt.scatter(np.array([0]), np.array([0.0]), track_delta=False)
        idx1, acc1, _ = rt.take_ready()
        first = (idx1.tolist(), acc1.tolist())
        rt.scatter(np.array([2]), np.array([2.0]), track_delta=False)
        idx2, acc2, _ = rt.take_ready()
        # second drain is correct even though it reuses the same scratch
        assert idx2.tolist() == [1] and acc2.tolist() == [2.0]
        assert first == ([1], [0.0])
        assert rt.num_active == 0

    def test_buffers_reset_after_drain(self):
        g = DiGraph(2, [0], [1])
        rt = _runtime(g, ConnectedComponentsProgram())
        rt.scatter(np.array([0]), np.array([0.0]), track_delta=False)
        rt.take_ready()
        assert rt.msg[1] == rt.algebra.identity
        assert not rt.has_msg.any()


class TestSweepModeStats:
    def _graph(self):
        # a denser graph so dense sweeps are representative
        rng = np.random.default_rng(0)
        src = rng.integers(0, 8, size=40)
        dst = rng.integers(0, 8, size=40)
        return DiGraph(8, src, dst)

    def test_dense_full_sweep_recorded(self):
        with configured(dense_min_edges=1, dense_sweep_fraction=0.0):
            rt = _runtime(self._graph(), PageRankDeltaProgram())
            rt.scatter(np.arange(8), np.ones(8), track_delta=False)
        labels = list(rt.kernel_stats.calls)
        assert any(lbl.startswith("scatter/dense-full/") for lbl in labels)
        assert rt._last_sweep_mode == "dense-full"

    def test_sparse_sweep_recorded(self):
        with configured(dense_min_edges=10**9):
            rt = _runtime(self._graph(), PageRankDeltaProgram())
            rt.scatter(np.array([0]), np.array([1.0]), track_delta=False)
        assert any(
            lbl.startswith("scatter/sparse/") for lbl in rt.kernel_stats.calls
        )

    def test_stats_flatten_into_extra(self):
        with configured(dense_min_edges=1, dense_sweep_fraction=0.0):
            rt = _runtime(self._graph(), PageRankDeltaProgram())
            rt.scatter(np.arange(8), np.ones(8), track_delta=True)
        extra = rt.kernel_stats.as_extra()
        assert any(k.startswith("kernel_scatter/") and k.endswith("_calls")
                   for k in extra)
        assert any(k.endswith("_host_s") for k in extra)
