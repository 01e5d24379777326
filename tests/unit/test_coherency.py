"""Unit tests for the delta-exchange machinery."""

import numpy as np
import pytest

from repro.algorithms import ConnectedComponentsProgram, PageRankDeltaProgram
from repro.api.vertex_program import DeltaAlgebra
from repro.cluster.network import CommMode
from repro.core.coherency import CoherencyExchanger
from repro.errors import EngineError
from repro.graph.digraph import DiGraph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime


def two_machine_setup(program):
    """Vertex 1 spans both machines: 0->1 on m0, 1->2 on m1."""
    g = DiGraph(3, [0, 1], [1, 2])
    asg = np.array([0, 1], dtype=np.int32)
    pg = PartitionedGraph.build(g, asg, 2)
    rts = [MachineRuntime(mg, program) for mg in pg.machines]
    return g, pg, rts


class TestFullExchange:
    def test_sum_delta_reaches_other_replica(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        m0.delta_msg[i1] = 0.5
        m0.has_delta[i1] = True
        ex = CoherencyExchanger(pg, prog, rts)
        report = ex.exchange()
        assert report.vertices_exchanged == 1
        m1 = rts[1]
        j1 = int(np.flatnonzero(m1.mg.vertices == 1)[0])
        assert m1.has_msg[j1]
        assert m1.msg[j1] == pytest.approx(0.5)
        # sender does not receive its own delta back (sum algebra)
        assert not m0.has_msg[i1]
        # sender's delta cleared
        assert not m0.has_delta[i1]

    def test_min_delta_delivery(self):
        prog = ConnectedComponentsProgram()
        g, pg, rts = two_machine_setup(prog)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        m0.delta_msg[i1] = 0.0  # label improvement
        m0.has_delta[i1] = True
        CoherencyExchanger(pg, prog, rts).exchange()
        m1 = rts[1]
        j1 = int(np.flatnonzero(m1.mg.vertices == 1)[0])
        assert m1.has_msg[j1] and m1.msg[j1] == 0.0

    def test_both_replicas_contribute(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        vals = {0: 0.25, 1: 0.75}
        for m, rt in enumerate(rts):
            i = int(np.flatnonzero(rt.mg.vertices == 1)[0])
            rt.delta_msg[i] = vals[m]
            rt.has_delta[i] = True
        CoherencyExchanger(pg, prog, rts).exchange()
        for m, rt in enumerate(rts):
            i = int(np.flatnonzero(rt.mg.vertices == 1)[0])
            # each replica receives exactly the *other* replica's delta
            assert rt.msg[i] == pytest.approx(vals[1 - m])

    def test_empty_exchange_report(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        report = CoherencyExchanger(pg, prog, rts).exchange()
        assert report.empty
        assert report.volume_bytes == 0.0

    def test_unreplicated_deltas_cleared(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        m1 = rts[1]
        j2 = int(np.flatnonzero(m1.mg.vertices == 2)[0])
        m1.delta_msg[j2] = 1.0
        m1.has_delta[j2] = True
        report = CoherencyExchanger(pg, prog, rts).exchange()
        assert report.empty  # vertex 2 has a single replica
        assert not m1.has_delta[j2]


    @pytest.mark.parametrize(
        "prog", [PageRankDeltaProgram(), ConnectedComponentsProgram()],
        ids=["sum", "min"],
    )
    def test_exchange_after_a_staged_one_stays_empty(self, prog):
        # no state of the first exchange (replica counts, own-delta
        # scratch) may leak into a second that stages nothing
        g, pg, rts = two_machine_setup(prog)
        ex = CoherencyExchanger(pg, prog, rts)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        m0.delta_msg[i1] = 0.5
        m0.has_delta[i1] = True
        assert ex.exchange().vertices_exchanged == 1
        for rt in rts:
            rt.take_ready()
        report = ex.exchange()
        assert report.empty
        assert report.vertices_exchanged == 0
        for rt in rts:
            assert not rt.has_msg.any()

    def test_repeated_sum_exchanges_remove_only_own_delta(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        ex = CoherencyExchanger(pg, prog, rts)
        slots = [int(np.flatnonzero(rt.mg.vertices == 1)[0]) for rt in rts]
        for vals in ([0.25, 0.75], [0.0, 2.0], [4.0, 0.0]):
            for rt, i, v in zip(rts, slots, vals):
                if v:
                    rt.delta_msg[i] = v
                    rt.has_delta[i] = True
            ex.exchange()
            got = [float(rt.msg[i]) for rt, i in zip(rts, slots)]
            assert got == [vals[1], vals[0]]
            for rt in rts:
                rt.take_ready()


    @pytest.mark.parametrize("engine", ["lazy-block", "lazy-vertex"])
    def test_delta_msg_is_identity_where_no_delta(self, engine, monkeypatch):
        # the Inverse delivery reads a replica's own contribution from
        # deltaMsg, which must hold the identity wherever has_delta is
        # unset — checked before every exchange of real runs
        import repro
        from repro.graph.generators import powerlaw_graph

        seen = {"exchanges": 0}
        inner = CoherencyExchanger.exchange

        def checked(self):
            ident = np.float64(self.program.algebra.identity).view(np.int64)
            for rt in self.runtimes:
                assert (rt.delta_msg[~rt.has_delta].view(np.int64) == ident).all()
            seen["exchanges"] += 1
            return inner(self)

        monkeypatch.setattr(CoherencyExchanger, "exchange", checked)
        repro.run(powerlaw_graph(300, 2_000, seed=3), "pagerank",
                  engine=engine, machines=4, tolerance=1e-4)
        assert seen["exchanges"] > 3

    @pytest.mark.parametrize("engine", ["lazy-block", "lazy-vertex"])
    @pytest.mark.parametrize(
        "alg,params",
        [("pagerank", {"tolerance": 1e-4}),
         ("ppr", {"seeds": (0, 5), "tolerance": 1e-4}),
         ("pagerank", {"tolerance": 1e-4, "incremental": True})],
        ids=["pagerank", "ppr", "pagerank-warm"],
    )
    def test_sum_buffers_never_hold_negative_zero(
        self, engine, alg, params, monkeypatch
    ):
        # identity padding rests on it: x + 0.0 returns x bit for bit
        # for every x but -0.0, and a SUM buffer that starts at +0.0 and
        # only receives ⊕-folds never holds -0.0 — checked on both sides
        # of every exchange of real runs. The dense Apply rests on the
        # same fact for the program state: vdata and pending start
        # non-negative, and pending resets to +0.0. The warm cell starts
        # from a converged state and folds signed corrections.
        import repro
        from repro.graph.generators import powerlaw_graph
        from repro.graph.mutation import MutationBatch
        from repro.session import GraphSession

        seen = {"exchanges": 0}
        inner = CoherencyExchanger.exchange

        def no_negative_zero(runtimes):
            for rt in runtimes:
                for buf in (rt.msg, rt.delta_msg, rt.state["vdata"],
                            rt.state["pending"]):
                    assert not ((buf == 0.0) & np.signbit(buf)).any()

        def checked(self):
            no_negative_zero(self.runtimes)
            report = inner(self)
            no_negative_zero(self.runtimes)
            seen["exchanges"] += 1
            return report

        monkeypatch.setattr(CoherencyExchanger, "exchange", checked)
        graph = powerlaw_graph(300, 2_000, seed=3)
        params = dict(params)
        if not params.pop("incremental", False):
            repro.run(graph, alg, engine=engine, machines=4, **params)
        else:
            batch = MutationBatch().add_edge(0, 7).add_edge(7, 11)
            for e in (3, 50, 400):
                batch.remove_edge(int(graph.src[e]), int(graph.dst[e]))
            with GraphSession.open(graph, machines=4, seed=0) as sess:
                sess.run(alg, engine=engine, **params)
                sess.apply(batch)
                seen["exchanges"] = 0
                inc = sess.run(alg, engine=engine, incremental=True, **params)
            assert inc.stats.extra["warm_start"] == 1
        assert seen["exchanges"] > 3

    @pytest.mark.parametrize(
        "alg,params",
        [("pagerank", {"tolerance": 1e-4}), ("sssp", {"source": 0})],
        ids=["sum", "min"],
    )
    def test_full_exchange_clears_every_delta(self, alg, params, monkeypatch):
        # every exchange, on either lazy engine, is full: every
        # replicated delta is staged and delivered, unreplicated ones
        # have no peers, so it ends with every flag down and every
        # deltaMsg at the identity
        import repro
        from repro.graph.generators import attach_uniform_weights, powerlaw_graph

        seen = {"staged": 0}
        inner = CoherencyExchanger.exchange

        def checked(self):
            seen["staged"] += sum(int(rt.has_delta.sum()) for rt in self.runtimes)
            report = inner(self)
            ident = np.float64(self.program.algebra.identity).view(np.int64)
            for rt in self.runtimes:
                assert not rt.has_delta.any()
                assert (rt.delta_msg.view(np.int64) == ident).all()
            return report

        monkeypatch.setattr(CoherencyExchanger, "exchange", checked)
        graph = attach_uniform_weights(powerlaw_graph(300, 2_000, seed=3), seed=3)
        for engine in ("lazy-block", "lazy-vertex"):
            seen["staged"] = 0
            repro.run(graph, alg, engine=engine, machines=4, **params)
            assert seen["staged"] > 0, engine

    def test_nonfinite_staged_delta_takes_the_index_path(self, monkeypatch):
        # m0 alone stages inf for vertex 1: streaming would add
        # inf - inf = NaN into m0's own slot; the index path leaves it be
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        m0, m1 = rts
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        j1 = int(np.flatnonzero(m1.mg.vertices == 1)[0])
        m0.delta_msg[i1] = np.inf
        m0.has_delta[i1] = True
        ex = CoherencyExchanger(pg, prog, rts)
        paths = []
        for name in ("_deliver_streaming", "_deliver_indexed"):
            inner = getattr(ex, name)
            monkeypatch.setattr(
                ex, name,
                lambda *a, _n=name, _f=inner: (paths.append(_n), _f(*a))[1],
            )
        ex.exchange()
        assert paths == ["_deliver_indexed"]
        assert not m0.has_msg[i1]
        assert m0.msg[i1] == 0.0 and not np.signbit(m0.msg[i1])
        assert m1.has_msg[j1] and m1.msg[j1] == np.inf
        for rt in rts:
            assert not rt.has_delta.any() and not rt.delta_msg.any()

    def test_streaming_delivery_ignores_unreplicated_deltas(self, monkeypatch):
        # a finite staged batch streams; an unreplicated slot's delta
        # (here inf, which times zero would be NaN) adds nothing
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        m0, m1 = rts
        i0 = int(np.flatnonzero(m0.mg.vertices == 0)[0])
        j1 = int(np.flatnonzero(m1.mg.vertices == 1)[0])
        m0.delta_msg[i0] = np.inf
        m0.has_delta[i0] = True
        m1.delta_msg[j1] = 0.5
        m1.has_delta[j1] = True
        ex = CoherencyExchanger(pg, prog, rts)
        paths = []
        inner = ex._deliver_streaming
        monkeypatch.setattr(
            ex, "_deliver_streaming", lambda *a: (paths.append(1), inner(*a))[1]
        )
        ex.exchange()
        assert paths == [1]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        assert m0.has_msg[i1] and m0.msg[i1] == 0.5
        assert not m0.has_msg[i0] and m0.msg[i0] == 0.0
        assert not m1.has_msg[j1] and m1.msg[j1] == 0.0
        assert not np.signbit(m1.msg[j1])
        for rt in rts:
            assert not rt.has_delta.any() and not rt.delta_msg.any()


class TestSweep:
    """A deferred LazyVertexAsync superstep runs ``sweep()``: it ships
    nothing and keeps every replicated pending delta, but clears what no
    exchange would ship — unreplicated deltas, and (idempotent ⊕)
    subsumed ones."""

    def test_sweep_ships_nothing_and_clears_unreplicated_deltas(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        m0, m1 = rts
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        j2 = int(np.flatnonzero(m1.mg.vertices == 2)[0])
        m0.delta_msg[i1], m0.has_delta[i1] = 0.5, True  # replicated
        m1.delta_msg[j2], m1.has_delta[j2] = 1.0, True  # vertex 2: solo
        report = CoherencyExchanger(pg, prog, rts).sweep()
        assert report.empty
        assert (report.volume_bytes, report.messages) == (0.0, 0)
        for rt in rts:
            assert not rt.has_msg.any() and not rt.msg.any()
        assert not m1.has_delta[j2] and m1.delta_msg[j2] == 0.0
        assert m0.has_delta[i1] and m0.delta_msg[i1] == 0.5

    def test_sweep_clears_subsumed_min_deltas(self):
        prog = ConnectedComponentsProgram()
        g, pg, rts = two_machine_setup(prog)
        m0, m1 = rts
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        j1 = int(np.flatnonzero(m1.mg.vertices == 1)[0])
        # 5.0 is worse than vertex 1's shared label 1.0; 0.0 improves it
        m0.delta_msg[i1], m0.has_delta[i1] = 5.0, True
        m1.delta_msg[j1], m1.has_delta[j1] = 0.0, True
        report = CoherencyExchanger(pg, prog, rts).sweep()
        assert report.empty and not any(rt.has_msg.any() for rt in rts)
        assert not m0.has_delta[i1] and m0.delta_msg[i1] == np.inf
        assert m1.has_delta[j1] and m1.delta_msg[j1] == 0.0

    def test_sweep_keeps_replicated_deltas_for_the_next_exchange(self):
        # a delta held over a deferred superstep ships whole at the next
        # exchange, and each replica removes only its own contribution
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        ex = CoherencyExchanger(pg, prog, rts)
        slots = [int(np.flatnonzero(rt.mg.vertices == 1)[0]) for rt in rts]
        rts[0].delta_msg[slots[0]], rts[0].has_delta[slots[0]] = 0.25, True
        assert ex.sweep().empty
        rts[1].delta_msg[slots[1]], rts[1].has_delta[slots[1]] = 0.75, True
        assert ex.exchange().vertices_exchanged == 1
        got = [float(rt.msg[i]) for rt, i in zip(rts, slots)]
        assert got == [0.75, 0.25]
        assert not any(rt.has_delta.any() for rt in rts)

    @pytest.mark.parametrize("alg", ["bfs", "ppr"])
    def test_lazy_vertex_sweeps_every_deferred_superstep(self, alg, monkeypatch):
        # road-usa-mini, 8 machines: cells whose results move when a
        # deferred superstep skips the sweep. Every deferral sweeps, and
        # leaves no unreplicated delta pending.
        import repro
        from repro.obs.tracer import Tracer

        calls = {"sweep": 0}
        inner = CoherencyExchanger.sweep

        def checked(self):
            report = inner(self)
            calls["sweep"] += 1
            for rt in self.runtimes:
                assert not (rt.has_delta & (rt.mg.num_replicas == 1)).any()
            return report

        monkeypatch.setattr(CoherencyExchanger, "sweep", checked)
        params = {"source": 0} if alg == "bfs" else {"seeds": (0, 5)}
        tracer = Tracer()
        repro.run("road-usa-mini", alg, engine="lazy-vertex", machines=8,
                  seed=0, lens=True, tracer=tracer, **params)
        defers = sum(d["attrs"]["verdict"] == "defer"
                     for d in tracer.instants("coherency-decision"))
        assert calls["sweep"] == defers > 0


class TestVolumes:
    def test_paper_volume_equations(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        m0.delta_msg[i1] = 0.5
        m0.has_delta[i1] = True
        report = CoherencyExchanger(pg, prog, rts).exchange()
        b = prog.delta_bytes
        # one replica has a delta (N=1), vertex has 2 replicas (Num=2):
        # a2a = N*(Num-1) = 1 message; m2m = N + Num - 2 = 1 message
        assert report.volume_a2a_bytes == pytest.approx(1 * b)
        assert report.volume_m2m_bytes == pytest.approx(1 * b)

    def test_forced_modes(self):
        for mode, expected in (
            ("a2a", CommMode.ALL_TO_ALL),
            ("m2m", CommMode.MIRRORS_TO_MASTER),
        ):
            prog = PageRankDeltaProgram()
            g, pg, rts = two_machine_setup(prog)
            m0 = rts[0]
            i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
            m0.delta_msg[i1] = 0.5
            m0.has_delta[i1] = True
            report = CoherencyExchanger(pg, prog, rts, mode=mode).exchange()
            assert report.mode is expected

    def test_mode_equivalence(self):
        """a2a and m2m exchanges must produce identical buffer states."""
        states = {}
        for mode in ("a2a", "m2m"):
            prog = PageRankDeltaProgram()
            g, pg, rts = two_machine_setup(prog)
            for m, rt in enumerate(rts):
                i = int(np.flatnonzero(rt.mg.vertices == 1)[0])
                rt.delta_msg[i] = 0.25 * (m + 1)
                rt.has_delta[i] = True
            CoherencyExchanger(pg, prog, rts, mode=mode).exchange()
            states[mode] = [rt.msg.copy() for rt in rts]
        for a, b in zip(states["a2a"], states["m2m"]):
            assert np.allclose(a, b)

    def test_invalid_mode_rejected(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        with pytest.raises(EngineError, match="unknown coherency mode"):
            CoherencyExchanger(pg, prog, rts, mode="bogus")

    def test_m2m_requires_inverse_or_idempotency(self):
        class ProdProgram(PageRankDeltaProgram):
            algebra = DeltaAlgebra("prod", np.multiply, 1.0)

        prog = ProdProgram()
        g, pg, rts = two_machine_setup(prog)
        with pytest.raises(EngineError, match="neither Inverse"):
            CoherencyExchanger(pg, prog, rts, mode="m2m")
        # a2a remains sound for any commutative monoid
        CoherencyExchanger(pg, prog, rts, mode="a2a")


class TestSubsumptionFilter:
    def test_non_improving_min_delta_not_shipped(self):
        prog = ConnectedComponentsProgram()
        g, pg, rts = two_machine_setup(prog)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        # delta 5.0 is worse than vertex 1's initial shared label 1.0
        m0.delta_msg[i1] = 5.0
        m0.has_delta[i1] = True
        report = CoherencyExchanger(pg, prog, rts).exchange()
        assert report.empty
        assert not m0.has_delta[i1]  # cleared as subsumed

    def test_improving_delta_still_shipped(self):
        prog = ConnectedComponentsProgram()
        g, pg, rts = two_machine_setup(prog)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        m0.delta_msg[i1] = 0.0
        m0.has_delta[i1] = True
        report = CoherencyExchanger(pg, prog, rts).exchange()
        assert report.vertices_exchanged == 1

    def test_shared_view_advances(self):
        prog = ConnectedComponentsProgram()
        g, pg, rts = two_machine_setup(prog)
        ex = CoherencyExchanger(pg, prog, rts)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        m0.delta_msg[i1] = 0.5
        m0.has_delta[i1] = True
        ex.exchange()
        # re-sending the same (now shared) value must be filtered
        m0.delta_msg[i1] = 0.5
        m0.has_delta[i1] = True
        assert ex.exchange().empty

    def test_sum_algebra_has_no_filter(self):
        prog = PageRankDeltaProgram()
        g, pg, rts = two_machine_setup(prog)
        ex = CoherencyExchanger(pg, prog, rts)
        m0 = rts[0]
        i1 = int(np.flatnonzero(m0.mg.vertices == 1)[0])
        for _ in range(2):
            m0.delta_msg[i1] = 0.5
            m0.has_delta[i1] = True
            assert ex.exchange().vertices_exchanged == 1
