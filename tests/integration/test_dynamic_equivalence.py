"""Incremental re-convergence ≡ from-scratch, across the matrix.

The tentpole guarantee of the dynamic-graph layer: after
``session.apply(batch)``, a warm-started ``session.run(...,
incremental=True)`` lands on the *same fixpoint* as a cold run over the
patched graph in the same session —

* **exactly** (bit-identical values) for the idempotent MIN/MAX
  programs (bfs, cc, sssp, msbfs), whose taint-and-reseed plan restores
  cold-start semantics wherever the old fixpoint lost support;
* **within the termination band** for the invertible SUM programs
  (pagerank, ppr), whose signed corrections cancel retracted mass —
  both runs stop when residual mass drops under ``tolerance``, so they
  agree to O(tolerance) like any two orderings of the same asynchronous
  execution;

and does so in no more supersteps than the cold run, with the coherency
lens finding nothing to flag.

Comparisons happen *within one session* on purpose: synthetic weights
for patched graph versions are derived from the session seed and the
mutation log, so the session is the unit of reproducibility.
"""

from unittest import mock

import numpy as np
import pytest

from repro.algorithms.apply_rules import MinRelaxProgram
from repro.graph.generators import erdos_renyi_graph
from repro.graph.mutation import MutationBatch
from repro.kernels import configured
from repro.obs.audit import LensAuditor
from repro.obs.records import trace_from_tracer
from repro.obs.tracer import Tracer
from repro.runtime.warm_start import WarmStartProgram
from repro.session import GraphSession

MACHINES = 6

#: (algorithm, params) -> exact agreement expected
EXACT = [
    ("bfs", {"source": 0}),
    ("cc", {}),
    ("sssp", {"source": 0}),
    ("msbfs", {"sources": (0, 3)}),
]
#: (algorithm, params) -> agreement to O(tolerance)
BAND = [
    ("pagerank", {"tolerance": 1e-4}),
    ("ppr", {"seeds": (0, 2), "tolerance": 1e-4}),
]


def _graph():
    return erdos_renyi_graph(150, 900, seed=11)


def _batch(graph):
    return (
        MutationBatch()
        .add_vertices(2)
        .add_edge(0, 150)
        .add_edge(150, 151)
        .add_edge(5, 40)
        .remove_edge(int(graph.src[3]), int(graph.dst[3]))
        .remove_edge(int(graph.src[400]), int(graph.dst[400]))
    )


def _roundtrip(alg, params, **run_kwargs):
    """cold@v0 -> apply -> (incremental@v1, cold@v1) in one session."""
    graph = _graph()
    with GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
        sess.run(alg, **params, **run_kwargs)  # records the v0 fixpoint
        applied = sess.apply(_batch(graph))
        inc = sess.run(alg, incremental=True, **params, **run_kwargs)
        cold = sess.run(alg, **params, **run_kwargs)
    return applied, inc, cold


class TestExactReconvergence:
    @pytest.mark.parametrize("alg,params", EXACT, ids=lambda p: str(p))
    def test_incremental_matches_cold_bitwise(self, alg, params):
        applied, inc, cold = _roundtrip(alg, params)
        assert applied.graph_version == 1
        assert inc.stats.extra["warm_start"] == 1.0
        np.testing.assert_array_equal(inc.values, cold.values)
        assert inc.stats.supersteps <= cold.stats.supersteps


class TestBandReconvergence:
    @pytest.mark.parametrize("alg,params", BAND, ids=lambda p: str(p))
    def test_incremental_matches_cold_within_band(self, alg, params):
        applied, inc, cold = _roundtrip(alg, params)
        assert applied.graph_version == 1
        assert inc.stats.extra["warm_start"] == 1.0
        err = float(np.max(np.abs(inc.values - cold.values)))
        assert err <= 50 * params["tolerance"], err
        assert inc.stats.supersteps <= cold.stats.supersteps


class TestLensClean:
    """Injected warm-start messages respect the coherency invariants:
    the lens auditor finds nothing to flag on an incremental run."""

    @pytest.mark.parametrize(
        "alg,params",
        [("bfs", {"source": 0}), ("pagerank", {"tolerance": 1e-4})],
        ids=lambda p: str(p),
    )
    def test_auditor_finds_nothing(self, alg, params):
        graph = _graph()
        with GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
            sess.run(alg, **params)
            sess.apply(_batch(graph))
            tracer = Tracer()
            inc = sess.run(
                alg, incremental=True, tracer=tracer, lens=True, **params
            )
        assert inc.stats.extra["warm_start"] == 1.0
        anomalies = LensAuditor(trace_from_tracer(tracer)).audit()
        assert anomalies == [], [str(a) for a in anomalies]
        assert inc.stats.extra["lens.invariant_breaks"] == 0.0


class TestWarmStartBookkeeping:
    def test_cold_fallback_then_warm(self):
        """incremental=True with no recorded fixpoint runs cold (marker
        0.0) and records one, so the next incremental run is warm."""
        graph = _graph()
        with GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
            sess.apply(_batch(graph))  # mutate before any run
            first = sess.run("bfs", source=0, incremental=True)
            assert first.stats.extra["warm_start"] == 0.0
            sess.apply(MutationBatch().add_edge(1, 7))
            second = sess.run("bfs", source=0, incremental=True)
            assert second.stats.extra["warm_start"] == 1.0

    def test_identity_batch_reconverges_instantly(self):
        graph = _graph()
        with GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
            base = sess.run("bfs", source=0)
            sess.apply(MutationBatch())  # version bump, no edge change
            inc = sess.run("bfs", source=0, incremental=True)
            np.testing.assert_array_equal(inc.values, base.values)
            assert inc.stats.supersteps == 0


def _replace_batch(graph):
    """``remove_edge(u, v)`` + ``add_edge(u, v)`` in one batch.

    The session's recorded edge diff says remove + insert; comparing the
    two graphs (the ``graph_delta`` oracle) sees no change at all on an
    unweighted variant. Two of the replaced edges leave the BFS/SSSP
    source, so they carry old-fixpoint support.
    """
    eids = graph.out_edge_ids(0)[:2].tolist() + [3, 400]
    batch = MutationBatch()
    for e in eids:
        u, v = int(graph.src[e]), int(graph.dst[e])
        batch.remove_edge(u, v).add_edge(u, v)
    return batch


class TestReplaceBatch:
    """Plans built from a delta that names a replaced edge on both sides
    still re-converge to the cold fixpoint."""

    def _roundtrip(self, alg, params):
        graph = _graph()
        with GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
            sess.run(alg, **params)
            sess.apply(_replace_batch(graph))
            inc = sess.run(alg, incremental=True, **params)
            cold = sess.run(alg, **params)
        assert inc.stats.extra["warm_start"] == 1
        return inc, cold

    @pytest.mark.parametrize(
        "alg,params", [EXACT[0], EXACT[1], EXACT[2]], ids=lambda p: str(p)
    )
    def test_exact_programs_bitwise(self, alg, params):
        inc, cold = self._roundtrip(alg, params)
        np.testing.assert_array_equal(inc.values, cold.values)

    def test_replaced_support_edge_is_replanned(self):
        """The diff, not a graph comparison, feeds the plan: replacing a
        source out-edge taints its target even though the edge set is
        the same before and after."""
        inc, _ = self._roundtrip("bfs", {"source": 0})
        assert inc.stats.extra["warm_reseeded"] > 0

    def test_pagerank_within_band(self):
        alg, params = BAND[0]
        inc, cold = self._roundtrip(alg, params)
        err = float(np.max(np.abs(inc.values - cold.values)))
        assert err <= 50 * params["tolerance"], err


class Hops(MinRelaxProgram):
    """BFS levels declared by ``edge_message`` alone, as a user program
    may: the warm runtime reaches it through ``WarmStartProgram``'s
    forwarder, where the base class's derivation would raise."""

    name = "hops"

    def __init__(self, source: int = 0) -> None:
        self.source = source

    def make_state(self, mg):
        level = np.full(mg.num_local_vertices, np.inf)
        level[mg.vertices == self.source] = 0.0
        return {"vdata": level}

    def initial_scatter(self, mg, state):
        active = mg.vertices == self.source
        return np.where(active, 0.0, np.inf), active

    def edge_message(self, mg, edge_sel, delta_per_edge):
        return delta_per_edge + 1.0


class TestEdgeMessageOnlyProgram:
    @pytest.mark.parametrize("mode", ["auto", "generic"])
    def test_incremental_matches_cold_bitwise(self, mode):
        graph = _graph()
        forwarder = mock.patch.object(
            WarmStartProgram, "edge_message", autospec=True,
            side_effect=WarmStartProgram.edge_message,
        )
        with configured(mode=mode), \
                GraphSession.open(graph, machines=MACHINES, seed=0) as sess:
            sess.run(Hops())
            sess.apply(_batch(graph))
            with forwarder as forwarded:
                inc = sess.run(Hops(), incremental=True)
            cold = sess.run(Hops())
            bfs = sess.run("bfs", source=0)
        assert inc.stats.extra["warm_start"] == 1
        assert forwarded.called
        np.testing.assert_array_equal(inc.values, cold.values)
        np.testing.assert_array_equal(inc.values, bfs.values)
