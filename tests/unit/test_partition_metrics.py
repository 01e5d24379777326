"""Unit tests for partition-quality metrics."""

import numpy as np
import pytest

from repro.partition import compute_partition_metrics
from repro.partition.base import partition_graph
from repro.partition.partitioned_graph import PartitionedGraph


class TestMetrics:
    def test_fields_consistent(self, er_partitioned):
        m = compute_partition_metrics(er_partitioned)
        assert m.num_machines == er_partitioned.num_machines
        assert m.replication_factor == pytest.approx(
            er_partitioned.replication_factor
        )
        assert m.edge_balance >= 1.0
        assert m.vertex_balance >= 1.0
        assert 0.0 <= m.replicated_vertex_fraction <= 1.0
        assert m.max_replicas_of_a_vertex <= er_partitioned.num_machines

    def test_single_machine_degenerate(self, er_graph):
        pg = PartitionedGraph.build(
            er_graph, np.zeros(er_graph.num_edges, dtype=np.int32), 1
        )
        m = compute_partition_metrics(pg)
        assert m.replication_factor == pytest.approx(1.0)
        assert m.replicated_vertex_fraction == 0.0
        assert m.est_exchange_volume_a2a_bytes == 0.0
        assert m.est_exchange_volume_m2m_bytes == 0.0

    def test_volume_estimates_upper_bound_measured(self, er_graph):
        """The a-priori exchange estimate bounds any real exchange."""
        from repro.algorithms import ConnectedComponentsProgram
        from repro.core import LazyBlockAsyncEngine
        from repro.core.transmission import build_lazy_graph

        sym = er_graph.symmetrized()
        pg = build_lazy_graph(sym, 6, seed=1)
        est = compute_partition_metrics(pg)
        eng = LazyBlockAsyncEngine(pg, ConnectedComponentsProgram(), trace=True)
        result = eng.run()
        # every single exchange is below the all-replicas-active bound
        volumes = [
            s["attrs"]["volume_bytes"] for s in result.trace.spans("phase")
            if s["name"] == "coherency"
        ]
        assert len(volumes) == eng.sim.stats.coherency_points
        assert max(volumes) > 0.0
        for volume in volumes:
            assert volume <= est.est_exchange_volume_a2a_bytes
        total = eng.sim.stats.comm_bytes
        points = max(eng.sim.stats.coherency_points, 1)
        assert total / points <= est.est_exchange_volume_a2a_bytes + 1e-9

    def test_a2a_estimate_dominates_m2m(self, er_partitioned):
        m = compute_partition_metrics(er_partitioned)
        assert (
            m.est_exchange_volume_a2a_bytes >= m.est_exchange_volume_m2m_bytes
        )

    def test_random_vs_coordinated_ordering(self, webby_graph):
        lam = {}
        for method in ("coordinated", "random"):
            asg = partition_graph(webby_graph, 8, method, seed=1)
            pg = PartitionedGraph.build(webby_graph, asg, 8)
            lam[method] = compute_partition_metrics(pg)
        assert (
            lam["coordinated"].replication_factor
            < lam["random"].replication_factor
        )
        assert (
            lam["coordinated"].est_exchange_volume_a2a_bytes
            < lam["random"].est_exchange_volume_a2a_bytes
        )
