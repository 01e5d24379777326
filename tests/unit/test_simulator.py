"""Unit tests for the cluster simulator and run statistics."""

import numpy as np
import pytest

from repro.cluster.simulator import ClusterSim
from repro.cluster.stats import RunStats
from repro.errors import EngineError


def _charge(sim, machine, edge_ops):
    """Charge ``edge_ops`` edge traversals to one machine, the rest idle."""
    edges = np.zeros(sim.num_machines)
    edges[machine] = edge_ops
    sim.add_compute_all(edges, np.zeros(sim.num_machines))


class TestStats:
    def test_time_breakdown_sums(self):
        s = RunStats()
        s.add_compute(1.0)
        s.add_comm(2.0)
        s.add_sync(0.5)
        assert s.modeled_time_s == pytest.approx(3.5)
        assert (s.compute_time_s, s.comm_time_s, s.sync_time_s) == (1.0, 2.0, 0.5)

    def test_bump(self):
        s = RunStats()
        s.bump("x")
        s.bump("x")
        assert s.extra["x"] == 2.0

    def test_summary_contains_key_counters(self):
        s = RunStats(global_syncs=7, comm_bytes=2e6)
        text = s.summary()
        assert "syncs=7" in text
        assert "2.000MB" in text


class TestClusterSim:
    def test_requires_machines(self):
        with pytest.raises(EngineError):
            ClusterSim(0)

    def test_compute_accounting(self):
        sim = ClusterSim(3)
        _charge(sim, 0, sim.network.teps)  # 1 second on machine 0
        _charge(sim, 1, sim.network.teps / 2)
        sim.barrier()
        # barrier folds the busiest machine only (BSP max semantics)
        assert sim.stats.compute_time_s == pytest.approx(1.0)
        assert sim.stats.global_syncs == 1

    def test_busy_meters_reset_after_barrier(self):
        sim = ClusterSim(2)
        _charge(sim, 0, sim.network.teps)
        sim.barrier()
        sim.barrier()
        assert sim.stats.compute_time_s == pytest.approx(1.0)

    def test_bulk_transfer(self):
        sim = ClusterSim(4)
        sim.bulk_transfer(1e4, 25)
        assert sim.stats.comm_bytes == 1e4
        assert sim.stats.comm_messages == 25

    def test_exchange_round_time(self):
        sim = ClusterSim(8)
        sim.exchange_round(1e6)
        expected = sim.network.round_time(1e6, 8)
        assert sim.stats.comm_time_s == pytest.approx(expected)
        assert sim.stats.comm_rounds == 1

    def test_settle_async_no_sync(self):
        sim = ClusterSim(2)
        _charge(sim, 0, sim.network.teps)
        sim.settle_async(np.array([10, 0]))
        assert sim.stats.global_syncs == 0
        assert sim.stats.compute_time_s > 1.0  # includes message overhead
