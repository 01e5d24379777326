"""Unit tests for the four-counter termination detector."""

import pytest

from repro.cluster.simulator import ClusterSim
from repro.cluster.termination import PROBE_BYTES_PER_MACHINE, TerminationDetector
from repro.comms import ExchangePlane


@pytest.fixture()
def setup():
    sim = ClusterSim(4)
    return sim, TerminationDetector(sim, ExchangePlane(sim).control)


class TestDetector:
    def test_one_quiet_probe_is_not_enough(self, setup):
        sim, det = setup
        assert not det.probe([True] * 4, 10, 10)

    def test_two_consecutive_quiet_probes_terminate(self, setup):
        sim, det = setup
        assert not det.probe([True] * 4, 10, 10)
        assert det.probe([True] * 4, 10, 10)

    def test_busy_machine_resets(self, setup):
        sim, det = setup
        det.probe([True] * 4, 10, 10)
        assert not det.probe([True, False, True, True], 10, 10)
        # history wiped: two more clean probes needed
        assert not det.probe([True] * 4, 10, 10)
        assert det.probe([True] * 4, 10, 10)

    def test_in_flight_messages_block(self, setup):
        sim, det = setup
        # sent != received: a message is in flight somewhere
        assert not det.probe([True] * 4, 11, 10)
        assert not det.probe([True] * 4, 11, 10)

    def test_counter_change_between_probes_blocks(self, setup):
        sim, det = setup
        det.probe([True] * 4, 10, 10)
        # a message was exchanged between the probes
        assert not det.probe([True] * 4, 12, 12)
        assert det.probe([True] * 4, 12, 12)

    def test_probe_costs_are_charged(self, setup):
        sim, det = setup
        det.probe([True] * 4, 0, 0)
        det.probe([True] * 4, 0, 0)
        assert sim.stats.comm_bytes == 2 * 4 * PROBE_BYTES_PER_MACHINE
        assert sim.stats.comm_rounds == 2
        assert sim.stats.extra["termination_probes"] == 2
        assert sim.stats.comm_time_s > 0

    def test_reset(self, setup):
        sim, det = setup
        det.probe([True] * 4, 5, 5)
        det.reset()
        assert not det.probe([True] * 4, 5, 5)


class TestEngineIntegration:
    def test_async_engines_count_probes(self, er_weighted):
        import repro

        for engine in ("powergraph-async", "lazy-vertex"):
            r = repro.run(er_weighted, "sssp", engine=engine, machines=4)
            assert r.stats.extra.get("termination_probes", 0) >= 2, engine
            assert r.stats.converged

    def test_sync_engines_do_not_probe(self, er_weighted):
        import repro

        r = repro.run(er_weighted, "sssp", engine="powergraph-sync", machines=4)
        assert "termination_probes" not in r.stats.extra
