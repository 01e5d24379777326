"""Exchange-plane unit tests: schemas, channel guards, and the
per-channel accounting invariants of the ISSUE acceptance criteria
(sum of per-channel bytes/messages/rounds/syncs == RunStats totals,
for every engine in the registry)."""

import pytest

from repro.cluster.network import CommMode
from repro.cluster.simulator import ClusterSim
from repro.comms import (
    BROADCAST,
    CONTROL,
    CONTROL_SCHEMA,
    DELTA_A2A,
    GATHER,
    Channel,
    Delivery,
    ExchangePlane,
    PayloadSchema,
    delta_schema,
    value_schema,
)
from repro.core import build_lazy_graph
from repro.errors import EngineError
from repro.runtime.registry import engine_specs


class TestPayloadSchema:
    def test_bytes_for(self):
        s = PayloadSchema("delta-accumulator", "float64", 16.0)
        assert s.bytes_for(10) == 160.0

    def test_rejects_nonpositive_record_size(self):
        with pytest.raises(EngineError, match="bytes_per_record"):
            PayloadSchema("bad", "float64", 0.0)

    def test_program_schemas(self):
        from repro.algorithms import SSSPProgram
        from repro.powergraph.gas import GASPageRank

        prog = SSSPProgram(0)
        assert delta_schema(prog).bytes_per_record == float(prog.delta_bytes)
        gp = GASPageRank()
        assert value_schema(gp).bytes_per_record == float(gp.value_bytes)

    def test_control_schema_is_raw_bytes(self):
        assert CONTROL_SCHEMA.bytes_per_record == 1.0


class TestChannel:
    def test_transfer_counts_both_ledgers(self):
        sim = ClusterSim(4)
        ch = Channel(sim, GATHER, CONTROL_SCHEMA, Delivery.BSP)
        ch.transfer(96.0, 6)
        assert ch.bytes_sent == 96.0 and ch.messages_sent == 6
        assert sim.stats.comm_bytes == 96.0 and sim.stats.comm_messages == 6

    def test_bsp_round_and_barrier(self):
        sim = ClusterSim(4)
        ch = Channel(sim, GATHER, CONTROL_SCHEMA, Delivery.BSP)
        assert ch.round(64.0) == 0.0
        ch.barrier()
        assert ch.rounds == 1 and ch.syncs == 1
        assert sim.stats.comm_rounds == 1 and sim.stats.global_syncs == 1

    def test_async_pipelined_round_returns_latency(self):
        sim = ClusterSim(4)
        ch = Channel(
            sim, DELTA_A2A, CONTROL_SCHEMA, Delivery.ASYNC_PIPELINED,
            comm_mode=CommMode.ALL_TO_ALL,
        )
        latency = ch.round(4096.0)
        assert latency == sim.network.async_exchange_time(
            CommMode.ALL_TO_ALL, 4096.0, 4
        )
        assert latency > 0.0
        assert sim.stats.comm_rounds == 1
        # pipelined latency is returned, not charged to the comm meter
        assert sim.stats.comm_time_s == 0.0

    def test_fine_grained_round_charges_penalty(self):
        sim = ClusterSim(4)
        net = sim.network
        ch = Channel(sim, "one_edge", CONTROL_SCHEMA, Delivery.ASYNC_FINE_GRAINED)
        assert ch.round(1024.0) == 0.0
        expected = (
            net.a2a_time(1024.0, 4) * net.async_unbatched_penalty
            + net.async_round_overhead_s
        )
        assert sim.stats.comm_time_s == pytest.approx(expected)
        assert sim.stats.comm_rounds == 1

    def test_barrier_forbidden_off_bsp(self):
        sim = ClusterSim(4)
        ch = Channel(sim, DELTA_A2A, CONTROL_SCHEMA, Delivery.ASYNC_PIPELINED)
        with pytest.raises(EngineError, match="only BSP channels"):
            ch.barrier()

    def test_bsp_leg_is_transfer_round_barrier(self):
        sim = ClusterSim(4)
        ch = Channel(sim, BROADCAST, CONTROL_SCHEMA, Delivery.BSP)
        ch.bsp_leg(48.0, 3)
        assert ch.counters() == {
            "bytes": 48.0, "messages": 3, "rounds": 1, "syncs": 1,
        }
        assert sim.stats.global_syncs == 1


class TestExchangePlane:
    def test_control_channel_always_open(self):
        plane = ExchangePlane(ClusterSim(2))
        assert plane.get(CONTROL) is plane.control
        assert plane.control.delivery is Delivery.BSP

    def test_duplicate_open_rejected(self):
        plane = ExchangePlane(ClusterSim(2))
        plane.open(GATHER, CONTROL_SCHEMA, Delivery.BSP)
        with pytest.raises(EngineError, match="already open"):
            plane.open(GATHER, CONTROL_SCHEMA, Delivery.BSP)

    def test_unknown_channel_lookup(self):
        plane = ExchangePlane(ClusterSim(2))
        with pytest.raises(EngineError, match="no channel"):
            plane.get("bogus")

    def test_totals_sum_channels(self):
        plane = ExchangePlane(ClusterSim(2))
        g = plane.open(GATHER, CONTROL_SCHEMA, Delivery.BSP)
        g.bsp_leg(32.0, 2)
        plane.control.barrier()
        assert plane.totals() == {
            "bytes": 32.0, "messages": 2, "rounds": 1, "syncs": 2,
        }

    def test_publish_writes_extras(self):
        sim = ClusterSim(2)
        plane = ExchangePlane(sim)
        plane.open(GATHER, CONTROL_SCHEMA, Delivery.BSP).bsp_leg(32.0, 2)
        plane.publish(sim.stats)
        assert sim.stats.extra["comms.gather.bytes"] == 32.0
        assert sim.stats.extra["comms.gather.syncs"] == 1
        assert sim.stats.extra["comms.control.bytes"] == 0.0


@pytest.mark.parametrize("spec", engine_specs(), ids=lambda s: s.name)
class TestChannelAccountingReconciles:
    """Every byte/message/round/sync an engine charges flows through
    exactly one channel: the per-channel ledgers must sum to the
    RunStats totals exactly (bit-for-bit, no tolerance)."""

    def _run(self, spec, er_weighted):
        pg = build_lazy_graph(er_weighted, 6, seed=1)
        eng = spec.cls(pg, spec.make_program("sssp", source=0))
        result = eng.run()
        return eng, result

    def test_totals_reconcile(self, spec, er_weighted):
        eng, result = self._run(spec, er_weighted)
        totals = eng.comms.totals()
        stats = result.stats
        assert totals["bytes"] == stats.comm_bytes
        assert totals["messages"] == stats.comm_messages
        assert totals["rounds"] == stats.comm_rounds
        assert totals["syncs"] == stats.global_syncs

    def test_published_extras_match_channels(self, spec, er_weighted):
        eng, result = self._run(spec, er_weighted)
        for ch in eng.comms.channels():
            for key, val in ch.counters().items():
                assert result.stats.extra[f"comms.{ch.name}.{key}"] == val

    def test_control_carries_no_payload_on_bsp(self, spec, er_weighted):
        eng, _ = self._run(spec, er_weighted)
        if spec.name in ("powergraph-sync", "powergraph-gas-sync", "lazy-block"):
            # BSP engines use control only for barrier-only syncs
            assert eng.comms.control.bytes_sent == 0.0


class TestChannelRoundLedger:
    def test_rounds_name_their_channel(self, er_weighted):
        from repro.core import LazyBlockAsyncEngine
        from repro.algorithms import SSSPProgram

        pg = build_lazy_graph(er_weighted, 6, seed=1)
        eng = LazyBlockAsyncEngine(pg, SSSPProgram(0))
        r = eng.run()
        rounds = {
            ch.name: ch.rounds for ch in eng.comms.channels() if ch.rounds
        }
        assert set(rounds) <= {"gather", "broadcast", "delta_a2a",
                               "delta_m2m", "one_edge", "control"}
        assert sum(rounds.values()) == r.stats.comm_rounds
        for name in rounds:
            assert r.stats.extra[f"comms.{name}.rounds"] == rounds[name]
            assert eng.comms.get(name).delivery is Delivery.BSP
