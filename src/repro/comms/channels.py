"""Typed, named exchange channels over :class:`~repro.cluster.simulator.ClusterSim`.

A :class:`Channel` is the *only* place a byte, message, round or
synchronization is charged for one kind of data movement. Each channel
owns

* a **payload schema** (:class:`~repro.comms.schema.PayloadSchema`):
  what one record is and how many bytes it weighs on the wire;
* a **delivery policy** (:class:`Delivery`): how a round of that data
  is priced — a batched BSP round closed by a barrier, an asynchronous
  latency pipelined behind compute, or fine-grained per-update
  messaging with the eager-async penalty;
* its **accounting**: per-channel ``bytes_sent`` / ``messages_sent`` /
  ``rounds`` / ``syncs`` counters that reconcile exactly with the
  :class:`~repro.cluster.stats.RunStats` totals (a tested invariant:
  the per-channel sums equal ``comm_bytes`` / ``comm_messages`` /
  ``comm_rounds`` / ``global_syncs``).

The canonical channel names (the paper's data movements):

========== ===========================================================
``gather``     mirror→master partial accumulators (eager gather leg)
``broadcast``  master→mirror updated vertex data (eager broadcast leg)
``delta_a2a``  coherency-point deltas, all-to-all wire protocol
``delta_m2m``  coherency-point deltas, mirrors-to-master protocol
``one_edge``   fine-grained eager updates (PowerGraph Async's
               one-edge-at-a-time transmission)
``control``    control plane: termination probes, barrier-only syncs
========== ===========================================================
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.cluster.network import CommMode
from repro.comms.schema import PayloadSchema
from repro.errors import EngineError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cluster.simulator import ClusterSim

__all__ = [
    "Channel",
    "Delivery",
    "GATHER",
    "BROADCAST",
    "DELTA_A2A",
    "DELTA_M2M",
    "ONE_EDGE",
    "CONTROL",
]

GATHER = "gather"
BROADCAST = "broadcast"
DELTA_A2A = "delta_a2a"
DELTA_M2M = "delta_m2m"
ONE_EDGE = "one_edge"
CONTROL = "control"


class Delivery(enum.Enum):
    """How a channel's rounds are priced by the network model."""

    #: Batched bulk round (``exchange_round`` / ``coherency_exchange``)
    #: closed by a global barrier the channel also owns.
    BSP = "bsp"
    #: Asynchronous exchange whose latency is returned to the caller to
    #: overlap with local compute (LazyVertexAsync, paper §3.4).
    ASYNC_PIPELINED = "async-pipelined"
    #: Fine-grained per-update messaging: the all-to-all volume cost
    #: times the unbatched penalty, plus the per-round engine overhead
    #: (PowerGraph Async's modeled costs).
    ASYNC_FINE_GRAINED = "async-fine-grained"


class Channel:
    """One named, typed exchange channel; the single charge point.

    Engines stage data however they like (vectorized global arrays),
    but every resulting network charge flows through exactly one
    channel method:

    * :meth:`transfer` — count staged traffic (bytes + point-to-point
      messages) into the simulator and this channel's ledger;
    * :meth:`round` — price one communication round of that traffic
      under the channel's delivery policy (returns the modeled latency
      for pipelined channels, else ``0.0``);
    * :meth:`barrier` — the BSP channel's closing global sync;
    * :meth:`bsp_leg` — the common transfer→round→barrier sequence of
      one eager exchange leg.
    """

    __slots__ = (
        "sim", "name", "schema", "delivery", "comm_mode",
        "bytes_sent", "messages_sent", "rounds", "syncs",
    )

    def __init__(
        self,
        sim: "ClusterSim",
        name: str,
        schema: PayloadSchema,
        delivery: Delivery,
        comm_mode: Optional[CommMode] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.schema = schema
        self.delivery = delivery
        #: Wire protocol priced by ``coherency_exchange`` /
        #: ``async_exchange_time``; ``None`` = the generic bulk round.
        self.comm_mode = comm_mode
        self.bytes_sent = 0.0
        self.messages_sent = 0
        self.rounds = 0
        self.syncs = 0

    # ------------------------------------------------------------------
    def transfer(self, nbytes: float, nmessages: int) -> None:
        """Count staged traffic: bytes + point-to-point messages.

        Local (same-machine) shares must already be excluded by the
        staging code, exactly as with the raw ``bulk_transfer``.
        """
        self.sim.bulk_transfer(nbytes, nmessages)
        self.bytes_sent += float(nbytes)
        self.messages_sent += int(nmessages)

    def round(self, volume_bytes: float) -> float:
        """Price one communication round of ``volume_bytes``.

        Returns the modeled transfer latency for ``ASYNC_PIPELINED``
        channels (the caller overlaps it with compute via
        ``settle_async_overlapped``); BSP and fine-grained channels
        charge the simulator directly and return ``0.0``.
        """
        sim = self.sim
        self.rounds += 1
        if self.delivery is Delivery.BSP:
            if self.comm_mode is None:
                sim.exchange_round(volume_bytes)
            else:
                sim.coherency_exchange(self.comm_mode, volume_bytes)
            return 0.0
        if self.delivery is Delivery.ASYNC_PIPELINED:
            sim.stats.comm_rounds += 1
            mode = self.comm_mode or CommMode.ALL_TO_ALL
            return sim.network.async_exchange_time(
                mode, volume_bytes, sim.num_machines
            )
        # Delivery.ASYNC_FINE_GRAINED
        net = sim.network
        sim.stats.comm_rounds += 1
        sim.stats.add_comm(
            net.a2a_time(volume_bytes, sim.num_machines)
            * net.async_unbatched_penalty
            + net.async_round_overhead_s
        )
        return 0.0

    def barrier(self) -> None:
        """Close a BSP round with the global synchronization it owns."""
        if self.delivery is not Delivery.BSP:
            raise EngineError(
                f"channel {self.name!r} has {self.delivery.value} delivery; "
                f"only BSP channels own barriers"
            )
        self.syncs += 1
        self.sim.barrier()

    def bsp_leg(self, nbytes: float, nmessages: int) -> None:
        """One eager exchange leg: transfer, batched round, barrier."""
        self.transfer(nbytes, nmessages)
        self.round(nbytes)
        self.barrier()

    # ------------------------------------------------------------------
    def counters(self) -> dict:
        """This channel's ledger (the reconciliation test's view)."""
        return {
            "bytes": self.bytes_sent,
            "messages": self.messages_sent,
            "rounds": self.rounds,
            "syncs": self.syncs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Channel({self.name}, {self.schema.record}, "
            f"{self.delivery.value}, bytes={self.bytes_sent}, "
            f"msgs={self.messages_sent}, rounds={self.rounds}, "
            f"syncs={self.syncs})"
        )
