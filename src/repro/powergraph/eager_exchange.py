"""The eager coherency exchange shared by both PowerGraph engines.

One eager superstep moves data exactly as PowerGraph's GAS cycle
(paper Fig 2a):

1. **gather leg** — every replica with pending messages sends its
   partial accumulator to the vertex's master (mirror→master traffic:
   one delta per mirror with an accum);
2. **apply** — the combined accumulator is folded into the vertex; in
   the real system the master applies and replicates the new value, here
   every replica deterministically replays the same Apply on the same
   total accum (bit-identical state, same traffic charged);
3. **broadcast leg** — the updated value/activation reaches every other
   replica of each applied vertex (master→mirror traffic:
   ``num_replicas − 1`` per applied vertex).

The two engines differ only in *when* this runs and how time/sync is
charged, so the data movement lives here once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.api.vertex_program import DeltaProgram
from repro.comms import (
    BROADCAST,
    GATHER,
    ONE_EDGE,
    Delivery,
    ExchangePlane,
    delta_schema,
)
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime

__all__ = ["EagerExchange", "EagerLegTraffic"]


@dataclass(frozen=True)
class EagerLegTraffic:
    """Traffic of one eager superstep, split by leg and by machine."""

    gather_bytes: float
    gather_msgs: int
    bcast_bytes: float
    bcast_msgs: int
    # per-machine message counts (for the Async engine's time model)
    sent_per_machine: np.ndarray

    @property
    def total_bytes(self) -> float:
        return self.gather_bytes + self.bcast_bytes

    @property
    def total_msgs(self) -> int:
        return self.gather_msgs + self.bcast_msgs


class EagerExchange:
    """Stages accums globally and replays Apply coherently on all replicas.

    When given an exchange ``plane``, it also owns the *channel plan* of
    the eager protocol: a batched engine moves each leg over the BSP
    ``gather`` / ``broadcast`` channels (:meth:`ship_gather` /
    :meth:`ship_broadcast`), while a ``fine_grained`` engine moves both
    legs' records one edge at a time over the ``one_edge`` channel
    (:meth:`ship_fine_grained` + :meth:`charge_fine_grained_round`).
    Without a plane it only stages traffic — the mode used by unit tests.
    """

    def __init__(
        self,
        pgraph: PartitionedGraph,
        program: DeltaProgram,
        runtimes: List[MachineRuntime],
        plane: Optional[ExchangePlane] = None,
        fine_grained: bool = False,
    ) -> None:
        self.pgraph = pgraph
        self.program = program
        self.runtimes = runtimes
        self.gather_ch = self.bcast_ch = self.one_edge_ch = None
        if plane is not None:
            schema = delta_schema(program)
            if fine_grained:
                self.one_edge_ch = plane.open(
                    ONE_EDGE, schema, Delivery.ASYNC_FINE_GRAINED
                )
            else:
                self.gather_ch = plane.open(GATHER, schema, Delivery.BSP)
                self.bcast_ch = plane.open(BROADCAST, schema, Delivery.BSP)
        n = pgraph.graph.num_vertices
        self._total = np.empty(n, dtype=np.float64)
        self._has = np.empty(n, dtype=bool)

    # ------------------------------------------------------------------
    def collect(self) -> EagerLegTraffic:
        """Drain all inboxes into the global accumulator; price the legs."""
        alg = self.program.algebra
        self._total.fill(alg.identity)
        self._has.fill(False)
        gather_msgs = 0
        sent = np.zeros(self.pgraph.num_machines, dtype=np.int64)
        for rt in self.runtimes:
            idx, accum, _ = rt.take_ready()
            if idx.size == 0:
                continue
            mg = rt.mg
            gids = mg.vertices[idx]
            alg.combine_at(self._total, gids, accum)
            self._has[gids] = True
            # each machine of the block ships its own mirrors' accums
            mirrors = idx[~mg.is_master[idx]]
            gather_msgs += int(mirrors.size)
            sent[mg.machine_id : mg.machine_id + mg.num_machines] += np.diff(
                np.searchsorted(mirrors, mg.machine_offsets)
            )
        # broadcast leg: every applied vertex's update reaches its other
        # replicas (charged to the master's machine)
        applied = np.flatnonzero(self._has)
        bcast_per_vertex = self.pgraph.num_replicas[applied] - 1
        bcast_msgs = int(bcast_per_vertex.sum())
        masters = self.pgraph.master_of[applied]
        np.add.at(sent, masters, bcast_per_vertex)
        b = self.program.delta_bytes
        return EagerLegTraffic(
            gather_bytes=float(gather_msgs * b),
            gather_msgs=gather_msgs,
            bcast_bytes=float(bcast_msgs * b),
            bcast_msgs=bcast_msgs,
            sent_per_machine=sent,
        )

    @property
    def anything_pending(self) -> bool:
        """Did :meth:`collect` stage any accumulator?"""
        return bool(self._has.any())

    # ---- channel plans -----------------------------------------------
    def ship_gather(self, traffic: EagerLegTraffic) -> None:
        """Move the mirror→master leg: one batched BSP round + barrier."""
        self.gather_ch.bsp_leg(traffic.gather_bytes, traffic.gather_msgs)

    def ship_broadcast(self, traffic: EagerLegTraffic) -> None:
        """Move the master→mirror leg: one batched BSP round + barrier."""
        self.bcast_ch.bsp_leg(traffic.bcast_bytes, traffic.bcast_msgs)

    def ship_fine_grained(self, traffic: EagerLegTraffic) -> None:
        """Count both legs' records as fine-grained one-edge messages."""
        self.one_edge_ch.transfer(traffic.total_bytes, traffic.total_msgs)

    def charge_fine_grained_round(self, traffic: EagerLegTraffic) -> None:
        """Price one unbatched round (volume × penalty + engine overhead)."""
        self.one_edge_ch.round(traffic.total_bytes)

    def apply_on(self, rt: MachineRuntime) -> np.ndarray:
        """Replay Apply+Scatter of the staged accums on one runtime.

        Returns the runtime's per-machine ``(edges, applies)`` rows; the
        engines run it as their apply leg's compute pass
        (``BaseEngine._compute_pass``).
        """
        gids = rt.mg.vertices
        idx = np.flatnonzero(self._has[gids])
        return rt.apply_and_scatter(
            idx, self._total[gids[idx]], track_delta=False
        )

