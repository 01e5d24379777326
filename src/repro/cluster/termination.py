"""Distributed termination detection for the asynchronous engines.

Engines without global barriers cannot simply *look* at the whole
cluster and see that it is quiet — a real deployment runs a termination
detection protocol. We implement the classic four-counter scheme
(Mattern 1987), the same family PowerGraph's async engine uses:

* every machine keeps monotone counters of messages sent and received;
* a coordinator runs a *probe*: a (modeled) control round collecting
  ``(idle, sent, received)`` from every machine;
* termination is declared only after **two consecutive** probes in
  which every machine is idle and the global sent == received totals
  are unchanged and balanced — one probe alone can race with a message
  in flight between two machines.

Each probe costs a control round: latency plus a few bytes per machine,
charged through the simulator so the async engines' modeled time and
traffic include the real cost of *knowing* they are done (BSP engines
get this for free from their barriers, which is part of the trade the
paper's Fig 12 measures).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.cluster.simulator import ClusterSim

__all__ = ["TerminationDetector", "PROBE_BYTES_PER_MACHINE"]

PROBE_BYTES_PER_MACHINE = 24  # idle flag + two uint64 counters


@dataclass
class _ProbeRecord:
    all_idle: bool
    sent: int
    received: int


class TerminationDetector:
    """Four-counter termination detection over a :class:`ClusterSim`.

    Probe traffic is charged through ``channel`` — the exchange plane's
    ``control`` channel — so control bytes/rounds reconcile per-channel
    against the run totals.
    """

    def __init__(self, sim: ClusterSim, channel) -> None:
        self.sim = sim
        self.channel = channel
        self.probes = 0
        self._last: Optional[_ProbeRecord] = None

    def reset(self) -> None:
        """Forget history (any observed activity invalidates old probes)."""
        self._last = None

    def probe(
        self,
        idle_flags: Sequence[bool],
        sent_total: int,
        received_total: int,
    ) -> bool:
        """Run one control probe; True once termination is certain.

        ``sent_total``/``received_total`` are the cluster's monotone
        message counters (sums of the per-machine counters the probe
        collects; in the lockstep simulation only the totals matter).
        """
        self.probes += 1
        # control round: every machine answers the coordinator
        volume = PROBE_BYTES_PER_MACHINE * self.sim.num_machines
        self.channel.transfer(volume, self.sim.num_machines)
        self.channel.round(volume)
        self.sim.stats.bump("termination_probes")

        record = _ProbeRecord(
            all_idle=all(idle_flags),
            sent=int(sent_total),
            received=int(received_total),
        )
        previous, self._last = self._last, record
        if not record.all_idle or record.sent != record.received:
            self._last = None  # activity: start over
            return False
        if previous is None:
            return False
        # two consecutive quiet probes with frozen, balanced counters
        return (
            previous.all_idle
            and previous.sent == record.sent
            and previous.received == record.received
        )
