"""The exchange plane: one engine run's set of named channels.

Every engine owns exactly one :class:`ExchangePlane` (created by
:class:`~repro.runtime.base_engine.BaseEngine`), opens the channels its
protocol needs, and moves **all** inter-machine data through them. The
plane is the seam the roadmap's future experiments hang off — relaxed
delivery policies, fault injection, real multiprocess backends — because
swapping how data moves now means swapping channel implementations, not
editing five engine loops.

The plane always carries a ``control`` channel (termination probes,
barrier-only synchronizations), so even barrier traffic with no payload
reconciles channel-by-channel against :class:`RunStats`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.cluster.network import CommMode
from repro.comms.channels import CONTROL, Channel, Delivery
from repro.comms.schema import CONTROL_SCHEMA, PayloadSchema
from repro.errors import EngineError

__all__ = ["ExchangePlane"]


class ExchangePlane:
    """Registry of one run's exchange channels over a ``ClusterSim``."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self._channels: Dict[str, Channel] = {}
        #: Per-superstep ledger snapshots (filled by :meth:`snapshot`,
        #: driven by the coherency lens); cumulative counters, so the
        #: per-superstep traffic of a channel is the first difference.
        self.timeline: List[Dict[str, Any]] = []
        #: Control plane: termination probes and barrier-only syncs.
        self.control = self.open(CONTROL, CONTROL_SCHEMA, Delivery.BSP)

    # ------------------------------------------------------------------
    def open(
        self,
        name: str,
        schema: PayloadSchema,
        delivery: Delivery,
        comm_mode: Optional[CommMode] = None,
    ) -> Channel:
        """Open a new named channel; names are unique per run."""
        if name in self._channels:
            raise EngineError(
                f"channel {name!r} is already open on this exchange plane"
            )
        ch = Channel(self.sim, name, schema, delivery, comm_mode=comm_mode)
        self._channels[name] = ch
        return ch

    def get(self, name: str) -> Channel:
        try:
            return self._channels[name]
        except KeyError:
            raise EngineError(
                f"no channel {name!r} on this exchange plane; open: "
                f"{', '.join(self._channels) or '(none)'}"
            ) from None

    def channels(self) -> Tuple[Channel, ...]:
        """All open channels, in opening order."""
        return tuple(self._channels.values())

    # ------------------------------------------------------------------
    def snapshot(self, superstep: int) -> Dict[str, Any]:
        """Append one per-channel ledger snapshot to :attr:`timeline`.

        Returns ``{"superstep": n, <channel>: {bytes, messages, rounds,
        syncs}, ...}`` with every counter cumulative since run start.
        """
        entry: Dict[str, Any] = {"superstep": int(superstep)}
        for ch in self._channels.values():
            entry[ch.name] = ch.counters()
        self.timeline.append(entry)
        return entry

    def totals(self) -> Dict[str, float]:
        """Sum of every channel's ledger (must equal the RunStats view)."""
        out = {"bytes": 0.0, "messages": 0, "rounds": 0, "syncs": 0}
        for ch in self._channels.values():
            out["bytes"] += ch.bytes_sent
            out["messages"] += ch.messages_sent
            out["rounds"] += ch.rounds
            out["syncs"] += ch.syncs
        return out

    def publish(self, stats) -> None:
        """Surface per-channel counters as ``comms.*`` extras on ``stats``.

        Keys: ``comms.<channel>.bytes`` / ``.messages`` / ``.rounds`` /
        ``.syncs`` — they ride into ``RunStats.to_dict`` and finished
        traces, so the per-channel split is auditable offline.
        """
        for ch in self._channels.values():
            for key, val in ch.counters().items():
                stats.extra[f"comms.{ch.name}.{key}"] = val
