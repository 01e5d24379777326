"""One simulated machine: local state and a mailbox."""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

__all__ = ["Machine"]


class Machine:
    """A machine in the simulated cluster.

    Engines keep their per-machine arrays in :attr:`state` (a free-form
    dict); anything another machine should see must travel through
    :meth:`repro.cluster.simulator.ClusterSim.send`, which deposits it in
    :attr:`mailbox` and accounts the traffic.
    """

    __slots__ = ("machine_id", "state", "mailbox")

    def __init__(self, machine_id: int) -> None:
        self.machine_id = machine_id
        self.state: Dict[str, Any] = {}
        self.mailbox: List[Tuple[int, Any]] = []  # (sender, payload)

    def drain_mailbox(self) -> List[Tuple[int, Any]]:
        """Return and clear all pending (sender, payload) messages."""
        out = self.mailbox
        self.mailbox = []
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Machine({self.machine_id}, pending={len(self.mailbox)})"
