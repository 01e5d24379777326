"""The lockstep cluster simulator engines run on.

Every engine (eager PowerGraph baselines and the lazy LazyGraph engines)
drives its machines through this object. The rules that keep the
measurement honest:

* the simulator is meters and counters, not a message router: engines
  move replica data through vectorized staging arrays and report the
  implied traffic through the exchange plane's channels
  (:mod:`repro.comms`), which land in :meth:`bulk_transfer` and count
  bytes and messages into :class:`RunStats` — local (same-machine)
  delivery is free, exactly like the paper's local writes;
* modeled compute is charged to every machine at once, array-wise, via
  :meth:`add_compute_all` (one call per compute pass) and folded into
  cluster time as the *maximum* across machines at each
  :meth:`barrier` (BSP semantics);
* each :meth:`barrier` counts one global synchronization.

Engines that avoid barriers (Async, LazyVertexAsync) instead call
:meth:`settle_async`, which folds machine busy-times without counting a
synchronization and charges fine-grained message latencies.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.cluster.network import CommMode, NetworkModel
from repro.cluster.stats import RunStats
from repro.errors import EngineError

__all__ = ["ClusterSim"]


class ClusterSim:
    """P machines' compute meters, a network model, and a stats ledger."""

    def __init__(
        self,
        num_machines: int,
        network: Optional[NetworkModel] = None,
    ) -> None:
        if num_machines < 1:
            raise EngineError(f"num_machines must be >= 1, got {num_machines}")
        self.num_machines = num_machines
        self.network = network or NetworkModel()
        self.stats = RunStats()
        #: modeled compute per machine since the last fold
        self.busy_s = np.zeros(num_machines, dtype=np.float64)

    # ------------------------------------------------------------------
    # Compute accounting
    # ------------------------------------------------------------------
    def add_compute_all(
        self, edge_ops: np.ndarray, vertex_ops: np.ndarray
    ) -> np.ndarray:
        """Charge every machine at once (``int64[P]`` each, machine order).

        Each machine's meter grows by ``NetworkModel.compute_time`` of
        its own counts; an idle machine gains ``0.0``, which leaves its
        meter's bits unchanged. Returns the seconds charged to each
        machine.
        """
        seconds = self.network.compute_time(edge_ops, vertex_ops)
        self.busy_s += seconds
        self.stats.edge_traversals += int(edge_ops.sum())
        self.stats.vertex_updates += int(vertex_ops.sum())
        return seconds

    def _fold_busy(self) -> float:
        """Max busy time across machines since last fold; meters reset.

        Also feeds the imbalance ledger (``stats.compute_skew``): under
        BSP semantics the cluster waits for the busiest machine, so the
        gap between max and mean busy time is pure load-imbalance loss.
        """
        busy = self.busy_s.tolist()
        busiest = max(busy)
        # Python's left-to-right sum: np.sum is pairwise and would move
        # busy_mean_total_s / compute_skew in the last bits
        mean = sum(busy) / self.num_machines
        self.stats.busy_max_total_s += busiest
        self.stats.busy_mean_total_s += mean
        self.busy_s.fill(0.0)
        return busiest

    # ------------------------------------------------------------------
    # Communication
    # ------------------------------------------------------------------
    def bulk_transfer(self, nbytes: float, nmessages: int) -> None:
        """Account traffic of a vectorized bulk exchange.

        Engines move replica data through vectorized global staging
        arrays for speed; they must report the implied network traffic
        here (bytes and point-to-point message count). Local (same
        machine) shares must already be excluded by the caller; the
        conservation tests cross-check these counts against replica
        topology.
        """
        self.stats.comm_bytes += float(nbytes)
        self.stats.comm_messages += int(nmessages)

    def exchange_round(self, volume_bytes: float) -> None:
        """Account one bulk communication round of already-sent traffic.

        The modeled time uses the generic (all-to-all flavored) round
        cost; callers that exchanged via mirrors-to-master should use
        :meth:`coherency_exchange` instead.
        """
        self.stats.comm_rounds += 1
        self.stats.add_comm(
            self.network.round_time(volume_bytes, self.num_machines)
        )

    def coherency_exchange(self, mode: CommMode, volume_bytes: float) -> None:
        """Account one delta-exchange at a data coherency point."""
        self.stats.comm_rounds += 1
        self.stats.add_comm(
            self.network.exchange_time(mode, volume_bytes, self.num_machines)
        )

    # ------------------------------------------------------------------
    # Synchronization
    # ------------------------------------------------------------------
    def barrier(self) -> None:
        """Global barrier: fold compute, count one synchronization."""
        self.stats.global_syncs += 1
        self.stats.add_compute(self._fold_busy())
        self.stats.add_sync(self.network.barrier_time(self.num_machines))

    def settle_async_overlapped(self, comm_seconds: float) -> None:
        """Fold compute and communication that run concurrently.

        Asynchronous engines pipeline network transfers behind local
        vertex processing (paper §3.4 on LazyVertexAsync: it "hides the
        network latency by pipeline of vertex processing"), so a round
        costs ``max(compute, comm)`` rather than their sum. The
        breakdown attributes the busy time to compute and only the
        *exposed* remainder of the transfer to communication.
        """
        busy = self._fold_busy()
        self.stats.add_compute(busy)
        exposed = max(0.0, comm_seconds - busy)
        if exposed:
            self.stats.add_comm(exposed)

    def settle_async(self, per_machine_messages: Optional[np.ndarray] = None) -> None:
        """Fold compute without a barrier (asynchronous engines).

        ``per_machine_messages`` — remote messages each machine sent in
        the settled window; the busiest machine's serialized message
        overhead is added (they pipeline across machines but serialize
        per NIC).
        """
        busy = self._fold_busy()
        if per_machine_messages is not None and per_machine_messages.size:
            busy += self.network.async_messages_time(
                float(np.max(per_machine_messages))
            )
        self.stats.add_compute(busy)
