"""PowerGraph Sync: the eager BSP baseline (paper's primary comparator).

Each superstep performs the full eager GAS cycle with the costs the
paper attributes to it (§2.2): **two communication rounds** (mirror→
master accumulators, master→mirror updated data) and **three global
synchronizations** (after gather, after apply, after scatter). Changes
to vertex data are batch-processed but still eagerly replicated every
superstep — replicas never diverge.
"""

from __future__ import annotations

from repro.powergraph.eager_exchange import EagerExchange
from repro.runtime.base_engine import BaseEngine

__all__ = ["PowerGraphSyncEngine"]


class PowerGraphSyncEngine(BaseEngine):
    """Eager synchronous (BSP) engine."""

    name = "powergraph-sync"

    def _execute(self) -> bool:
        sim = self.sim
        tracer = self.tracer
        exchange = EagerExchange(
            self.pgraph, self.program, self.runtimes, plane=self.comms,
        )
        self._bootstrap(track_delta=False)

        for step in range(self.max_supersteps):
            with tracer.span("superstep", category="superstep", superstep=step):
                # ---- gather leg: mirrors ship accums to masters -------
                with tracer.span("gather", category="phase") as sp:
                    traffic = exchange.collect()
                    sp.set(gather_msgs=traffic.gather_msgs,
                           gather_bytes=traffic.gather_bytes)
                    exchange.ship_gather(traffic)  # sync #1 (gather complete)
                if not exchange.anything_pending:
                    return True

                # ---- apply on every replica + broadcast leg -----------
                with tracer.span("apply", category="phase") as sp:
                    self._compute_pass(exchange.apply_on, step)
                    sp.set(bcast_msgs=traffic.bcast_msgs,
                           bcast_bytes=traffic.bcast_bytes)
                    exchange.ship_broadcast(traffic)  # sync #2 (replication)

                # ---- scatter already ran fused with apply -------------
                with tracer.span("scatter", category="phase"):
                    self.comms.control.barrier()  # sync #3 (scatter complete)
                sim.stats.supersteps += 1
                if self.trace:
                    sim.stats.snapshot(
                        active=self._global_active_count(),
                        gather_msgs=traffic.gather_msgs,
                        bcast_msgs=traffic.bcast_msgs,
                    )
        return False
