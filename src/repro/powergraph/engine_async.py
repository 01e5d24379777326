"""PowerGraph Async: the eager asynchronous baseline.

Same eager replica coherency as Sync — every update of a replicated
vertex is immediately pushed to all its replicas — but no global
barriers: machines proceed independently and updates become visible "as
soon as possible" (§2.2 ISSUE III).

Modeling approximations (documented per DESIGN.md §2)
-----------------------------------------------------
A faithful event-driven replay of GraphLab's chromatic/locking engine is
out of scope; we keep the *data flow* identical to the eager exchange
(so results and byte counts are exact) and model the asynchronous
execution's costs per round:

* no ``global_syncs`` are counted and no barrier latency is charged;
* traffic is charged per fine-grained message: the volume cost is
  multiplied by ``async_unbatched_penalty`` (small-packet and
  per-message locking overhead, in place of Sync's batched rounds);
* each round adds ``async_round_overhead_s`` of engine overhead
  (distributed locking, fiber scheduling, termination detection) — the
  known reason PowerGraph Async degrades on high-diameter graphs
  (paper Fig 12(c,d): Async loses scalability beyond 16 machines);
* per-machine compute is folded without a barrier
  (:meth:`ClusterSim.settle_async`), charging the busiest machine's
  serialized message handling.
"""

from __future__ import annotations

from repro.cluster.termination import TerminationDetector
from repro.powergraph.eager_exchange import EagerExchange
from repro.runtime.base_engine import BaseEngine

__all__ = ["PowerGraphAsyncEngine"]


class PowerGraphAsyncEngine(BaseEngine):
    """Eager asynchronous engine (modeled costs, exact data flow)."""

    name = "powergraph-async"

    def _execute(self) -> bool:
        sim = self.sim
        exchange = EagerExchange(
            self.pgraph, self.program, self.runtimes,
            plane=self.comms, fine_grained=True,
        )
        detector = TerminationDetector(sim, self.comms.control)
        idle_flags = [True] * sim.num_machines
        sent_total = 0
        self._bootstrap(track_delta=False)

        tracer = self.tracer
        for step in range(self.max_supersteps):
            with tracer.span("superstep", category="superstep", superstep=step):
                traffic = exchange.collect()
                exchange.ship_fine_grained(traffic)
                if not exchange.anything_pending:
                    # quiescent: the engine only *learns* this through the
                    # termination-detection protocol (two clean probes)
                    with tracer.span("termination-probe", category="phase"):
                        done = detector.probe(idle_flags, sent_total, sent_total)
                    if done:
                        return True
                    sim.stats.supersteps += 1
                    if self.trace:
                        sim.stats.snapshot(active=0, msgs=0)
                    continue
                detector.reset()
                sent_total += traffic.total_msgs
                with tracer.span("exchange-apply", category="phase") as sp:
                    self._compute_pass(exchange.apply_on, step)
                    # fine-grained comm: unbatched volume + engine overhead
                    exchange.charge_fine_grained_round(traffic)
                    sim.settle_async(traffic.sent_per_machine)
                    sp.set(msgs=traffic.total_msgs, bytes=traffic.total_bytes)
                sim.stats.supersteps += 1
                if self.trace:
                    sim.stats.snapshot(
                        active=self._global_active_count(),
                        msgs=traffic.total_msgs,
                    )
        return False
