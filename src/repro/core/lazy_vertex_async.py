"""LazyVertexAsync — paper Algorithm 2 (future work there; built here).

No global barrier anywhere: machines continuously drain their local
queues (Apply + Scatter with immediate local visibility), and pending
deltas are shipped only when ``needDataCoherency`` fires. The paper
leaves that schedule open; here it is bounded-delay batching: once the
oldest pending delta has waited ``max_delta_age`` local rounds, every
pending delta ships together in one full exchange (freshly-updated hot
vertices keep computing locally in between, and no delta waits longer
than the bound). A deferred superstep ships nothing but still sweeps
unreplicated and subsumed deltas. Transfers pipeline behind continued
local work instead of closing a barrier.

Cost accounting follows the Async conventions: no ``global_syncs``, the
exchange volume is charged at the fine-grained (unbatched) rate, and
compute folds without barriers. Unlike eager Async there is no
per-update locking — replicas are independent by construction — so no
``async_round_overhead`` applies; that is precisely the paper's argument
for lazy coherency in an asynchronous setting.
"""

from __future__ import annotations

from repro.cluster.termination import TerminationDetector
from repro.comms import Delivery
from repro.core.lazy_block_async import LazyBlockAsyncEngine
from repro.core.policy import CoherencySignals
from repro.runtime.machine_runtime import MachineRuntime

__all__ = ["LazyVertexAsyncEngine"]


class LazyVertexAsyncEngine(LazyBlockAsyncEngine):
    """The lazy per-vertex asynchronous engine (Algorithm 2).

    It takes lazy-block's constructor (``policy=``, ``lens=``) and runs
    its own loop: the policy's ``max_delta_age`` is the age, in local
    rounds, of the oldest pending delta that triggers an exchange (1 =
    exchange every round, most coherent; larger values trade staleness
    for fewer exchanges), and its ``partial_exchange`` decides each
    superstep.
    """

    name = "lazy-vertex"
    delivery = Delivery.ASYNC_PIPELINED
    #: the age signal reads the pending deltas, lens or not
    reads_replicas = True

    # ------------------------------------------------------------------
    def _execute(self) -> bool:
        sim = self.sim
        detector = TerminationDetector(sim, self.comms.control)
        idle_flags = [True] * sim.num_machines
        sent_total = 0
        self._bootstrap(track_delta=True)

        tracer = self.tracer
        lens = self.lens
        policy = self.policy
        ev_ratio = self.pgraph.graph.ev_ratio
        for step in range(self.max_supersteps):
            with tracer.span("superstep", category="superstep", superstep=step) as ss:
                lens.begin_superstep(step)
                # ---- continuous local processing (one round) -----------
                with tracer.span("local-round", category="phase") as sp:
                    edges, applies, _ = self._compute_pass(
                        MachineRuntime.apply_step, step
                    )
                    sp.set(edges=int(edges.sum()), applies=int(applies.sum()))

                # ---- age deltas; the oldest triggers the exchange -------
                self.backend.dispatch(MachineRuntime.tick_delta_age)

                # pre-exchange reading: staleness ages + the pending mass
                # an exchange is about to ship
                lens.probe()

                idle = self._globally_idle()
                execute = True
                if not idle:
                    # exchange, or defer and let the pending deltas keep
                    # coalescing
                    signals = CoherencySignals(
                        step, ev_ratio,
                        active=self._global_active_count(),
                        staleness_max=self.replicas.staleness_max(),
                    )
                    execute = policy.partial_exchange(signals)
                    lens.decision(
                        "partial_exchange",
                        rule="max-delta-age",
                        verdict="exchange" if execute else "defer",
                        controller=policy.controller,
                        **signals.as_inputs(),
                    )

                with tracer.span("partial-coherency", category="phase") as sp:
                    # idle: drain everything before concluding — a final
                    # exchange may reactivate replicas
                    report = (
                        self.exchanger.exchange() if execute
                        else self.exchanger.sweep()
                    )
                    comm_seconds = self.exchanger.deliver(report)
                    if not report.empty:
                        sim.stats.coherency_points += 1
                        sent_total += report.messages
                        # audit entry + invariant probe: an exchange
                        # clears everything
                        lens.on_exchange(
                            report,
                            rule="idle-drain" if idle else "max-delta-age",
                            controller=policy.controller,
                            max_delta_age=policy.max_delta_age,
                        )
                        self.backend.dispatch(MachineRuntime.reset_delta_age)
                    # transfers pipeline behind local processing (§3.4)
                    sim.settle_async_overlapped(comm_seconds)
                    sp.set(mode=report.mode.value,
                           exchanged=report.vertices_exchanged,
                           volume_bytes=report.volume_bytes)
                sim.stats.supersteps += 1
                if tracer.enabled:
                    ss.set(active=self._global_active_count())

                if idle and report.empty and self._globally_idle():
                    # quiescence is only *known* via termination detection
                    with tracer.span("termination-probe", category="phase"):
                        done = detector.probe(idle_flags, sent_total, sent_total)
                    if done:
                        return True
                else:
                    detector.reset()
        return False
