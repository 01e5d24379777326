"""LazyBlockAsync — paper Algorithm 1, the engine behind every figure.

Execution alternates two stages:

* **local computation stage** (optional, gated by ``turnOnLazy()``):
  machines run Apply/ScatterGatherMsg micro-iterations entirely on local
  data — replicas of a vertex drift apart, new local views become
  visible to local neighbours immediately, and one-edge messages
  accumulate into ``deltaMsg``. No communication, no synchronization.
  The stage is bounded by the controller's ``doLC()`` budget
  (``3·T`` of the stage's first micro-iteration by default) or ends at
  local quiescence.
* **data coherency stage**: one delta exchange (all-to-all or
  mirrors-to-master, dynamically switched) followed by **one** global
  barrier — against the eager baseline's two rounds and three barriers —
  then the coherency point's Apply+Scatter restores the shared view and
  seeds the next stage.

The first iteration runs without a local stage (paper §4.2.1 point 3);
afterwards ``turnOnLazy`` is re-evaluated at every coherency point from
the graph's E/V ratio and the active-count trend.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.vertex_program import DeltaProgram
from repro.cluster.network import NetworkModel
from repro.comms import Delivery
from repro.core.coherency import CoherencyExchanger
from repro.core.policy import (
    CoherencyPolicy,
    CoherencySignals,
    extended_signals,
    resolve_policy,
)
from repro.obs.lens import CoherencyLens
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.base_engine import BaseEngine
from repro.runtime.machine_runtime import MachineRuntime
from repro.runtime.result import ReplicaReader

__all__ = ["LazyBlockAsyncEngine"]

_MAX_LOCAL_ITERS = 100_000  # hard stop against pathological programs


class LazyBlockAsyncEngine(BaseEngine):
    """The lazy bulk engine (Algorithm 1).

    Parameters
    ----------
    policy:
        The :class:`~repro.core.policy.CoherencyPolicy` (or its name)
        deciding the coherency points and the exchange's wire mode
        (default: the paper rule, ``"dynamic"`` mode). The engine builds
        its own controller from it.
    lens:
        Enable the coherency lens (:mod:`repro.obs.lens`): staleness/
        divergence probes and the decision audit log. Off by default —
        the hot path then only touches the no-op ``NULL_LENS``.
    """

    name = "lazy-block"

    def __init__(
        self,
        pgraph: PartitionedGraph,
        program: DeltaProgram,
        network: Optional[NetworkModel] = None,
        policy: Union[str, CoherencyPolicy, None] = None,
        max_supersteps: int = 100_000,
        trace: bool = False,
        tracer=None,
        lens: bool = False,
        plans=None,
    ) -> None:
        super().__init__(
            pgraph, program, network, max_supersteps, trace, tracer,
            plans=plans,
        )
        self.policy = resolve_policy(policy)
        self.controller = self.policy.make_controller()
        # the one reader of pending replica state, shared by the lens
        # and a signal-driven controller; the paper path builds none
        self.replicas = (
            ReplicaReader(pgraph, self.runtimes, program.algebra)
            if lens or self.controller.needs_signals
            else None
        )
        if lens:
            self.lens = CoherencyLens(
                self.replicas, self.tracer, self.sim.stats, self.comms
            )
        self.exchanger = CoherencyExchanger(
            pgraph, program, self.runtimes, self.policy.mode, self.sim.network,
            tracer=self.tracer, plane=self.comms, delivery=Delivery.BSP,
            lens=self.lens,
        )

    # ------------------------------------------------------------------
    def _local_micro_iteration(self, step: int) -> "tuple[bool, float]":
        """One Apply+Scatter sweep on every machine; local writes only.

        Returns ``(sent, modeled_iteration_seconds)``: whether the sweep
        sent any local message — without one nothing is pending, the
        stage is locally quiescent — and the slowest machine's share of
        the time (machines run concurrently).
        """
        edges, _, busy = self._compute_pass(MachineRuntime.apply_step, step)
        return bool(edges.any()), float(busy.max())

    def _local_stage(self, step: int) -> None:
        """Run the bounded local computation stage (Stage 1).

        No model-time charge happens here — machines' compute meters
        accumulate and fold at the next coherency barrier (BSP max
        semantics) — so the span carries the stage's slowest-machine
        estimate in ``est_compute_s`` instead of a modeled width. With
        tracing on, each micro-iteration is one ``machine-work`` record
        under the span. The stage ends at the budget or at local
        quiescence, found without an idle sweep: nothing pending at the
        start, or a sweep that sent no message.
        """
        with self.tracer.span("local-computation", category="phase") as sp:
            budget = None
            spent = 0.0
            iters = 0
            pending = not self._globally_idle()
            while pending and iters < _MAX_LOCAL_ITERS:
                pending, seconds = self._local_micro_iteration(step)
                self.sim.stats.local_iterations += 1
                iters += 1
                if budget is None:
                    # doLC(): measure the stage's first micro-iteration
                    # online
                    budget = self.controller.local_budget(seconds)
                    self.lens.decision(
                        "local_budget",
                        rule=self.controller.rule_name,
                        verdict="budget",
                        controller=self.controller.name,
                        first_iteration_s=seconds,
                        budget_s=budget,
                    )
                spent += seconds
                if spent >= budget:
                    break
            sp.set(iterations=iters, est_compute_s=spent,
                   budget_s=budget if budget is not None else 0.0)

    # ------------------------------------------------------------------
    def _execute(self) -> bool:
        sim = self.sim
        self._bootstrap(track_delta=True)

        do_local = False  # first iteration has no local stage (§4.2.1)
        prev_active: Optional[int] = None
        ev_ratio = self.pgraph.graph.ev_ratio

        tracer = self.tracer
        lens = self.lens
        controller = self.controller
        replicas = self.replicas if controller.needs_signals else None
        for step in range(self.max_supersteps):
            with tracer.span("superstep", category="superstep", superstep=step) as ss:
                lens.begin_superstep(step)
                # ---- Stage 1: local computation -----------------------
                if do_local:
                    self._local_stage(step)
                # only the lens and signal-driven controllers read the
                # staleness clock: the paper path never ticks it
                if self.replicas is not None:
                    self.backend.dispatch(MachineRuntime.tick_delta_age)

                # pre-exchange reading: how much divergence did the local
                # stage build up before this coherency point repairs it
                lens.probe()
                # extended controller signals must also read the
                # *pre*-exchange state (the exchange clears the pending
                # mass the controller is reasoning about); trend/active
                # join them once known
                ext = {} if replicas is None else extended_signals(replicas)

                # ---- Stage 2: data coherency --------------------------
                with tracer.span("coherency", category="phase") as sp:
                    report = self.exchanger.exchange()
                    self.exchanger.deliver(report)  # one round + one barrier
                    sim.stats.coherency_points += 1
                    if self.replicas is not None and not report.empty:
                        self.backend.dispatch(MachineRuntime.reset_delta_age)
                    sp.set(mode=report.mode.value,
                           volume_bytes=report.volume_bytes,
                           exchanged=report.vertices_exchanged)
                # every counted coherency point gets its audit entry +
                # post-exchange invariant probe (full exchange: nothing
                # may stay pending)
                lens.on_exchange(report, rule="superstep-coherency")

                active = self._global_active_count()
                ss.set(active=active)
                if active == 0:
                    sim.stats.extra["mode_switches"] = self.exchanger.mode_switches
                    return True

                # trend of the active-vertex count between coherency points
                if prev_active:
                    trend = (prev_active - active) / prev_active
                else:
                    trend = 0.0
                signals = CoherencySignals(step, ev_ratio, trend, active, **ext)
                do_local = controller.turn_on_lazy(signals)
                tracer.instant(
                    "interval-decision",
                    superstep=step, ev_ratio=ev_ratio, trend=trend,
                    do_local=do_local, active=active,
                )
                lens.decision(
                    "turn_on_lazy",
                    rule=controller.rule_name,
                    verdict="lazy-on" if do_local else "lazy-off",
                    controller=controller.name,
                    **signals.as_inputs(),
                )
                prev_active = active

                # ---- data coherency point: Apply + Scatter ------------
                with tracer.span("coherency-apply", category="phase"):
                    self._compute_pass(MachineRuntime.apply_step, step)
                sim.stats.supersteps += 1
        return False
