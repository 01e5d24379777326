"""Common engine scaffolding shared by the eager, lazy, and GAS engines."""

from __future__ import annotations

import abc
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.network import NetworkModel
from repro.cluster.simulator import ClusterSim
from repro.comms import ExchangePlane
from repro.errors import ConvergenceError, EngineError
from repro.kernels import KernelStats
from repro.obs.lens import NULL_LENS
from repro.obs.tracer import NULL_TRACER, Tracer
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.backend import SerialBackend
from repro.runtime.machine_runtime import MachineRuntime
from repro.runtime.result import EngineResult, collect_values, replica_disagreement

__all__ = ["BaseEngine"]

_DEFAULT_MAX_SUPERSTEPS = 100_000


class BaseEngine(abc.ABC):
    """Shared lifecycle for every engine running on the cluster simulator.

    The constructor owns validation (program invariants, weighted-graph
    requirements, ``max_supersteps``), simulator + tracer setup, the
    engine's :class:`~repro.comms.ExchangePlane`, and runtime
    construction (the :meth:`_make_runtimes` hook — delta engines get
    one :class:`MachineRuntime` per *block* of the partition, the
    classic GAS engine its own state per machine). ``self.runtimes`` is
    that list and the only one: what still needs machine identity reads
    it off each runtime's ``mg.machine_offsets``.
    Subclasses implement :meth:`_execute`, moving every byte
    through channels opened on ``self.comms``. ``run()`` wraps execution
    with stat/extra assembly, per-channel counter publication, result
    collection and the replica-agreement measurement.
    """

    name = "abstract-engine"

    def __init__(
        self,
        pgraph: PartitionedGraph,
        program,
        network: Optional[NetworkModel] = None,
        max_supersteps: int = _DEFAULT_MAX_SUPERSTEPS,
        trace: bool = False,
        tracer: Optional[Tracer] = None,
        plans: Optional[Sequence] = None,
    ) -> None:
        program.validate()
        if program.needs_weights and pgraph.graph.weights is None:
            raise EngineError(
                f"program {program.name!r} needs edge weights but the graph "
                f"is unweighted (use attach_uniform_weights or weighted=True)"
            )
        if max_supersteps < 1:
            raise EngineError(f"max_supersteps must be >= 1, got {max_supersteps}")
        self.pgraph = pgraph
        self.program = program
        self.max_supersteps = max_supersteps
        self.sim = ClusterSim(pgraph.num_machines, network=network)
        # one tracer handle per engine: real when the caller wants spans
        # (explicit tracer, or trace=True), a no-op NullTracer otherwise
        if tracer is not None:
            self.tracer = tracer
        elif trace:
            self.tracer = Tracer()
        else:
            self.tracer = NULL_TRACER
        if self.tracer.enabled:
            self.tracer.bind_stats(self.sim.stats)
        self.comms = ExchangePlane(self.sim)
        # optional cached CSR plans (one entry per runtime unit, in
        # order), supplied by a GraphSession so repeated runs skip the
        # argsort-heavy plan construction; consumed by _make_runtimes
        self._plans = plans
        self.runtimes: List = list(self._make_runtimes())
        # coherency lens (repro.obs.lens): the lazy engines swap in a
        # real CoherencyLens when asked; everything else keeps the no-op
        self.lens = NULL_LENS
        # every pass over the runtimes is one dispatch
        self.backend = SerialBackend(self)

    def _unit_plans(self, units: Sequence) -> Sequence:
        """The caller's cached plans, checked against the runtime units."""
        if self._plans is None:
            return [None] * len(units)
        if len(self._plans) != len(units):
            raise EngineError(
                f"plans must have one entry per runtime unit "
                f"({len(self._plans)} != {len(units)})"
            )
        return self._plans

    def _make_runtimes(self) -> Sequence:
        """Build one runtime per block (override for non-delta engines)."""
        blocks = self.pgraph.blocks
        return [
            MachineRuntime(block, self.program, tracer=self.tracer, plan=plan)
            for block, plan in zip(blocks, self._unit_plans(blocks))
        ]

    # ------------------------------------------------------------------
    def _bootstrap(self, track_delta: bool) -> None:
        """Run initial activation on every machine (charged as compute).

        ``track_delta`` must match how the engine treats scatter
        messages: lazy engines fold one-edge messages into ``deltaMsg``
        from the very first message on.
        """
        with self.tracer.span("bootstrap", category="phase"):
            self._compute_pass(lambda rt: rt.bootstrap(track_delta))

    def _compute_pass(
        self,
        step: Callable[..., np.ndarray],
        superstep: Optional[int] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Run one compute pass on every runtime and charge it.

        The one per-machine compute charge of every engine: ``step(rt)``
        returns its runtime's ``(edges, applies)`` rows
        (:meth:`MachineRuntime.work_by_machine`), the pass is charged
        through ``ClusterSim.add_compute_all`` and ``(edges, applies,
        busy_s)`` come back, ``int64[P]`` / ``float64[P]`` in machine
        order. With a tracer on, the pass is one closed ``machine-work``
        span (category ``machine``) under the open phase span, holding
        those three columns plus ``host_s``: one ``[first machine,
        host seconds]`` pair per runtime, the unit the host steps.
        """
        if not self.tracer.enabled:
            edges, applies = self.backend.dispatch_work(step)
            return edges, applies, self.sim.add_compute_all(edges, applies)
        host: List[List] = []

        def timed(rt):
            t0 = time.perf_counter()
            work = step(rt)
            host.append([rt.mg.machine_id, time.perf_counter() - t0])
            return work

        t0 = time.perf_counter()
        edges, applies = self.backend.dispatch_work(timed)
        t1 = time.perf_counter()
        busy = self.sim.add_compute_all(edges, applies)
        self.tracer.emit_closed_span("machine-work", "machine", t0, t1, {
            "superstep": superstep, "edges": edges.tolist(),
            "applies": applies.tolist(), "busy_s": busy.tolist(),
            "host_s": host,
        })
        return edges, applies, busy

    def _globally_idle(self) -> bool:
        """True when no machine has pending messages."""
        return all(rt.num_active == 0 for rt in self.runtimes)

    def _global_active_count(self) -> int:
        """Total pending-apply vertices across machines (replica-counted)."""
        return sum(rt.num_active for rt in self.runtimes)

    # ------------------------------------------------------------------
    def run(self) -> EngineResult:
        """Execute to convergence (or ``max_supersteps``) and collect results."""
        try:
            converged = self._execute()
            self.sim.stats.converged = converged
            # surface per-kernel host timings + sweep-mode counts (they ride
            # into traces through RunStats.to_dict)
            self.sim.stats.extra.update(KernelStats.merged(
                rt.kernel_stats for rt in self.runtimes
            ).as_extra())
            # per-channel ledgers ride along the same way (comms.<name>.*)
            self.comms.publish(self.sim.stats)
            if converged or self.lens.enabled:
                # the one full cross-replica pass of the run: the result's
                # disagreement and (lens on) the lens's final drift, next
                # to its lens.* summary extras
                disagreement = replica_disagreement(self.pgraph, self.runtimes)
                self.lens.finish(converged, disagreement)
            if not converged:
                raise ConvergenceError(
                    f"{self.name}/{self.program.name} did not converge within "
                    f"{self.max_supersteps} supersteps "
                    f"({self.sim.stats.summary()})"
                )
            if self.tracer.enabled:
                self.tracer.finish(
                    engine=self.name,
                    algorithm=self.program.name,
                    machines=self.pgraph.num_machines,
                    replication_factor=float(self.pgraph.replication_factor),
                    stats=self.sim.stats.to_dict(),
                )
            return EngineResult(
                values=collect_values(self.pgraph, self.runtimes),
                stats=self.sim.stats,
                engine=self.name,
                algorithm=self.program.name,
                replica_max_disagreement=disagreement,
                trace=self.tracer if self.tracer.enabled else None,
            )
        finally:
            # drops the backend's reference to this engine (no cycle)
            self.backend.close()

    @abc.abstractmethod
    def _execute(self) -> bool:
        """Drive the machines to convergence; return True if converged."""
