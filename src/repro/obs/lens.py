"""The coherency lens: replica-staleness probes and the decision audit log.

The paper's whole argument is that letting replicas *diverge* between
sparse coherency points is safe and profitable — yet time/sync/byte
counters never measure the divergence itself. The lens closes that gap
for the lazy engines with three families of observations, all read-only
and all behind an opt-in flag (``lens=True``) so the default hot path
stays bit-identical:

* **staleness & divergence probes** — once per superstep: per-machine
  pending ``deltaMsg`` mass, replica staleness age (supersteps a delta
  has been pending), and master↔mirror value drift on a deterministic
  sample of replicated vertices. The pending mass, the sample and the
  full cross-replica gap are read through the engine's one
  :class:`~repro.runtime.result.ReplicaReader` — the same object the
  signal-driven controllers read, so the lens and a controller cannot
  disagree about what is pending;
* **coherency-decision audit log** — a structured
  :class:`CoherencyDecision` for every interval-rule evaluation
  (``turn_on_lazy`` / ``local_budget``) and one per executed coherency
  exchange, so a report can answer *why did the coherency point happen
  then*;
* **post-exchange invariant probes** — immediately after each exchange
  the lens re-measures the pending mass in the scope the exchange was
  responsible for clearing (everything for a full exchange, the due
  replicas for a partial one). :class:`~repro.obs.audit.LensAuditor`
  flags any non-zero reading at report time.

Everything is emitted twice: as tracer instants (``lens-probe`` /
``lens-exchange`` / ``coherency-decision`` / ``channel-ledger`` /
``lens-final``) so saved traces carry the full timeline, and as
metrics (``lens.*`` histograms/gauges/counters) on the run's
:class:`~repro.cluster.stats.RunStats` registry so summaries ride into
``stats.to_dict()``. :data:`NULL_LENS` is the no-op twin engines hold
when the lens is off.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

__all__ = [
    "CoherencyDecision",
    "CoherencyLens",
    "NullLens",
    "NULL_LENS",
    "STALENESS_BUCKETS",
    "MASS_BUCKETS",
]

#: Trace-size rollup for long runs: past superstep ``ROLLUP_AFTER`` only
#: every ``ROLLUP_EVERY``-th superstep emits the per-superstep tracer
#: instants (``lens-probe`` / ``channel-ledger``). Metrics histograms and
#: the decision audit log always stay complete — only the instant
#: *timeline* is sampled, so the LensAuditor's decision/coherency
#: reconciliation is unaffected.
ROLLUP_AFTER = 10_000
ROLLUP_EVERY = 100

#: Staleness-age histogram boundaries (supersteps a delta stayed pending).
STALENESS_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
#: Pending/exchanged delta-mass histogram boundaries (monoid units).
MASS_BUCKETS = (0.0, 1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6)


@dataclass(frozen=True)
class CoherencyDecision:
    """One structured entry of the coherency-decision audit log.

    Attributes
    ----------
    superstep:
        Superstep index the decision was taken in.
    kind:
        ``"turn_on_lazy"`` / ``"local_budget"`` (interval-rule
        evaluations) or ``"coherency"`` (one per executed coherency
        exchange — the audit invariant is that the count of these
        equals ``RunStats.coherency_points``).
    rule:
        Name of the rule that decided (the controller's ``rule_name``,
        ``"max-delta-age"``, ``"idle-drain"``).
    verdict:
        Human-readable outcome (``"lazy-on"``, ``"exchange"``, …).
    inputs:
        The numeric inputs the rule saw (``ev_ratio``, ``trend``,
        ``budget_s``, ``ready_replicas`` …).
    """

    superstep: int
    kind: str
    rule: str
    verdict: str
    inputs: Dict[str, Any] = field(default_factory=dict)

    def to_record(self) -> Dict[str, Any]:
        """Flat JSON-serializable form (the trace-instant attrs)."""
        out: Dict[str, Any] = {
            "superstep": self.superstep,
            "kind": self.kind,
            "rule": self.rule,
            "verdict": self.verdict,
        }
        out.update(self.inputs)
        return out


class NullLens:
    """Disabled lens: every hook is a no-op (the default on hot paths)."""

    enabled = False

    def begin_superstep(self, step: int) -> None:
        pass

    def probe(self) -> None:
        pass

    def on_staged(self, staged_mass: float) -> None:
        pass

    def decision(self, kind: str, rule: str, verdict: str, **inputs) -> None:
        pass

    def on_exchange(
        self, report, due: Optional[Callable] = None, rule: str = "", **inputs
    ) -> None:
        pass

    def finish(self, converged: bool, final_drift: float) -> None:
        pass


NULL_LENS = NullLens()


class CoherencyLens:
    """Live replica-coherency observability for one lazy engine run.

    Parameters
    ----------
    reader:
        The engine's :class:`~repro.runtime.result.ReplicaReader`: the
        machine-slot table, per-machine pending mass and the drift
        sample (the lens only ever *reads* the runtimes, through it).
    tracer:
        Span tracer to emit instants through (``NULL_TRACER`` is fine —
        metrics still accumulate).
    stats:
        The run's :class:`~repro.cluster.stats.RunStats`; lens metrics
        are registered on its registry and summary counters land in
        ``stats.extra``.
    plane:
        The engine's :class:`~repro.comms.ExchangePlane`; each traced
        probe writes its per-channel ledgers as a ``channel-ledger``
        instant so traffic lines up with decisions.
    """

    enabled = True

    def __init__(self, reader, tracer=None, stats=None, plane=None) -> None:
        from repro.obs.tracer import NULL_TRACER

        self.reader = reader
        self.runtimes = reader.runtimes
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = stats
        self.plane = plane
        self.decisions: List[CoherencyDecision] = []
        self.exchanges = 0
        self.probes = 0
        self.superstep = -1
        self.rolled_up = 0  # probe instants suppressed by the rollup
        self.final_drift: Optional[float] = None
        self.invariant_breaks = 0
        if stats is not None:
            m = stats.metrics
            self.h_staleness = m.histogram(
                "lens.staleness",
                "supersteps a pending delta aged before exchange",
                buckets=STALENESS_BUCKETS,
            )
            self.h_pending = m.histogram(
                "lens.pending_mass",
                "per-probe total pending deltaMsg mass (monoid units)",
                buckets=MASS_BUCKETS,
            )
            self.h_staged = m.histogram(
                "lens.exchange_mass",
                "delta mass shipped per coherency exchange",
                buckets=MASS_BUCKETS,
            )
            self.g_drift = m.gauge(
                "lens.drift_max", "last sampled master↔mirror drift"
            )
        else:
            self.h_staleness = self.h_pending = self.h_staged = None
            self.g_drift = None

    # ------------------------------------------------------------------
    # Engine hooks
    # ------------------------------------------------------------------
    def begin_superstep(self, step: int) -> None:
        """Record the superstep the next readings belong to."""
        self.superstep = step

    def probe(self) -> None:
        """Per-superstep staleness/divergence gauges (pre-exchange)."""
        self.probes += 1
        masses, pending = self.reader.pending()
        total_mass = float(sum(masses))
        stale_max = self.reader.staleness_max()
        if self.h_staleness is not None:
            for rt in self.runtimes:
                counts = np.bincount(rt.delta_age[rt.has_delta])
                for age_value in np.flatnonzero(counts):
                    self.h_staleness.observe(
                        float(age_value), int(counts[age_value])
                    )
        if self.h_pending is not None:
            self.h_pending.observe(total_mass)
        drift = self.reader.sample_drift()
        if self.g_drift is not None:
            self.g_drift.set(drift)
        tracer = self.tracer
        if not tracer.enabled:
            return
        if not self._instants_due():
            # rollup window: keep the timeline bounded on long runs
            # (metrics above already accumulated this probe)
            self.rolled_up += 1
            return
        tracer.instant(
            "lens-probe",
            superstep=self.superstep,
            pending_mass=total_mass,
            pending_replicas=int(sum(pending)),
            staleness_max=stale_max,
            drift_max=drift,
            machine_mass=[float(m) for m in masses],
        )
        self._ledger_instant()

    def _instants_due(self) -> bool:
        """Is this superstep inside the full-resolution window?"""
        return (
            self.superstep < ROLLUP_AFTER
            or self.superstep % ROLLUP_EVERY == 0
        )

    def _ledger_instant(self) -> None:
        """One ``channel-ledger`` instant: every channel's cumulative
        counters, so traffic lines up with decisions per superstep."""
        if self.plane is None:
            return
        attrs: Dict[str, Any] = {"superstep": self.superstep}
        for ch in self.plane.channels():
            counters = ch.counters()
            attrs[f"{ch.name}.bytes"] = float(counters["bytes"])
            attrs[f"{ch.name}.messages"] = int(counters["messages"])
            attrs[f"{ch.name}.syncs"] = int(counters["syncs"])
            attrs[f"{ch.name}.rounds"] = int(counters["rounds"])
        self.tracer.instant("channel-ledger", **attrs)

    def on_staged(self, staged_mass: float) -> None:
        """Delta mass shipped by the exchanger in the current exchange."""
        if self.h_staged is not None:
            self.h_staged.observe(float(staged_mass))

    def decision(self, kind: str, rule: str, verdict: str, **inputs) -> None:
        """Record one interval-rule / coherency decision."""
        d = CoherencyDecision(self.superstep, kind, rule, verdict, inputs)
        self.decisions.append(d)
        if self.tracer.enabled:
            self.tracer.instant("coherency-decision", **d.to_record())

    def on_exchange(
        self, report, due: Optional[Callable] = None, rule: str = "", **inputs
    ) -> None:
        """Post-exchange probe + the exchange's ``"coherency"`` decision.

        ``due`` scopes the invariant: ``None`` means the exchange was
        *full* (every pending delta must be gone afterwards); otherwise
        ``due(rt)`` masks the replicas that were due for exchange (only
        those, plus unreplicated vertices, must be clean).
        """
        self.exchanges += 1
        full = due is None
        # per-machine readings folded machine-ascending
        masses, counts = self.reader.pending(
            None if full else [
                due(rt) | (rt.mg.num_replicas == 1) for rt in self.runtimes
            ]
        )
        mass_after = sum(masses, 0.0)
        count_after = sum(counts)
        ok = count_after == 0 and mass_after == 0.0
        if not ok:
            self.invariant_breaks += 1
        self.decision(
            "coherency",
            rule=rule,
            verdict="exchange" if not report.empty else "empty-exchange",
            mode=report.mode.value,
            vertices=int(report.vertices_exchanged),
            volume_bytes=float(report.volume_bytes),
            **inputs,
        )
        if self.tracer.enabled:
            self.tracer.instant(
                "lens-exchange",
                superstep=self.superstep,
                full=full,
                mass_after=float(mass_after),
                pending_after=int(count_after),
                vertices=int(report.vertices_exchanged),
                mode=report.mode.value,
            )

    def finish(self, converged: bool, final_drift: float) -> None:
        """Publish the summary; ``final_drift`` is the run's full
        cross-replica gap, measured once by ``BaseEngine.run``."""
        self.final_drift = final_drift
        if self.stats is not None:
            self.stats.extra["lens.decisions"] = float(len(self.decisions))
            self.stats.extra["lens.exchanges"] = float(self.exchanges)
            self.stats.extra["lens.probes"] = float(self.probes)
            self.stats.extra["lens.final_drift"] = self.final_drift
            self.stats.extra["lens.invariant_breaks"] = float(
                self.invariant_breaks
            )
            self.stats.extra["lens.rolled_up"] = float(self.rolled_up)
        if self.tracer.enabled:
            self.tracer.instant(
                "lens-final",
                converged=bool(converged),
                drift=self.final_drift,
                decisions=len(self.decisions),
                coherency_decisions=sum(
                    1 for d in self.decisions if d.kind == "coherency"
                ),
                exchanges=self.exchanges,
                invariant_breaks=self.invariant_breaks,
                rolled_up=self.rolled_up,
            )
