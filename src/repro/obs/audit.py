"""LensAuditor: invariant checks over a finished run's trace.

The coherency lens (:mod:`repro.obs.lens`) records what the lazy
runtime *believes* about replica coherency; the auditor cross-checks
those beliefs against the run's independent ledgers and flags every
contradiction as an :class:`Anomaly`:

* ``untracked-charges`` — the tracer observed model-time charges while
  no span was open (``meta["untracked_charges"]``): the span tree no
  longer tiles the run, so per-phase breakdowns are silently short;
* ``pending-after-exchange`` — a coherency exchange left non-zero
  pending deltaMsg mass (every exchange is full: it must clear
  everything);
* ``final-drift`` — master and mirror values still disagree after the
  final superstep of a converged run;
* ``decision-mismatch`` — the audit log's ``kind="coherency"`` decision
  count differs from ``RunStats.coherency_points`` (some exchange was
  counted but never audited, or vice versa);
* ``ledger-mismatch`` — the per-channel ``comms.*`` ledgers do not sum
  back to the RunStats traffic/sync totals (a byte moved outside the
  exchange plane).

The auditor is pure trace analysis — it runs identically on a live
:class:`~repro.obs.tracer.Tracer` (via
:func:`~repro.obs.records.trace_from_tracer`) and on a loaded trace
file, and never needs the engine objects. ``repro analyze --strict``
exits non-zero when any anomaly is found.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.obs.records import TraceData

__all__ = ["Anomaly", "LensAuditor"]

#: Ledger counters cross-checked against their RunStats totals.
_LEDGER_KEYS = (
    ("bytes", "comm_bytes"),
    ("messages", "comm_messages"),
    ("rounds", "comm_rounds"),
    ("syncs", "global_syncs"),
)


@dataclass(frozen=True)
class Anomaly:
    """One flagged inconsistency between the lens and the run's ledgers."""

    code: str
    severity: str  # "warning" | "critical"
    message: str
    context: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        return f"[{self.severity}] {self.code}: {self.message}"


class LensAuditor:
    """Run the invariant checks over one finished trace."""

    def __init__(self, trace: TraceData, atol: float = 1e-9) -> None:
        self.trace = trace
        self.atol = atol

    # ------------------------------------------------------------------
    def audit(self) -> List[Anomaly]:
        """All anomalies, criticals first (empty list = clean run)."""
        found: List[Anomaly] = []
        found += self._check_untracked()
        found += self._check_exchanges()
        found += self._check_final_drift()
        found += self._check_decision_count()
        found += self._check_ledgers()
        found.sort(key=lambda a: (a.severity != "critical", a.code))
        return found

    # ------------------------------------------------------------------
    def _instants(self, name: str) -> List[Dict[str, Any]]:
        return [i for i in self.trace.instants if i.get("name") == name]

    def _check_untracked(self) -> List[Anomaly]:
        untracked = self.trace.meta.get("untracked_charges") or {}
        total = sum(untracked.values())
        if total <= 0:
            return []
        return [Anomaly(
            "untracked-charges",
            "warning",
            f"{total:.6f}s of model-time charges landed outside every "
            f"span; per-phase breakdowns are incomplete",
            {"untracked": dict(untracked)},
        )]

    def _check_exchanges(self) -> List[Anomaly]:
        out: List[Anomaly] = []
        for inst in self._instants("lens-exchange"):
            attrs = inst.get("attrs") or {}
            mass = float(attrs.get("mass_after", 0.0))
            pending = int(attrs.get("pending_after", 0))
            if mass > self.atol or pending > 0:
                out.append(Anomaly(
                    "pending-after-exchange",
                    "critical",
                    f"coherency exchange at superstep "
                    f"{attrs.get('superstep', '?')} left {pending} "
                    f"replica(s) pending (mass {mass:g})",
                    dict(attrs),
                ))
        return out

    def _check_final_drift(self) -> List[Anomaly]:
        finals = self._instants("lens-final")
        if not finals:
            return []
        attrs = finals[-1].get("attrs") or {}
        drift = float(attrs.get("drift", 0.0))
        converged = bool(attrs.get("converged", False))
        if not converged or drift <= self.atol:
            return []
        return [Anomaly(
            "final-drift",
            "critical",
            f"replicas still disagree by {drift:g} after the final "
            f"superstep of a converged run",
            dict(attrs),
        )]

    def _check_decision_count(self) -> List[Anomaly]:
        if not self._instants("lens-final"):
            return []  # lens was off: no audit log to reconcile
        decided = sum(
            1
            for i in self._instants("coherency-decision")
            if (i.get("attrs") or {}).get("kind") == "coherency"
        )
        counted = self.trace.stats.get("coherency_points")
        if counted is None or decided == counted:
            return []
        return [Anomaly(
            "decision-mismatch",
            "critical",
            f"audit log holds {decided} coherency decisions but RunStats "
            f"counted {counted} coherency points",
            {"decisions": decided, "coherency_points": counted},
        )]

    def _check_ledgers(self) -> List[Anomaly]:
        stats = self.trace.stats
        extra = stats.get("extra") or {}
        sums: Dict[str, float] = {key: 0.0 for key, _ in _LEDGER_KEYS}
        seen = False
        for name, value in extra.items():
            if not name.startswith("comms."):
                continue
            counter = name.rsplit(".", 1)[-1]
            if counter in sums:
                seen = True
                sums[counter] += value
        if not seen:
            return []  # pre-exchange-plane trace: nothing to reconcile
        out: List[Anomaly] = []
        for counter, stat_key in _LEDGER_KEYS:
            expected = stats.get(stat_key)
            if expected is None:
                continue
            if abs(sums[counter] - expected) > self.atol:
                out.append(Anomaly(
                    "ledger-mismatch",
                    "critical",
                    f"per-channel {counter} sum to {sums[counter]:g} but "
                    f"RunStats.{stat_key} is {expected:g}: traffic moved "
                    f"outside the exchange plane",
                    {
                        "counter": counter,
                        "channels_total": sums[counter],
                        "stats_total": expected,
                    },
                ))
        return out
