"""Run statistics: the measured quantities behind every figure.

The paper explains its speedups (Fig 9) through two directly-measured
counters — the number of global synchronizations (Fig 10) and the
communication traffic in bytes (Fig 11). :class:`RunStats` collects
exactly those, plus the work/time breakdown the scalability study
(Fig 12) needs. Engines only ever *increment* these counters through
:class:`~repro.cluster.simulator.ClusterSim`; nothing here is modeled
or estimated except ``modeled_time_s``, which integrates the
:class:`~repro.cluster.network.NetworkModel` costs as the run proceeds.

``RunStats`` meets the :mod:`repro.obs` layer in two places:

* every instance owns a :class:`~repro.obs.metrics.MetricsRegistry`
  for real instruments (the coherency lens's histograms and gauge);
  the free-form ``extra`` annotations are a plain dict beside it
  (``bump`` adds into one key), dumped once, under ``extra``;
* every model-time charge (``add_compute``/``add_comm``/``add_sync``)
  is forwarded to a bound :class:`~repro.obs.tracer.Tracer`, which is
  how spans learn their modeled durations.

``RunStats`` holds run totals only. What happened *per superstep* is
the trace's: each ``superstep`` span carries ``active`` (the engine's
active-vertex count when tracing is on) next to the phase spans and
instants that carry the rest.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Any, Dict, Optional

from repro.obs.metrics import MetricsRegistry

if TYPE_CHECKING:
    from repro.obs.tracer import Tracer

__all__ = ["RunStats"]


@dataclass
class RunStats:
    """Counters accumulated over one engine run.

    Attributes
    ----------
    global_syncs:
        Number of global synchronizations (barriers). PowerGraph Sync
        performs three per superstep; LazyBlockAsync one per data
        coherency point (paper §2.2 / §3.2).
    comm_bytes:
        Total bytes crossing the (simulated) network.
    comm_messages:
        Number of point-to-point network messages those bytes rode in.
    comm_rounds:
        Number of bulk communication rounds (a gather or broadcast over
        the whole cluster counts as one round).
    supersteps:
        Outer-loop iterations of the engine.
    local_iterations:
        Micro-iterations inside lazy local-computation stages (0 for the
        eager engines).
    coherency_points:
        Data coherency stages executed (lazy engines only).
    edge_traversals:
        Total edges processed across all machines (work measure; the
        numerator of the TEPS compute model).
    vertex_updates:
        Apply operations executed across all machines.
    modeled_time_s:
        Modeled cluster wall-clock, integrated from the network model:
        per-superstep max-machine compute + communication + barriers.
    compute_time_s / comm_time_s / sync_time_s:
        Breakdown of ``modeled_time_s``.
    converged:
        True when the run reached its fixpoint/tolerance (as opposed to
        hitting ``max_supersteps``).
    metrics:
        The run's :class:`~repro.obs.metrics.MetricsRegistry` (created
        per instance).
    extra:
        Free-form named run annotations (a plain ``dict``); a value
        keeps the type its writer stored until :meth:`to_dict` dumps
        it as a ``float``.
    """

    global_syncs: int = 0
    comm_bytes: float = 0.0
    comm_messages: int = 0
    comm_rounds: int = 0
    supersteps: int = 0
    local_iterations: int = 0
    coherency_points: int = 0
    edge_traversals: int = 0
    vertex_updates: int = 0
    modeled_time_s: float = 0.0
    compute_time_s: float = 0.0
    comm_time_s: float = 0.0
    sync_time_s: float = 0.0
    converged: bool = False
    busy_max_total_s: float = 0.0  # Σ per-fold busiest-machine compute
    busy_mean_total_s: float = 0.0  # Σ per-fold mean machine compute

    def __post_init__(self) -> None:
        self.metrics = MetricsRegistry()
        self.extra: Dict[str, float] = {}
        self._tracer: Optional[Tracer] = None

    # ------------------------------------------------------------------
    def bind_tracer(self, tracer: Tracer) -> None:
        """Route every model-time charge to ``tracer``.

        Called by :meth:`repro.obs.tracer.Tracer.bind_stats`; engines
        bind through :class:`~repro.runtime.base_engine.BaseEngine`.
        """
        self._tracer = tracer

    def _charge(self, kind: str, seconds: float) -> None:
        if self._tracer is not None:
            self._tracer.on_charge(kind, seconds)

    # ------------------------------------------------------------------
    def add_compute(self, seconds: float) -> None:
        """Account modeled compute time (already max-reduced over machines)."""
        self.compute_time_s += seconds
        self.modeled_time_s += seconds
        self._charge("compute", seconds)

    def add_comm(self, seconds: float) -> None:
        """Account modeled communication time."""
        self.comm_time_s += seconds
        self.modeled_time_s += seconds
        self._charge("comm", seconds)

    def add_sync(self, seconds: float) -> None:
        """Account modeled synchronization (barrier) time."""
        self.sync_time_s += seconds
        self.modeled_time_s += seconds
        self._charge("sync", seconds)

    def bump(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to the ``extra[key]`` annotation."""
        self.extra[key] = self.extra.get(key, 0.0) + amount

    @property
    def compute_skew(self) -> float:
        """Load imbalance: busiest-machine compute over mean compute.

        1.0 = perfectly balanced; the paper's §2.2 notes this blows up
        for high-degree vertices under edge-cut placement (the vertex-cut
        motivation) — measured here per fold (barrier/settle window).
        """
        if self.busy_mean_total_s <= 0:
            return 1.0
        return self.busy_max_total_s / self.busy_mean_total_s

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump: counters + registry + derived skew."""
        out: Dict[str, Any] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["compute_skew"] = self.compute_skew
        out["extra"] = {k: float(v) for k, v in sorted(self.extra.items())}
        out["metrics"] = self.metrics.export()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunStats":
        """Rebuild stats from :meth:`to_dict` output.

        Dataclass counters and ``extra`` are restored directly; the
        registry comes back through :meth:`MetricsRegistry.from_export`;
        ``compute_skew`` is derived and ignored.
        """
        known = {f.name for f in fields(cls)}
        stats = cls(**{k: v for k, v in data.items() if k in known})
        stats.extra = dict(data.get("extra") or {})
        metrics = data.get("metrics")
        if metrics:
            stats.metrics = MetricsRegistry.from_export(metrics)
        return stats

    def copy(self) -> "RunStats":
        """An independent snapshot: the :meth:`to_dict` round trip
        without the JSON (no bound tracer)."""
        return type(self).from_dict(self.to_dict())

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """One-line human-readable digest (used by examples and benches)."""
        return (
            f"time={self.modeled_time_s:.4f}s syncs={self.global_syncs} "
            f"traffic={self.comm_bytes / 1e6:.3f}MB msgs={self.comm_messages} "
            f"supersteps={self.supersteps} cpoints={self.coherency_points} "
            f"liters={self.local_iterations} converged={self.converged}"
        )
