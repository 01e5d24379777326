"""Run statistics: the measured quantities behind every figure.

The paper explains its speedups (Fig 9) through two directly-measured
counters — the number of global synchronizations (Fig 10) and the
communication traffic in bytes (Fig 11). :class:`RunStats` collects
exactly those, plus the work/time breakdown the scalability study
(Fig 12) needs. Engines only ever *increment* these counters through
:class:`~repro.cluster.simulator.ClusterSim`; nothing here is modeled
or estimated except ``modeled_time_s``, which integrates the
:class:`~repro.cluster.network.NetworkModel` costs as the run proceeds.

Since the observability refactor, ``RunStats`` is built on the
:mod:`repro.obs` layer:

* every instance owns a :class:`~repro.obs.metrics.MetricsRegistry`;
  the historical free-form ``extra`` annotations are a dict-compatible
  view over ``extra.*`` registry counters (``bump`` increments one);
* every model-time charge (``add_compute``/``add_comm``/``add_sync``)
  is forwarded to a bound :class:`~repro.obs.tracer.Tracer`, which is
  how spans learn their modeled durations;
* ``trace=True`` timeline snapshots share one schema across all engines
  (``superstep``/``global_syncs``/``comm_bytes``/``modeled_time_s``/
  ``active`` plus engine-specific fields) and are mirrored to the
  tracer as counter samples.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict, List

from repro.obs.metrics import ExtraView, MetricsRegistry

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
        per instance). ``extra`` is a dict-compatible view over its
        ``extra.*`` counters.
    timeline:
        Optional per-superstep snapshots (engines populate it when
        constructed with ``trace=True``): dicts with the superstep
        index, active count, cumulative syncs/bytes/modeled time, and
        engine-specific fields. Powers convergence plots and the
        adaptive interval rule's offline analysis.
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
        self.extra = ExtraView(self.metrics)
        self.timeline: List[Dict] = []
        self._tracer = None

    # ------------------------------------------------------------------
    def bind_tracer(self, tracer) -> None:
        """Route every model-time charge and snapshot to ``tracer``.

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
        """Increment a free-form ``extra.*`` counter in the registry."""
        self.metrics.counter(ExtraView.PREFIX + key).inc(amount)

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

    def snapshot(self, active: int, **fields_) -> Dict:
        """Append a timeline entry (cumulative counters + caller fields).

        ``active`` is mandatory — it is the one engine-state field every
        engine can report, and the uniform-schema contract the trace
        tests assert: every entry carries ``superstep``,
        ``global_syncs``, ``comm_bytes``, ``modeled_time_s``, ``active``.
        """
        entry = {
            "superstep": self.supersteps,
            "global_syncs": self.global_syncs,
            "comm_bytes": self.comm_bytes,
            "modeled_time_s": self.modeled_time_s,
            "active": int(active),
        }
        entry.update(fields_)
        self.timeline.append(entry)
        if self._tracer is not None:
            self._tracer.counter("active_vertices", int(active))
        return entry

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump: counters + registry + derived skew."""
        out: Dict[str, Any] = {f.name: getattr(self, f.name) for f in fields(self)}
        out["compute_skew"] = self.compute_skew
        out["extra"] = dict(self.extra)
        out["metrics"] = self.metrics.export()
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "RunStats":
        """Rebuild stats from :meth:`to_dict` output.

        Dataclass counters are restored directly; the registry comes
        back through :meth:`MetricsRegistry.from_export` (so ``extra``
        keeps working — its ``extra.*`` counters live in the registry,
        and the exported ``extra`` dict is redundant with them);
        ``compute_skew`` is derived and ignored. The ``timeline`` is a
        trace artifact and is not serialized — a restored instance has
        an empty one.
        """
        known = {f.name for f in fields(cls)}
        stats = cls(**{k: v for k, v in data.items() if k in known})
        metrics = data.get("metrics")
        if metrics:
            stats.metrics = MetricsRegistry.from_export(metrics)
            stats.extra = ExtraView(stats.metrics)
        return stats

    def copy(self) -> "RunStats":
        """An independent snapshot: the :meth:`to_dict` round trip
        without the JSON (no timeline, no bound tracer)."""
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
