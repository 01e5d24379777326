"""Engine run results: global values, stats, and the readers of replica state.

:func:`collect_values` and :func:`replica_disagreement` assemble every
run's result. :class:`ReplicaReader` is the one read-only view of what
is *pending* between replicas mid-run — per-machine ``deltaMsg`` mass,
staleness, sampled drift — read by the coherency lens
(:mod:`repro.obs.lens`); LazyVertexAsync also reads its staleness for
its controller (:mod:`repro.core.policy`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.cluster.stats import RunStats
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime

__all__ = [
    "EngineResult", "ReplicaReader", "collect_values", "replica_disagreement",
]

#: The deterministic master↔mirror drift sample: up to this many
#: replicated vertices, drawn with this seed.
DRIFT_SAMPLE_SIZE = 32
DRIFT_SAMPLE_SEED = 0


def collect_values(
    pgraph: PartitionedGraph, runtimes: List[MachineRuntime]
) -> np.ndarray:
    """Assemble per-global-vertex values from each vertex's master replica."""
    n = pgraph.graph.num_vertices
    out = np.empty(n, dtype=np.float64)
    for rt in runtimes:
        masters = np.flatnonzero(rt.mg.is_master)
        out[rt.mg.vertices[masters]] = rt.values()[masters]
    return out


def _max_gap(size: int, parts) -> float:
    """Max finite ``max − min`` over ``size`` slots of ``(slots, values)`` parts."""
    lo = np.full(size, np.inf)
    hi = np.full(size, -np.inf)
    for slots, vals in parts:
        np.minimum.at(lo, slots, vals)
        np.maximum.at(hi, slots, vals)
    # inf-inf (all replicas at ∞, e.g. unreachable SSSP vertices) yields
    # nan: those replicas agree by definition
    with np.errstate(invalid="ignore"):
        diff = hi - lo
    finite = np.isfinite(diff)
    return float(diff[finite].max()) if finite.any() else 0.0


def replica_disagreement(
    pgraph: PartitionedGraph, runtimes: List[MachineRuntime]
) -> float:
    """Max |value difference| across replicas of any vertex.

    The paper's §3.5 theorem says this must be 0 (up to float noise for
    PageRank) after the final data coherency point — the engine test
    suite asserts it on every converged run.
    """
    return _max_gap(
        pgraph.graph.num_vertices,
        ((rt.mg.vertices, rt.values()) for rt in runtimes),
    )


class ReplicaReader:
    """Read-only view of a lazy engine's pending replica state.

    Built once per engine: always on LazyVertexAsync (its controller
    reads the staleness), and on LazyBlockAsync only under a lens.
    Readings stay per **machine**: each runtime (a block of
    machines) is read through the slices ``mg.machine_offsets`` marks,
    in machine order, so every float the lens records is grouped exactly
    as with one runtime per machine.
    """

    def __init__(self, pgraph: PartitionedGraph, runtimes, algebra) -> None:
        self.pgraph = pgraph
        self.runtimes = list(runtimes)
        self.algebra = algebra
        #: (runtime index, first slot, end slot) of every machine, in
        #: machine order
        self.machines: List[Tuple[int, int, int]] = []
        for ri, rt in enumerate(self.runtimes):
            offsets = rt.mg.machine_offsets.tolist()
            self.machines += [
                (ri, lo, hi) for lo, hi in zip(offsets[:-1], offsets[1:])
            ]
        #: the deterministic drift sample: sorted global ids (none on a
        #: 1-machine partition)
        self.sample = np.flatnonzero(pgraph.num_replicas > 1)
        if self.sample.size > DRIFT_SAMPLE_SIZE:
            rng = np.random.default_rng(DRIFT_SAMPLE_SEED)
            self.sample = np.sort(rng.choice(
                self.sample, size=DRIFT_SAMPLE_SIZE, replace=False
            ))
        # per runtime, the sampled replicas it holds: (sample slot, local idx)
        self._sample_slots = []
        for rt in self.runtimes:
            idx = np.flatnonzero(np.isin(rt.mg.vertices, self.sample))
            slots = np.searchsorted(self.sample, rt.mg.vertices[idx])
            self._sample_slots.append((slots, idx))

    def pending(self) -> Tuple[List[float], List[int]]:
        """Pending ``deltaMsg`` mass and count of every machine.

        The mass is monoid-measured
        (:meth:`~repro.api.vertex_program.DeltaAlgebra.magnitude`); fold
        the per-machine masses left to right to keep the total's bits.
        """
        masses: List[float] = []
        counts: List[int] = []
        for ri, lo, hi in self.machines:
            rt = self.runtimes[ri]
            idx = np.flatnonzero(rt.has_delta[lo:hi])
            masses.append(
                self.algebra.magnitude(rt.delta_msg[lo:hi][idx])
                if idx.size else 0.0
            )
            counts.append(int(idx.size))
        return masses, counts

    def staleness_max(self) -> int:
        """Age of the oldest pending delta (``MachineRuntime.delta_age``)."""
        return max(
            int(rt.delta_age[rt.has_delta].max(initial=0)) for rt in self.runtimes
        )

    def sample_drift(self) -> float:
        """Max |master − mirror| value gap over the deterministic sample."""
        return _max_gap(self.sample.size, (
            (slots, rt.values()[idx])
            for rt, (slots, idx) in zip(self.runtimes, self._sample_slots)
        ))

    def full_gap(self) -> float:
        """Max cross-replica value gap over *all* vertices."""
        return replica_disagreement(self.pgraph, self.runtimes)


@dataclass
class EngineResult:
    """Outcome of one engine run.

    Attributes
    ----------
    values:
        Per-global-vertex converged values (master replicas' view).
    stats:
        The run's :class:`~repro.cluster.stats.RunStats` counters.
    engine:
        Engine name (``"powergraph-sync"``, ``"lazy-block"``, …).
    algorithm:
        Program name.
    replica_max_disagreement:
        Measured max cross-replica value gap at termination.
    trace:
        The run's :class:`~repro.obs.tracer.Tracer` (span records and
        instants) when tracing was enabled; ``None``
        otherwise. Export with :func:`repro.obs.export_trace`.
    """

    values: np.ndarray
    stats: RunStats
    engine: str
    algorithm: str
    replica_max_disagreement: float
    trace: Optional[object] = None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"EngineResult({self.engine}/{self.algorithm}: "
            f"{self.stats.summary()})"
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-serializable dump (wire transfer, archives).

        ``values`` become a plain list (floats round-trip exactly
        through Python's repr, and non-strict ``json`` handles the
        ``inf`` sentinels SSSP/BFS leave on unreachable vertices);
        ``stats`` ride through :meth:`RunStats.to_dict`. The live
        ``trace`` object is *not* serialized — export it separately
        with :func:`repro.obs.export_trace` if you need it.
        """
        return {
            "values": np.asarray(self.values, dtype=np.float64).tolist(),
            "stats": self.stats.to_dict(),
            "engine": self.engine,
            "algorithm": self.algorithm,
            "replica_max_disagreement": float(self.replica_max_disagreement),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "EngineResult":
        """Rebuild a result from :meth:`to_dict` output (``trace=None``)."""
        return cls(
            values=np.asarray(data["values"], dtype=np.float64),
            stats=RunStats.from_dict(data["stats"]),
            engine=data["engine"],
            algorithm=data["algorithm"],
            replica_max_disagreement=float(data["replica_max_disagreement"]),
            trace=None,
        )
