"""Single-source shortest paths as a push-style delta program.

Classic delta relaxation: a vertex holds its best-known distance; when
it improves, the new distance plus each out-edge's weight is pushed to
the neighbours. The delta algebra is (ℝ∪{∞}, min) — idempotent, so the
mirrors-to-master coherency path needs no ``Inverse`` (re-folding a
replica's own contribution is a no-op).

Monotonicity makes SSSP the paper's best case for laziness: a replica
can relax through many local hops between coherency points, and the
road-graph experiments (huge diameter, tiny frontier) are dominated by
exactly this effect.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.apply_rules import MinRelaxProgram
from repro.errors import AlgorithmError
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["SSSPProgram"]


class SSSPProgram(MinRelaxProgram):
    """Shortest paths from ``source`` over non-negative edge weights."""

    name = "sssp"
    requires_symmetric = False
    needs_weights = True

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise AlgorithmError(f"source must be >= 0, got {source}")
        self.source = source

    # ------------------------------------------------------------------
    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        dist = np.full(mg.num_local_vertices, np.inf, dtype=np.float64)
        local_src = np.flatnonzero(mg.vertices == self.source)
        dist[local_src] = 0.0
        return {"vdata": dist}

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        active = mg.vertices == self.source
        delta = np.where(active, 0.0, np.inf)
        return delta, active

    def edge_transform(self, mg: MachineGraph):
        return ("add", mg.eweight)
