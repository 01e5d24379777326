"""Breadth-first search levels as a delta program (extension algorithm).

Not part of the paper's evaluation quartet, but listed among the
algorithms whose solution depends on a subset of neighbours (§1) —
included as the natural fifth program and used by tests/examples.
Identical structure to SSSP with unit edge weights.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.apply_rules import MinRelaxProgram
from repro.errors import AlgorithmError
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["BFSProgram"]


class BFSProgram(MinRelaxProgram):
    """Hop distance from ``source`` (∞ for unreachable vertices)."""

    name = "bfs"
    requires_symmetric = False
    needs_weights = False

    def __init__(self, source: int = 0) -> None:
        if source < 0:
            raise AlgorithmError(f"source must be >= 0, got {source}")
        self.source = source

    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        level = np.full(mg.num_local_vertices, np.inf, dtype=np.float64)
        level[mg.vertices == self.source] = 0.0
        return {"vdata": level}

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        active = mg.vertices == self.source
        return np.where(active, 0.0, np.inf), active

    def edge_transform(self, mg: MachineGraph):
        return ("add", 1.0)
