"""Multi-source BFS: hop distance to the *nearest* of a source set.

The batching primitive behind the serving layer
(:mod:`repro.serve`): N compatible single-source BFS point queries
fuse into one ``msbfs`` run over the union of their sources — one
delta sweep instead of N — because min-distance-to-a-set is itself a
MIN-monoid delta program. With a single source the program degenerates
to :class:`~repro.algorithms.bfs.BFSProgram` exactly (bit-identical
values), which the serving tests pin.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.algorithms.apply_rules import MinRelaxProgram
from repro.errors import AlgorithmError
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["MultiSourceBFSProgram"]


class MultiSourceBFSProgram(MinRelaxProgram):
    """Hop distance to the nearest source (∞ for unreachable vertices)."""

    name = "msbfs"
    requires_symmetric = False
    needs_weights = False

    def __init__(self, sources: Iterable[int] = (0,)) -> None:
        srcs = np.unique(np.asarray(list(sources), dtype=np.int64))
        if srcs.size == 0:
            raise AlgorithmError("msbfs needs at least one source")
        if srcs.min() < 0:
            raise AlgorithmError(
                f"sources must be >= 0, got {int(srcs.min())}"
            )
        self.sources = srcs

    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        level = np.full(mg.num_local_vertices, np.inf, dtype=np.float64)
        level[np.isin(mg.vertices, self.sources)] = 0.0
        return {"vdata": level}

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        active = np.isin(mg.vertices, self.sources)
        return np.where(active, 0.0, np.inf), active

    def edge_transform(self, mg: MachineGraph):
        return ("add", 1.0)
