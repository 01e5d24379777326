"""Connected components (label propagation) as a delta program.

Every vertex starts labelled with its own id and repeatedly adopts the
minimum label heard from a neighbour; at the fixpoint all vertices of a
(weakly) connected component share the component's minimum vertex id.
The algebra is (ℕ∪{∞}, min): idempotent, no ``Inverse`` needed.

The program assumes undirected semantics (``requires_symmetric``): the
harness symmetrizes directed inputs first, matching how PowerGraph's CC
toolkit treats SNAP edge lists.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.apply_rules import MinRelaxProgram
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["ConnectedComponentsProgram"]


class ConnectedComponentsProgram(MinRelaxProgram):
    """Minimum-label propagation over an undirected graph."""

    name = "cc"
    requires_symmetric = True
    needs_weights = False

    # ------------------------------------------------------------------
    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        # label with the global vertex id: identical on every replica
        return {"vdata": mg.vertices.astype(np.float64)}

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        active = np.ones(mg.num_local_vertices, dtype=bool)
        return state["vdata"].copy(), active

    def edge_transform(self, mg: MachineGraph):
        return ("identity", None)
