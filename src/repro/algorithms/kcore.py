"""k-core decomposition (paper Fig 1a) as a delta program.

A vertex's ``core`` starts at its degree and is decremented by one for
every incident edge whose other endpoint is deleted. When ``core``
drops below K the vertex is deleted (``core`` clamps to 0) and announces
the deletion — the value 1 — to every neighbour, exactly the paper's
iterative equations (1)–(2). The fixpoint's surviving subgraph is the
k-core.

Laziness is safe because deletion is *monotone*: a replica's local view
folds a subset of the true decrement multiset, so ``core_local ≥
core_global``; if the local view crosses below K the global view has
too, and firing early is always sound (this is the paper's Fig 1(c)
walkthrough). The algebra is (ℕ, +), invertible, so mirrors-to-master
coherency uses ``Inverse``.

``requires_symmetric``: k-core is defined on undirected graphs; on the
symmetrized input each vertex's global out-degree equals its undirected
degree, which is what ``make_state`` initializes ``core`` from.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.vertex_program import DeltaProgram, SUM_ALGEBRA
from repro.errors import AlgorithmError
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["KCoreProgram"]


class KCoreProgram(DeltaProgram):
    """Iterative peeling to the ``k``-core."""

    name = "kcore"
    algebra = SUM_ALGEBRA
    delta_bytes = 16
    requires_symmetric = True
    needs_weights = False

    def __init__(self, k: int = 3) -> None:
        if k < 1:
            raise AlgorithmError(f"k must be >= 1, got {k}")
        self.k = k

    # ------------------------------------------------------------------
    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        # symmetrized input: global out-degree == undirected degree, so
        # every replica initializes to the same (global) core value
        return {
            "vdata": mg.out_deg_global.astype(np.float64).copy(),
            "deleted": np.zeros(mg.num_local_vertices, dtype=bool),
        }

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        # bootstrap: every vertex runs one Apply with an empty accum so
        # under-degree vertices delete themselves in round one
        active = np.ones(mg.num_local_vertices, dtype=bool)
        return None, active

    def apply(
        self,
        mg: MachineGraph,
        state: Dict[str, np.ndarray],
        idx: np.ndarray,
        accum: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        # deleted vertices keep core 0 and ignore further decrements
        live = np.flatnonzero(~state["deleted"][idx])
        sel = idx[live]
        core = state["vdata"][sel] - accum[live]
        dead = np.flatnonzero(core < self.k)
        core[dead] = 0.0
        state["vdata"][sel] = core
        state["deleted"][sel[dead]] = True
        newly_dead = np.zeros(idx.size, dtype=bool)
        newly_dead[live[dead]] = True
        return np.ones(idx.size, dtype=np.float64), newly_dead

    def edge_transform(self, mg: MachineGraph):
        return ("identity", None)
