"""PageRank-Delta (paper Fig 3) as a push-style delta program.

Standard PageRank,

    PR(i) = 0.15 + 0.85 · Σ_{j→i} PR(j) / outDeg(j),

re-expressed incrementally: each vertex holds its rank and a *pending*
accumulated rank change; when the pending change exceeds the tolerance
it is pushed to out-neighbours as ``Δ/outDeg`` (the paper's ``Scatter``
condition ``|Δ| > tol``). Every vertex starts at rank 0.15 with one unit
of pending mass, reproducing the paper's initialization
``PR^(1)_i = 0.15 + 0.85·Σ_{j→i} 1/outDeg(j)``.

The delta algebra is (ℝ, +), which has an inverse, so mirrors-to-master
coherency uses the ``Inverse`` path.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.algorithms.apply_rules import DampedSumProgram
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["PageRankDeltaProgram"]


class PageRankDeltaProgram(DampedSumProgram):
    """PageRank via delta propagation.

    Parameters
    ----------
    damping:
        Damping factor (paper uses 0.85).
    tolerance:
        A vertex scatters once its pending rank change exceeds this;
        the run converges when no vertex fires. The converged ranks
        match the exact fixpoint within ``O(tolerance)`` per vertex.
    """

    name = "pagerank"

    def __init__(self, damping: float = 0.85, tolerance: float = 1e-3) -> None:
        super().__init__(damping, tolerance)

    # ------------------------------------------------------------------
    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        n = mg.num_local_vertices
        return {
            # every replica starts from the same base rank
            "vdata": np.full(n, 1.0 - self.damping, dtype=np.float64),
            "pending": np.zeros(n, dtype=np.float64),
        }

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        # bootstrap delta = the initial rank (1−d): then every vertex's
        # cumulative scattered mass telescopes to exactly its final rank,
        # so the fixpoint is the standard PR equation. (The paper's Fig 3
        # pairs a bootstrap of 1 with a −d initial pending; algebraically
        # equivalent at the fixpoint, but this form also handles vertices
        # that never receive a message.)
        init_delta = np.full(
            mg.num_local_vertices, 1.0 - self.damping, dtype=np.float64
        )
        active = np.ones(mg.num_local_vertices, dtype=bool)
        return init_delta, active
