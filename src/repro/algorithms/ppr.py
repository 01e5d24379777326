"""Personalized PageRank as a push-style delta program (extension).

The same Fig 3 delta machinery as global PageRank, but teleportation
mass is concentrated on a seed set:

    PPR(i) = (1−d)·1[i ∈ seeds]/|seeds| + d · Σ_{j→i} PPR(j)/outDeg(j).

Only the seeds carry bootstrap mass, so rank flows outward from them —
the standard proximity measure for seeded search / recommendation.
Included as an extension algorithm: it exercises the delta framework
with a *sparse* initial frontier on a sum algebra (global PR starts
dense; SSSP starts sparse but is idempotent), a combination no paper
algorithm covers.
"""

from __future__ import annotations

from typing import Dict, Iterable, Optional, Tuple

import numpy as np

from repro.algorithms.apply_rules import DampedSumProgram
from repro.errors import AlgorithmError
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["PersonalizedPageRankProgram"]


class PersonalizedPageRankProgram(DampedSumProgram):
    """Seeded PageRank via delta propagation.

    Parameters
    ----------
    seeds:
        Non-empty iterable of seed vertex ids (teleport targets).
    damping, tolerance:
        As in :class:`~repro.algorithms.pagerank.PageRankDeltaProgram`.
    """

    name = "ppr"

    def __init__(
        self,
        seeds: Iterable[int],
        damping: float = 0.85,
        tolerance: float = 1e-4,
    ) -> None:
        seed_list = sorted(set(int(s) for s in seeds))
        if not seed_list:
            raise AlgorithmError("ppr needs at least one seed vertex")
        if seed_list[0] < 0:
            raise AlgorithmError(f"seed ids must be >= 0, got {seed_list[0]}")
        super().__init__(damping, tolerance)
        self.seeds = np.asarray(seed_list, dtype=np.int64)

    # ------------------------------------------------------------------
    def _base_rank(self, mg: MachineGraph) -> np.ndarray:
        base = np.zeros(mg.num_local_vertices)
        base[np.isin(mg.vertices, self.seeds)] = (
            (1.0 - self.damping) / self.seeds.size
        )
        return base

    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        return {
            "vdata": self._base_rank(mg),
            "pending": np.zeros(mg.num_local_vertices),
        }

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        # bootstrap delta = the base rank (non-zero only at seeds), so
        # total scattered mass telescopes to each vertex's final rank
        base = self._base_rank(mg)
        return base, base > 0
