"""Hybrid vertex-cut (PowerLyra-style differentiated placement).

Skewed graphs mix a few very-high-in-degree vertices with a low-degree
majority. Hybrid-cut places edges differently by target in-degree:

* **low-degree target** — the edge is hashed by its *target* vertex, so
  all in-edges of a low-degree vertex land on one machine (edge-cut-like
  locality, no gather-side replication for that vertex);
* **high-degree target** (in-degree > 100, PowerLyra's default
  threshold) — the edge is
  hashed by its *source*, distributing the hub's gather work across
  machines (vertex-cut-like parallelism).

This is the "hybrid-cut" option the paper lists in §4.1; the algorithm
is from PowerLyra [8].
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike, make_rng

__all__ = ["hybrid_cut"]

#: in-degree above which a target counts as high-degree (PowerLyra's default)
_DEGREE_THRESHOLD = 100


def hybrid_cut(
    graph: DiGraph,
    num_machines: int,
    seed: SeedLike = None,
) -> np.ndarray:
    """Differentiated hash placement by target in-degree."""
    rng = make_rng(seed)
    # Seeded random vertex -> machine hash shared by both rules.
    vhash = rng.integers(0, num_machines, size=graph.num_vertices, dtype=np.int32)
    if graph.num_edges == 0:
        return np.empty(0, dtype=np.int32)
    in_deg = graph.in_degrees()
    high_target = in_deg[graph.dst] > _DEGREE_THRESHOLD
    assignment = np.where(high_target, vhash[graph.src], vhash[graph.dst])
    return assignment.astype(np.int32)
