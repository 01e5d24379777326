"""The replication factor λ of a vertex-cut assignment.

Under a vertex-cut, vertex ``v`` has a replica on every machine that was
assigned at least one of its edges. λ (paper Table 1) is the mean number
of replicas per vertex — the quantity the paper's §5.3 identifies as the
main determinant of LazyGraph's speedup.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["replication_factor"]


def replication_factor(
    graph: DiGraph, assignment: np.ndarray, num_machines: int
) -> float:
    """Mean replicas per vertex, λ. Edge-less vertices count one replica."""
    if graph.num_vertices == 0:
        return 0.0
    # one key per distinct (vertex, machine) pair: a replica
    both = np.concatenate([graph.src, graph.dst]).astype(np.int64)
    mach = np.concatenate([assignment, assignment]).astype(np.int64)
    key = np.unique(both * num_machines + mach)
    counts = np.bincount(key // num_machines, minlength=graph.num_vertices)
    total = key.size + np.count_nonzero(counts == 0)  # lonely vertices
    return float(total / graph.num_vertices)
