"""Replica-set computation and the replication factor λ.

Under a vertex-cut, vertex ``v`` has a replica on every machine that was
assigned at least one of its edges. λ (paper Table 1) is the mean number
of replicas per vertex — the quantity the paper's §5.3 identifies as the
main determinant of LazyGraph's speedup.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = ["replication_factor", "replica_csr"]


def replica_csr(
    graph: DiGraph, assignment: np.ndarray, num_machines: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Replica sets in CSR form: ``(indptr, machines)``.

    ``machines[indptr[v]:indptr[v+1]]`` are the (sorted) machines hosting
    a replica of ``v``. Vertices with no edges have an empty slice.
    """
    if graph.num_edges == 0:
        return np.zeros(graph.num_vertices + 1, dtype=np.int64), np.empty(
            0, dtype=np.int32
        )
    both = np.concatenate([graph.src, graph.dst]).astype(np.int64)
    mach = np.concatenate([assignment, assignment]).astype(np.int64)
    key = np.unique(both * num_machines + mach)
    verts = (key // num_machines).astype(np.int64)
    machines = (key % num_machines).astype(np.int32)
    counts = np.bincount(verts, minlength=graph.num_vertices)
    indptr = np.zeros(graph.num_vertices + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr, machines


def replication_factor(
    graph: DiGraph, assignment: np.ndarray, num_machines: int
) -> float:
    """Mean replicas per vertex, λ. Edge-less vertices count one replica."""
    if graph.num_vertices == 0:
        return 0.0
    indptr, _ = replica_csr(graph, assignment, num_machines)
    counts = np.diff(indptr)
    total = counts.sum() + np.count_nonzero(counts == 0)  # lonely vertices
    return float(total / graph.num_vertices)
