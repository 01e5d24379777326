"""Whole-graph structural properties (Table 1 columns and more).

These are used by the Table 1 benchmark, by the adaptive interval rule
(E/V ratio feature, §4.2.1) and by tests that validate generator output
against the intended class signature (road = high diameter & flat
degrees, social = heavy-tailed degrees).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph.digraph import DiGraph

__all__ = [
    "GraphProperties",
    "compute_properties",
    "weakly_connected_components",
    "estimate_diameter",
    "degree_gini",
]


def weakly_connected_components(graph: DiGraph) -> np.ndarray:
    """Label vertices by weakly-connected component (labels are minima).

    Pure-NumPy label propagation over the symmetrized edge set; converges
    in O(diameter) sweeps, each a vectorized ``minimum.at``.
    """
    labels = np.arange(graph.num_vertices, dtype=np.int64)
    src = np.concatenate([graph.src, graph.dst])
    dst = np.concatenate([graph.dst, graph.src])
    while True:
        new = labels.copy()
        np.minimum.at(new, dst, labels[src])
        if np.array_equal(new, labels):
            return labels
        labels = new


def estimate_diameter(graph: DiGraph, num_probes: int = 4, seed: int = 0) -> int:
    """Lower-bound the diameter by BFS sweeps from a few probe vertices.

    Uses the double-sweep heuristic on the symmetrized graph: BFS from a
    probe, then BFS again from the farthest vertex found. Exact for trees;
    a tight lower bound in practice. Unreachable vertices are ignored.
    """
    if graph.num_vertices == 0:
        return 0
    rng = np.random.default_rng(seed)
    src = np.concatenate([graph.src, graph.dst])
    dst = np.concatenate([graph.dst, graph.src])
    n = graph.num_vertices

    def bfs_ecc(start: int) -> "tuple[int, int]":
        dist = np.full(n, -1, dtype=np.int64)
        dist[start] = 0
        frontier = np.array([start], dtype=np.int64)
        level = 0
        while frontier.size:
            mask = np.isin(src, frontier)
            nxt = dst[mask]
            nxt = nxt[dist[nxt] < 0]
            if nxt.size == 0:
                break
            nxt = np.unique(nxt)
            level += 1
            dist[nxt] = level
            frontier = nxt
        far = int(np.argmax(dist))
        return int(dist.max()), far

    best = 0
    probes = rng.choice(n, size=min(num_probes, n), replace=False)
    for p in probes:
        ecc, far = bfs_ecc(int(p))
        best = max(best, ecc)
        ecc2, _ = bfs_ecc(far)
        best = max(best, ecc2)
    return best


def degree_gini(graph: DiGraph) -> float:
    """Gini coefficient of the total-degree distribution (0 = uniform).

    A scalar measure of degree skew: road graphs sit near 0.1, social
    power-law graphs above 0.5.
    """
    deg = np.sort(graph.degrees().astype(np.float64))
    n = deg.size
    if n == 0 or deg.sum() == 0:
        return 0.0
    index = np.arange(1, n + 1, dtype=np.float64)
    return float((2.0 * (index * deg).sum() / (n * deg.sum())) - (n + 1.0) / n)


@dataclass(frozen=True)
class GraphProperties:
    """Summary statistics for a graph (Table 1 columns and extras)."""

    num_vertices: int
    num_edges: int
    ev_ratio: float
    max_out_degree: int
    max_in_degree: int
    mean_degree: float
    degree_gini: float
    num_weak_components: int
    giant_component_fraction: float
    diameter_estimate: int


def compute_properties(
    graph: DiGraph, diameter_probes: int = 2
) -> GraphProperties:
    """Compute :class:`GraphProperties` for ``graph``.

    ``diameter_probes=0`` skips the (BFS-heavy) diameter estimate and
    reports 0 — useful for large inputs when only degree statistics are
    needed.
    """
    labels = weakly_connected_components(graph)
    _, counts = np.unique(labels, return_counts=True)
    giant = counts.max() / graph.num_vertices if graph.num_vertices else 0.0
    diam = (
        estimate_diameter(graph, num_probes=diameter_probes)
        if diameter_probes > 0
        else 0
    )
    out_deg = graph.out_degrees()
    in_deg = graph.in_degrees()
    return GraphProperties(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        ev_ratio=graph.ev_ratio,
        max_out_degree=int(out_deg.max()) if out_deg.size else 0,
        max_in_degree=int(in_deg.max()) if in_deg.size else 0,
        mean_degree=float(graph.degrees().mean()) if graph.num_vertices else 0.0,
        degree_gini=degree_gini(graph),
        num_weak_components=int(counts.size),
        giant_component_fraction=float(giant),
        diameter_estimate=diam,
    )
