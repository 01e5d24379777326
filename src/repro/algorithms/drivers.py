"""Multi-run algorithm drivers composed from the public API.

Some graph problems are not a single vertex program but a *schedule* of
them. The paper (§6) notes the LazyAsync approach should also benefit
"distributed parallel graph algorithms" built this way; this module
demonstrates the composition with strongly connected components via the
classic Forward-Backward-Trim algorithm:

1. **trim** degree-0 vertices (each is a singleton SCC) until none
   remain;
2. pick a pivot, compute its forward (BFS) and backward (BFS on the
   reversed subgraph) reachable sets — each BFS is a distributed engine
   run;
3. ``F ∩ B`` is the pivot's SCC; the remainder splits into three
   independent subproblems (``F∖S``, ``B∖S``, rest) processed from a
   worklist.

Small subproblems (below ``local_threshold`` vertices) drop to the
single-machine BFS — exactly what a production driver does to avoid
paying cluster latency for tail fragments.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.algorithms.bfs import BFSProgram
from repro.algorithms.reference import bfs_reference
from repro.cluster.stats import RunStats
from repro.core.transmission import build_lazy_graph
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.runtime.registry import get_engine

__all__ = ["strongly_connected_components", "scc_reference"]

# the driver composes many small BFS runs; only the deterministic BSP
# engines make sense for it (classes resolve through the registry)
_ENGINES = ("lazy-block", "powergraph-sync")


def _reachable(
    graph: DiGraph,
    source: int,
    machines: int,
    engine: str,
    local_threshold: int,
    totals: RunStats,
) -> np.ndarray:
    """Boolean reachability from ``source`` (one BFS engine run)."""
    if graph.num_vertices <= local_threshold or machines == 1:
        return np.isfinite(bfs_reference(graph, source))
    pg = build_lazy_graph(graph, machines, seed=0)
    result = get_engine(engine).cls(pg, BFSProgram(source)).run()
    # fold the sub-run's measured costs into the driver totals
    totals.global_syncs += result.stats.global_syncs
    totals.comm_bytes += result.stats.comm_bytes
    totals.comm_messages += result.stats.comm_messages
    totals.supersteps += result.stats.supersteps
    totals.modeled_time_s += result.stats.modeled_time_s
    return np.isfinite(result.values)


def strongly_connected_components(
    graph: DiGraph,
    machines: int = 8,
    engine: str = "lazy-block",
    local_threshold: int = 64,
) -> Tuple[np.ndarray, RunStats]:
    """SCC labels via Forward-Backward-Trim over distributed BFS runs.

    Returns ``(labels, stats)``: ``labels[v]`` is the minimum vertex id
    of v's SCC, and ``stats`` aggregates the engine runs' measured
    costs (modeled time, syncs, traffic).
    """
    if engine not in _ENGINES:
        raise AlgorithmError(
            f"unknown engine {engine!r}; options: {sorted(_ENGINES)}"
        )
    n = graph.num_vertices
    labels = np.full(n, -1, dtype=np.int64)
    totals = RunStats()
    if n == 0:
        totals.converged = True
        return labels.astype(np.float64), totals

    worklist: List[np.ndarray] = [np.arange(n, dtype=np.int64)]
    while worklist:
        vertices = worklist.pop()
        if vertices.size == 0:
            continue
        sub, keep = graph.subgraph(vertices)

        # ---- trim: repeatedly peel degree-0 vertices (singleton SCCs)
        while True:
            deg_in = sub.in_degrees()
            deg_out = sub.out_degrees()
            lone = (deg_in == 0) | (deg_out == 0)
            if not lone.any():
                break
            labels[keep[lone]] = keep[lone]
            if lone.all():
                sub = None
                break
            survivors = np.flatnonzero(~lone)
            sub, inner = sub.subgraph(survivors)
            keep = keep[inner]
        if sub is None or sub.num_vertices == 0:
            continue

        # ---- forward/backward reachability from a pivot ----------------
        pivot = 0  # lowest remaining id: makes labels the SCC minima
        fwd = _reachable(sub, pivot, machines, engine, local_threshold, totals)
        bwd = _reachable(
            sub.reverse(), pivot, machines, engine, local_threshold, totals
        )
        scc = fwd & bwd
        labels[keep[scc]] = int(keep[scc].min())

        for mask in (fwd & ~scc, bwd & ~scc, ~fwd & ~bwd):
            part = keep[mask]
            if part.size:
                worklist.append(part)

    totals.converged = bool(np.all(labels >= 0))
    return labels.astype(np.float64), totals


def scc_reference(graph: DiGraph) -> np.ndarray:
    """Tarjan-style SCC labels (iterative), labels = per-SCC minimum id."""
    n = graph.num_vertices
    indptr, eids = graph.out_csr()
    dst = graph.dst
    index = np.full(n, -1, dtype=np.int64)
    low = np.zeros(n, dtype=np.int64)
    on_stack = np.zeros(n, dtype=bool)
    comp = np.full(n, -1, dtype=np.int64)
    stack: List[int] = []
    counter = 0

    for root in range(n):
        if index[root] != -1:
            continue
        # iterative Tarjan: (vertex, next-edge-cursor) call frames
        frames: List[Tuple[int, int]] = [(root, 0)]
        while frames:
            v, cursor = frames[-1]
            if cursor == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack[v] = True
            advanced = False
            out = eids[indptr[v] : indptr[v + 1]]
            while cursor < out.size:
                w = int(dst[out[cursor]])
                cursor += 1
                if index[w] == -1:
                    frames[-1] = (v, cursor)
                    frames.append((w, 0))
                    advanced = True
                    break
                if on_stack[w]:
                    low[v] = min(low[v], index[w])
            if advanced:
                continue
            frames.pop()
            if low[v] == index[v]:
                members = []
                while True:
                    w = stack.pop()
                    on_stack[w] = False
                    members.append(w)
                    if w == v:
                        break
                label = min(members)
                for w in members:
                    comp[w] = label
            if frames:
                parent = frames[-1][0]
                low[parent] = min(low[parent], low[v])
    return comp.astype(np.float64)
