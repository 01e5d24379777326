"""Coordinated greedy vertex-cut (PowerGraph's "coordinated" heuristic).

Edges are placed one at a time; the placement of edge ``(u, v)`` consults
the sets ``A(u)``, ``A(v)`` of machines that already host a replica of
each endpoint (global knowledge — the *coordinated* variant; the
*oblivious* variant, :mod:`repro.partition.oblivious_cut`, runs the same
loop, :func:`_greedy_cut`, over per-loader approximations):

1. if ``A(u) ∩ A(v)`` is non-empty → least-loaded machine in the
   intersection (no new replica);
2. elif both are non-empty → least-loaded machine in the candidate set of
   the endpoint with more remaining unplaced edges (spreads the
   high-degree vertex, PowerGraph rule);
3. elif exactly one is non-empty → least-loaded machine in it;
4. else → least-loaded machine overall.

The paper evaluates everything under this partitioner (§5.1), so it is
the default throughout the library. Machine sets are kept as Python int
bitmasks (P <= ~512), which makes the inherently sequential greedy loop
cheap enough for the mini datasets.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike, make_rng

__all__ = ["coordinated_cut"]

_MAX_MACHINES = 1024


def _least_loaded_in_mask(loads: np.ndarray, mask: int, order: np.ndarray) -> int:
    """Least-loaded machine whose bit is set in ``mask``.

    ``order`` is a fixed random permutation used for deterministic tie
    breaking that doesn't always favour low machine ids.
    """
    best = -1
    best_load = None
    m = mask
    while m:
        low = m & -m
        i = low.bit_length() - 1
        m ^= low
        load = (loads[i], order[i])
        if best_load is None or load < best_load:
            best_load = load
            best = i
    return best


def _greedy_cut(
    name: str,
    graph: DiGraph,
    num_machines: int,
    rng: np.random.Generator,
    balance_slack: float,
    edges: Iterable[int],
    loaders: Iterable[int],
    num_loaders: int,
) -> np.ndarray:
    """The one greedy placement loop behind both vertex-cut variants.

    ``edges`` is the visiting order and ``loaders`` names, per visited
    edge, whose private ``A(v)`` map the rules consult and update.
    Coordinated placement is the one-loader case (every edge sees the
    single global map); oblivious placement gives each loading machine
    its own. Loads, capacity and the remaining-degree counts are global
    in both. The tie-break permutation is drawn here, after whatever the
    caller drew for its visiting order.
    """
    if num_machines > _MAX_MACHINES:
        raise PartitionError(
            f"{name} supports up to {_MAX_MACHINES} machines, got {num_machines}"
        )
    n_edges = graph.num_edges
    if n_edges == 0:
        return np.empty(0, dtype=np.int32)

    tie_order = rng.permutation(num_machines)
    loads = np.zeros(num_machines, dtype=np.int64)
    all_mask = (1 << num_machines) - 1
    capacity = max(1, int((1.0 + balance_slack) * n_edges / num_machines))
    open_mask = all_mask  # machines with remaining capacity

    placed = [[0] * graph.num_vertices for _ in range(num_loaders)]  # A(v) bitmasks
    remaining = graph.degrees().tolist()

    src, dst = graph.src, graph.dst
    assignment = np.empty(n_edges, dtype=np.int32)
    for e, mine in zip(edges, map(placed.__getitem__, loaders)):
        u, v = int(src[e]), int(dst[e])
        au, av = mine[u], mine[v]
        inter = au & av & open_mask
        auo, avo = au & open_mask, av & open_mask
        if inter:
            m = _least_loaded_in_mask(loads, inter, tie_order)
        elif auo and avo:
            cand = auo if remaining[u] >= remaining[v] else avo
            m = _least_loaded_in_mask(loads, cand, tie_order)
        elif auo or avo:
            m = _least_loaded_in_mask(loads, auo | avo, tie_order)
        else:
            m = _least_loaded_in_mask(loads, open_mask or all_mask, tie_order)
        assignment[e] = m
        bit = 1 << m
        mine[u] = au | bit
        mine[v] = av | bit
        loads[m] += 1
        if loads[m] >= capacity:
            open_mask &= ~bit
        remaining[u] -= 1
        remaining[v] -= 1
    return assignment


def coordinated_cut(
    graph: DiGraph,
    num_machines: int,
    seed: SeedLike = None,
    shuffle_edges: bool = False,
    balance_slack: float = 0.10,
) -> np.ndarray:
    """Greedy coordinated vertex-cut assignment.

    Parameters
    ----------
    shuffle_edges:
        Process edges in a seeded random order instead of file order.
        Default False: real deployments load the edge list in contiguous
        chunks, and for crawl-ordered web graphs and DFS-ordered road
        graphs that order carries the locality the greedy heuristic
        exploits (the paper's low Table 1 λ for those classes depends on
        it). Shuffling is the pessimistic ablation.
    balance_slack:
        Capacity headroom ε: a machine whose load exceeds
        ``(1+ε)·E/P`` is removed from candidate sets (the placement
        falls back through rules 2→4 and ultimately to the least-loaded
        machine overall). This is the balance constraint every practical
        vertex-cut enforces; without it the pure greedy rules snowball
        an entire locality-ordered graph onto one machine.
    """
    rng = make_rng(seed)
    n_edges = graph.num_edges
    edges = rng.permutation(n_edges).tolist() if shuffle_edges else range(n_edges)
    return _greedy_cut(
        "coordinated_cut", graph, num_machines, rng, balance_slack,
        edges, repeat(0), 1,
    )
