"""The greedy vertex-cut loop as it stood before the streamed integer-key
rewrite (commit ``55fd395``), kept as the readable oracle.

``_least_loaded_in_mask`` and ``_greedy_cut`` are verbatim copies — do
not tidy them. The two front-ends below them are that commit's too,
docstrings dropped. ``tests/property/test_partition_props.py`` requires
``repro.partition``'s placements to equal these element for element, and
the digests in ``tests/unit/test_placement_pins.py`` were recorded by
running this code.
"""

from __future__ import annotations

from itertools import repeat
from typing import Iterable

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike, make_rng

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
    rng = make_rng(seed)
    n_edges = graph.num_edges
    edges = rng.permutation(n_edges).tolist() if shuffle_edges else range(n_edges)
    return _greedy_cut(
        "coordinated_cut", graph, num_machines, rng, balance_slack,
        edges, repeat(0), 1,
    )


def oblivious_cut(
    graph: DiGraph,
    num_machines: int,
    seed: SeedLike = None,
    balance_slack: float = 0.10,
) -> np.ndarray:
    n_edges = graph.num_edges
    # contiguous chunks, visited round-robin (loaders run in parallel;
    # interleaving approximates their concurrent progress)
    bounds = np.linspace(0, n_edges, num_machines + 1).astype(np.int64)
    loader = np.repeat(np.arange(num_machines), np.diff(bounds))
    turn = np.arange(n_edges) - bounds[loader]
    edges = np.lexsort((loader, turn))
    return _greedy_cut(
        "oblivious_cut", graph, num_machines, make_rng(seed), balance_slack,
        edges.tolist(), loader[edges].tolist(), num_machines,
    )
