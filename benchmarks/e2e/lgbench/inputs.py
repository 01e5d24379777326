"""Seeded inputs: graphs, the query script and the mutation stream.

Everything the program receives is generated here from ``--seed``; the
same seed gives the same inputs. ``quick`` shrinks every graph for the
tests — quick numbers are never reported.
"""

from __future__ import annotations

import hashlib
from typing import List, Tuple

import numpy as np

from repro.graph.generators import (
    attach_uniform_weights,
    powerlaw_graph,
    road_grid_graph,
)
from repro.graph.mutation import MutationBatch

__all__ = [
    "pagerank_graph", "road_graph", "service_graph", "query_script",
    "mutation_stream", "graph_sha256",
]

#: serve_mix: algorithm shares and source popularity
QUERY_MIX = (("bfs", 0.5), ("ppr", 0.3), ("sssp", 0.2))
HOT_SET = 16
HOT_SHARE = 0.7
POOL_STRIDE = 37
#: dynamic_stream: edge removals and insertions per batch
BATCH_EDGES = 16


def pagerank_graph(seed: int, quick: bool):
    if quick:
        return powerlaw_graph(3_000, 24_000, seed=seed)
    return powerlaw_graph(50_000, 600_000, seed=seed)


def road_graph(seed: int, quick: bool):
    side = 40 if quick else 150
    graph = road_grid_graph(side, side, seed=seed)
    return attach_uniform_weights(graph, seed=seed)


def service_graph(seed: int, quick: bool):
    """The graph serve_mix and dynamic_stream both run on."""
    if quick:
        return powerlaw_graph(2_000, 12_000, seed=seed)
    return powerlaw_graph(20_000, 150_000, seed=seed)


def graph_sha256(graph) -> str:
    """Identity of a generated graph: a generator change shows as an
    input change, not as a speed-up."""
    h = hashlib.sha256()
    for a in (graph.src, graph.dst, graph.weights):
        if a is None:
            h.update(b"none")
        else:
            a = np.ascontiguousarray(a)
            h.update(str(a.dtype).encode())
            h.update(a.tobytes())
    return h.hexdigest()


def _exact_counts(shares: List[float], total: int) -> List[int]:
    """Integers in proportion to ``shares`` that sum to ``total``."""
    exact = [share * total for share in shares]
    counts = [int(x) for x in exact]
    by_remainder = sorted(
        range(len(exact)), key=lambda i: counts[i] - exact[i]
    )
    for i in by_remainder[:total - sum(counts)]:
        counts[i] += 1
    return counts


def query_script(
    num_vertices: int, seed: int, clients: int, per_round: int, rounds: int
) -> Tuple[List[int], List[List[Tuple[str, int]]]]:
    """The hot set, and one ``(algorithm, source)`` list per client.

    70 % of sources come from a 16-vertex hot set, 30 % uniformly from
    every 37th vertex id, so the key space (pool x 3 algorithms) is
    about 13 times the service's 128-entry LRU. Every block of
    ``per_round`` queries holds the mix exactly (for 40: 14/8/6 hot and
    6/4/2 pool bfs/ppr/sssp queries) in a seeded order, so the number
    of misses in a round does not move with the seed; which sources are
    asked, and when, does.
    """
    rng = np.random.default_rng([seed, 101])
    pool = np.arange(0, num_vertices, POOL_STRIDE)
    hot = rng.choice(pool, size=HOT_SET, replace=False)
    cells = [
        (name, is_hot, share * (HOT_SHARE if is_hot else 1.0 - HOT_SHARE))
        for is_hot in (True, False) for name, share in QUERY_MIX
    ]
    counts = _exact_counts([c[2] for c in cells], per_round)
    scripts = []
    for _ in range(clients):
        script: List[Tuple[str, int]] = []
        for _ in range(rounds):
            block = [
                (name, int(rng.choice(hot if is_hot else pool)))
                for (name, is_hot, _), n in zip(cells, counts)
                for _ in range(n)
            ]
            script.extend(block[i] for i in rng.permutation(len(block)))
        scripts.append(script)
    return [int(v) for v in hot], scripts


def mutation_stream(graph, seed: int, num_batches: int) -> List[MutationBatch]:
    """Batches of 16 edge removals + 16 insertions, valid in order.

    Removed edges are drawn without replacement from the original
    graph's distinct ``(src, dst)`` pairs (``remove_edge`` drops every
    parallel copy), so each is still present when its batch arrives;
    insertions are uniform endpoint pairs (a parallel copy of an
    existing edge is a legal insertion).
    """
    rng = np.random.default_rng([seed, 202])
    n = graph.num_vertices
    _, distinct = np.unique(
        graph.src.astype(np.int64) * n + graph.dst, return_index=True
    )
    removed = rng.choice(
        distinct, size=num_batches * BATCH_EDGES, replace=False
    )
    batches = []
    for b in range(num_batches):
        batch = MutationBatch()
        for e in removed[b * BATCH_EDGES:(b + 1) * BATCH_EDGES].tolist():
            batch.remove_edge(int(graph.src[e]), int(graph.dst[e]))
        ends = rng.integers(0, n, size=(BATCH_EDGES, 2))
        for u, v in ends.tolist():
            if u == v:
                v = (v + 1) % n
            batch.add_edge(u, v)
        batches.append(batch)
    return batches
