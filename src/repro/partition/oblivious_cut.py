"""Oblivious greedy vertex-cut (PowerGraph's distributed-loading variant).

The same greedy loop as :mod:`repro.partition.coordinated_cut`
(``_greedy_cut``, one rule cascade for both), but each loader sees only
its **own** placement history: the edge list is split
into ``num_machines`` contiguous chunks (one per loading machine), and
loader *i* maintains a private ``A_i(v)`` built only from the edges it
placed itself. No loader-to-loader coordination happens — the "oblivious"
trade-off: loading is embarrassingly parallel, the replication factor is
higher than coordinated-cut's (each loader re-discovers placements others
already made).

The front-end only builds the visiting order and the per-edge loader
ids, as arrays; ``_greedy_cut`` streams them chunk by chunk next to the
endpoints, and keeps the loaders' maps in one loader-major list.

Included for the partitioner ablation
(``benchmarks/bench_ablation_partitioners.py``): the paper evaluates on
coordinated-cut, and the gap to oblivious shows how much of the λ budget
that choice buys.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import DiGraph
from repro.partition.coordinated_cut import _BALANCE_SLACK, _check_cut_args, _greedy_cut
from repro.utils.rng import SeedLike, make_rng

__all__ = ["oblivious_cut"]


def oblivious_cut(
    graph: DiGraph,
    num_machines: int,
    seed: SeedLike = None,
    balance_slack: float = _BALANCE_SLACK,
) -> np.ndarray:
    """Greedy vertex-cut with per-loader (uncoordinated) placement state."""
    _check_cut_args("oblivious_cut", num_machines, balance_slack)
    n_edges = graph.num_edges
    # contiguous chunks, visited round-robin (loaders run in parallel;
    # interleaving approximates their concurrent progress)
    bounds = np.linspace(0, n_edges, num_machines + 1).astype(np.int64)
    loader = np.repeat(np.arange(num_machines), np.diff(bounds))
    turn = np.arange(n_edges) - bounds[loader]
    edges = np.lexsort((loader, turn))
    return _greedy_cut(
        graph, num_machines, make_rng(seed), balance_slack,
        edges, loader[edges], num_machines,
    )
