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
the default throughout the library — and every cold
:class:`~repro.session.GraphSession` pays for it once per topology.
Mutation-time edges run the same cascade: :func:`_greedy_cut`'s resume
entry (``loads=`` / ``masks=``) starts from the carried cut, which is
how :func:`~repro.partition.dynamic.patch_partition` places a batch.

The loop is inherently sequential: the rules keep loads balanced to a
fraction of a percent, so each arg-min depends on every earlier
placement and no chunk of edges can be placed ahead of the ones before
it. What it can be is cheap per edge. Machine sets are Python int
bitmasks (one bit per machine, so any ``P`` up to ``_MAX_MACHINES`` =
1024, the same bound :meth:`PartitionedGraph.build` has; past 64
machines they are multi-word ints and nothing else changes), "least
loaded, ties by a seeded permutation" is one int compare
(:func:`_greedy_cut`), and the edge list is streamed through the loop in
fixed-size chunks. ``docs/performance.md`` ("Cold set-up") has the
numbers, and the two forms of this loop that must not come back; the
loop it replaced is the oracle in ``tests/greedy_cut_oracle.py``.
"""

from __future__ import annotations

import math
from typing import List, Optional, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike, make_rng

__all__ = ["coordinated_cut"]

_MAX_MACHINES = 1024
#: edges turned into Python ints at a time; bounds the loop's transient
#: memory to the chunk, whatever the graph. Short on purpose: the lists
#: stay cache-sized (the ``tolist()`` / write-back skeleton is cheapest
#: at 2**11 .. 2**12) and resident memory stays at the old loop's
#: (docs/performance.md, "Cold set-up")
_CHUNK_EDGES = 1 << 11
#: up to this many machines a candidate mask indexes a ``2**P``-entry
#: table of its members; above it the set bits are scanned per edge
_TABLE_MAX_MACHINES = 12
#: capacity headroom ε, the default of every greedy placement
_BALANCE_SLACK = 0.10


def _check_cut_args(name: str, num_machines: int, balance_slack: float) -> None:
    """Reject what the greedy loop cannot place under, as the front-ends'
    first step (``partition_graph`` only checks ``num_machines >= 1``)."""
    if num_machines < 1:
        raise PartitionError(f"num_machines must be >= 1, got {num_machines}")
    if num_machines > _MAX_MACHINES:
        raise PartitionError(
            f"{name} supports up to {_MAX_MACHINES} machines, got {num_machines}"
        )
    if not (math.isfinite(balance_slack) and balance_slack >= 0):
        raise PartitionError(
            f"balance_slack must be finite and >= 0, got {balance_slack}"
        )


def _candidate_table(num_machines: int) -> List[Tuple[int, Tuple[int, ...]]]:
    """``table[mask]`` = (lowest machine in ``mask``, the other members)."""
    members: List[Tuple[int, ...]] = [()]
    for m in range(num_machines):
        members += [t + (m,) for t in members]
    table: List[Tuple[int, Tuple[int, ...]]] = [(-1, ())]  # mask 0: never read
    table += [(t[0], t[1:]) for t in members[1:]]
    return table


def _greedy_cut(
    graph: DiGraph,
    num_machines: int,
    rng: np.random.Generator,
    balance_slack: float,
    edges: Optional[np.ndarray],
    loaders: Optional[np.ndarray],
    num_loaders: int,
    *,
    loads: Optional[np.ndarray] = None,
    masks: Optional[List[int]] = None,
) -> np.ndarray:
    """The one greedy placement loop behind both vertex-cut variants.

    ``edges`` is the visiting order (edge ids; ``None`` = file order)
    and ``loaders`` names, per visited edge, whose private ``A(v)`` map
    the rules consult and update (``None`` = the one global map).
    Coordinated placement is the one-loader case; oblivious placement
    gives each loading machine its own. Loads, capacity and the
    remaining-degree counts are global in both. The tie-break
    permutation is drawn here, after whatever the caller drew for its
    visiting order.

    "Least loaded, ties by the permutation" is one integer per machine,
    ``key[m] = load * P + tie_rank[m]``: ranks are distinct and below
    ``P``, so comparing keys compares ``(load, rank)`` pairs exactly, a
    placement is ``key[m] += P`` and a machine is full once its key
    reaches ``capacity * P``. The per-edge body touches only Python
    ints: endpoints arrive ``_CHUNK_EDGES`` at a time through
    ``tolist()`` and placements leave through one array write per chunk.

    Resume entry: ``loads`` (edges per machine) and ``masks`` (each
    vertex's ``A(v)``) replace the cold start's zeros; capacity counts
    the carried edges, and a machine already full starts closed. Resume
    is single-loader only.
    """
    n_edges = graph.num_edges
    if n_edges == 0:
        return np.empty(0, dtype=np.int32)

    P = num_machines
    tie_rank = rng.permutation(P)
    carried = 0 if loads is None else int(loads.sum())
    key: List[int] = (tie_rank if loads is None else loads * P + tie_rank).tolist()
    machine_of_rank: List[int] = np.argsort(tie_rank).tolist()
    capacity = max(1, int((1.0 + balance_slack) * (carried + n_edges) / P))
    full = capacity * P
    above_all = (carried + n_edges + 1) * P  # no key gets here: load <= carried + n_edges
    open_mask = sum(1 << m for m, k in enumerate(key) if k < full)  # machines with room
    table = _candidate_table(P) if P <= _TABLE_MAX_MACHINES else None

    n = graph.num_vertices
    placed = [0] * (n * num_loaders) if masks is None else list(masks)  # A(v), loader-major
    remaining: List[int] = graph.degrees().tolist()

    src, dst = graph.src, graph.dst
    assignment = np.empty(n_edges, dtype=np.int32)
    for lo in range(0, n_edges, _CHUNK_EDGES):
        chunk = slice(lo, lo + _CHUNK_EDGES)
        ids = chunk if edges is None else edges[chunk]
        us: List[int] = src[ids].tolist()
        vs: List[int] = dst[ids].tolist()
        if loaders is None:
            slots_u, slots_v = us, vs
        else:
            offset = loaders[chunk] * n
            slots_u = (src[ids] + offset).tolist()
            slots_v = (dst[ids] + offset).tolist()
        out: List[int] = []
        for u, v, su, sv in zip(us, vs, slots_u, slots_v):
            au, av = placed[su], placed[sv]
            cand = au & av & open_mask  # rule 1
            if not cand:
                au_open, av_open = au & open_mask, av & open_mask
                if au_open and av_open:  # rule 2
                    cand = au_open if remaining[u] >= remaining[v] else av_open
                else:  # rule 3, or nothing: rule 4
                    cand = au_open | av_open
            if cand & (cand - 1):  # several candidates: least key wins
                if table is not None:
                    m, others = table[cand]
                    best = key[m]
                    for i in others:
                        k = key[i]
                        if k < best:
                            best = k
                            m = i
                else:
                    best = above_all
                    while cand:
                        low = cand & -cand
                        cand ^= low
                        i = low.bit_length() - 1
                        k = key[i]
                        if k < best:
                            best = k
                            m = i
            elif cand:
                m = cand.bit_length() - 1
            else:
                # rule 4, least loaded of the open machines (of all, once
                # none is open): open keys are exactly those below
                # ``full``, so either way it is the global minimum
                m = machine_of_rank[min(key) % P]
            out.append(m)
            bit = 1 << m
            placed[su] = au | bit
            placed[sv] = av | bit
            k = key[m] + P
            key[m] = k
            if k >= full:
                open_mask &= ~bit
            remaining[u] -= 1
            remaining[v] -= 1
        assignment[ids] = out
    return assignment


def coordinated_cut(
    graph: DiGraph,
    num_machines: int,
    seed: SeedLike = None,
    shuffle_edges: bool = False,
    balance_slack: float = _BALANCE_SLACK,
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
    _check_cut_args("coordinated_cut", num_machines, balance_slack)
    rng = make_rng(seed)
    edges = rng.permutation(graph.num_edges) if shuffle_edges else None
    return _greedy_cut(
        graph, num_machines, rng, balance_slack, edges, None, 1
    )
