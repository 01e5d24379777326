"""λ drift over long mutation streams, against a cold cut of the result.

Every added edge is placed by the same greedy cascade a cold cut runs,
resumed from the carried cut, and nothing ever re-cuts the carried
partition. On a uniform stream λ must stay close to where it started;
on a stream whose communities drift, λ rises, and the carried cut must
still end no worse than a cold cut of the session's final graph.
"""

import numpy as np

from repro.algorithms.registry import make_program
from repro.core.transmission import build_lazy_graph
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_graph
from repro.graph.mutation import MutationBatch
from repro.session import GraphSession

MACHINES = 8
BATCHES = 48
BATCH_EDGES = 16  # removals and insertions each
#: measured λ drift after the stream below: 1.94 % with the previous
#: mutation-time rule (per edge, no capacity, no same-batch replicas),
#: 2.00 % with the resumed cascade; the bound leaves ~30 % headroom
#: over the former (placing the insertions at random drifts 8.3 %)
MAX_DRIFT = 0.025


def _stream(graph, seed):
    """Batches of distinct-pair removals plus uniform insertions."""
    rng = np.random.default_rng([seed, 202])
    n = graph.num_vertices
    _, distinct = np.unique(
        graph.src.astype(np.int64) * n + graph.dst, return_index=True
    )
    removed = rng.choice(distinct, size=BATCHES * BATCH_EDGES, replace=False)
    for b in range(BATCHES):
        batch = MutationBatch()
        for e in removed[b * BATCH_EDGES:(b + 1) * BATCH_EDGES].tolist():
            batch.remove_edge(int(graph.src[e]), int(graph.dst[e]))
        for u, v in rng.integers(0, n, size=(BATCH_EDGES, 2)).tolist():
            batch.add_edge(u, v if u != v else (v + 1) % n)
        yield batch


def test_lambda_drift_over_a_long_stream_is_bounded():
    graph = powerlaw_graph(4_000, 30_000, seed=1)
    with GraphSession.open(graph, machines=MACHINES, seed=1) as session:
        lam0 = session.partitioned(make_program("bfs")).replication_factor
        for batch in _stream(graph, seed=1):
            applied = session.apply(batch)
        assert session.graph_version == BATCHES
        drift = applied.worst_lambda / lam0 - 1.0
    assert 0.0 < drift <= MAX_DRIFT, drift


# a planted partition whose communities trade members batch by batch
VERTICES = 4_000
COMMUNITIES = 64  # contiguous id ranges
INTRA_DEGREE = 8  # out-edges per vertex into its own community
NOISE_EDGES = VERTICES // 2  # uniform random edges across the graph
COMMUNITY_MACHINES = 16
MOVERS = 40  # vertices that change community per batch (1 %)


def _planted_partition(rng):
    """The graph and each vertex's community."""
    community = np.arange(VERTICES) * COMMUNITIES // VERTICES
    first = np.searchsorted(community, community)
    size = np.searchsorted(community, community, side="right") - first
    src = np.repeat(np.arange(VERTICES), INTRA_DEGREE)
    dst = first[src] + (rng.random(src.size) * size[src]).astype(np.int64)
    src = np.concatenate([src, rng.integers(0, VERTICES, NOISE_EDGES)])
    dst = np.concatenate([dst, rng.integers(0, VERTICES, NOISE_EDGES)])
    keep = src != dst
    pairs = np.unique(src[keep] * VERTICES + dst[keep])
    return DiGraph(VERTICES, pairs // VERTICES, pairs % VERTICES), community


def _moves(graph, community, rng):
    """One batch: each mover loses its edges into its old community and
    gains as many, in random directions, into a new one (whose other
    members stay put this batch). Updates ``community``."""
    movers = rng.choice(VERTICES, MOVERS, replace=False)
    moving = np.zeros(VERTICES, dtype=bool)
    moving[movers] = True
    src, dst = graph.src.astype(np.int64), graph.dst.astype(np.int64)
    inside = community[src] == community[dst]
    lost = inside & (moving[src] | moving[dst])
    batch = MutationBatch().remove_edges(
        zip(src[lost].tolist(), dst[lost].tolist())
    )
    degree = np.bincount(src[lost & moving[src]], minlength=VERTICES)
    degree += np.bincount(dst[lost & moving[dst]], minlength=VERTICES)
    for v in movers.tolist():
        # any community but its own
        community[v] += 1 + rng.integers(COMMUNITIES - 1)
        community[v] %= COMMUNITIES
        members = np.flatnonzero((community == community[v]) & ~moving)
        count = min(degree[v], members.size)
        for w in rng.choice(members, count, replace=False).tolist():
            batch.add_edge(*((v, w) if rng.random() < 0.5 else (w, v)))
    return batch


def test_carried_cut_ends_below_a_cold_cut_on_drifting_communities():
    """Measured at seed 1: λ 3.62 → 4.65 (+28.5 %), and a cold cut of
    the final graph gives 4.99 (seeds 2 and 3: 4.69 vs 5.03, 4.64 vs
    4.94). The cold cut streams the session's layout, kept edges then
    each batch's additions; the same edges sorted by source cut to
    3.35. Without the noise edges the communities stay clean and the
    carried cut ends at 4.17 against a cold cut's 1.89."""
    rng = np.random.default_rng(1)
    graph, community = _planted_partition(rng)
    program = make_program("bfs")
    with GraphSession.open(
        graph, machines=COMMUNITY_MACHINES, seed=1
    ) as session:
        lam0 = session.partitioned(program).replication_factor
        for _ in range(BATCHES):
            graph = session.partitioned(program).graph
            session.apply(_moves(graph, community, rng))
        final = session.partitioned(program)
        carried = final.replication_factor
    cold = build_lazy_graph(
        final.graph, COMMUNITY_MACHINES, seed=1
    ).replication_factor
    assert carried / lam0 - 1.0 > 0.10, (lam0, carried)
    assert carried <= cold, (carried, cold)
