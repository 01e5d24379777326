"""λ drift over a long mutation stream stays bounded without the valve.

Every added edge is placed by the same greedy cascade a cold cut runs,
resumed from the carried cut, so a stream of small batches must not
walk the replication factor away from the cold partition's. The
repartition valve stays off here: this is an assertion on the placement
rule itself, not on the knob that repairs it.
"""

import numpy as np

from repro.algorithms.registry import make_program
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
            assert not any(
                p.repartitioned_vertices for p in applied.patches.values()
            )
        assert session.graph_version == BATCHES
        drift = applied.worst_lambda / lam0 - 1.0
    assert 0.0 < drift <= MAX_DRIFT, drift
