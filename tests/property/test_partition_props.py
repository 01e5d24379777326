"""Property tests: partitioning invariants on random graphs."""

import sys
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.partition.base import partition_graph
from repro.partition.coordinated_cut import coordinated_cut
from repro.partition.oblivious_cut import oblivious_cut
from repro.partition.partitioned_graph import PartitionedGraph
from tests import greedy_cut_oracle as oracle


@st.composite
def random_graph(draw, max_vertices=30, max_edges=80):
    n = draw(st.integers(2, max_vertices))
    m = draw(st.integers(1, max_edges))
    src = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    dst = draw(
        st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    )
    return DiGraph(n, np.asarray(src), np.asarray(dst))


@given(
    graph=random_graph(),
    machines=st.integers(1, 6),
    method=st.sampled_from(["random", "grid", "coordinated", "hybrid", "edge"]),
    seed=st.integers(0, 100),
)
@settings(max_examples=40, deadline=None)
def test_partition_invariants(graph, machines, method, seed):
    assignment = partition_graph(graph, machines, method, seed=seed)
    pg = PartitionedGraph.build(graph, assignment, machines)
    pg.validate()  # every placement invariant, including master/replica
    assert pg.replication_factor >= 1.0
    assert pg.replication_factor <= machines
    # λ counted independently: a replica per distinct (endpoint,
    # machine) pair, and one per edge-less vertex
    pairs = {
        (int(v), int(m))
        for end in (graph.src, graph.dst)
        for v, m in zip(end, assignment)
    }
    lonely = graph.num_vertices - len({v for v, _ in pairs})
    assert pg.replication_factor == (len(pairs) + lonely) / graph.num_vertices


@given(
    graph=random_graph(max_vertices=20, max_edges=40),
    machines=st.integers(2, 5),
    n_parallel=st.integers(0, 10),
    seed=st.integers(0, 50),
)
@settings(max_examples=40, deadline=None)
def test_parallel_edge_dispatch_invariants(graph, machines, n_parallel, seed):
    assignment = partition_graph(graph, machines, "random", seed=seed)
    rng = np.random.default_rng(seed)
    n_parallel = min(n_parallel, graph.num_edges)
    parallel = rng.choice(graph.num_edges, size=n_parallel, replace=False)
    pg = PartitionedGraph.build(graph, assignment, machines, parallel_eids=parallel)
    pg.validate()
    # the dispatch rule: source spans at least the target's machines
    for e in parallel:
        s, t = int(graph.src[e]), int(graph.dst[e])
        assert set(pg.replicas_of(t)) <= set(pg.replicas_of(s))


def _reference_build(graph, assignment, machines, parallel):
    """``PartitionedGraph.build``'s rules spelled out per vertex and per
    edge with Python sets — the loop the pair-table version replaced.

    Returns ``(hosts per vertex, master per vertex, edge ids per
    machine)``.
    """
    from collections import Counter

    from repro.partition.partitioned_graph import _HOME_SEED
    from repro.utils.rng import derive_seed

    parallel = sorted(int(e) for e in parallel)
    edges = list(zip(graph.src.tolist(), graph.dst.tolist()))
    hosts = [set() for _ in range(graph.num_vertices)]
    score = Counter()
    for e, (s, t) in enumerate(edges):
        if e not in parallel:
            m = int(assignment[e])
            hosts[s].add(m)
            hosts[t].add(m)
            score[s, m] += 1
            score[t, m] += 1
    for v, on in enumerate(hosts):
        if not on:
            on.add(derive_seed(_HOME_SEED, str(v)) % machines)
    changed = True
    while changed:  # dispatch fixpoint, Gauss-Seidel in edge-id order
        changed = False
        for e in parallel:
            s, t = edges[e]
            if not hosts[t] <= hosts[s]:
                hosts[s] |= hosts[t]
                changed = True
    # most one-edge incident edges; max() keeps the first (lowest) of ties
    master = [
        max(sorted(on), key=lambda m, v=v: score[v, m])
        for v, on in enumerate(hosts)
    ]
    # the local edge order: by source (local ids rank global ones), and
    # within one source in placement order — one-edge edges, then
    # parallel copies, each by edge id (sorted() is stable)
    machine_eids = [
        sorted(
            [e for e in range(len(edges))
             if e not in parallel and assignment[e] == m]
            + [e for e in parallel if m in hosts[edges[e][1]]],
            key=lambda e: edges[e][0],
        )
        for m in range(machines)
    ]
    return hosts, master, machine_eids


@given(
    graph=random_graph(max_vertices=14, max_edges=40),
    machines=st.integers(1, 5),
    n_parallel=st.integers(0, 25),
    seed=st.integers(0, 50),
)
@settings(max_examples=120, deadline=None)
def test_build_matches_the_per_vertex_reference(
    graph, machines, n_parallel, seed
):
    assignment = partition_graph(graph, machines, "random", seed=seed)
    rng = np.random.default_rng(seed)
    parallel = rng.choice(
        graph.num_edges, size=min(n_parallel, graph.num_edges), replace=False
    )
    pg = PartitionedGraph.build(
        graph, assignment, machines, parallel_eids=parallel
    )
    pg.validate()
    hosts, master, machine_eids = _reference_build(
        graph, assignment, machines, parallel
    )
    assert [pg.replicas_of(v).tolist() for v in range(graph.num_vertices)] \
        == [sorted(on) for on in hosts]
    assert pg.num_replicas.tolist() == [len(on) for on in hosts]
    assert pg.master_of.tolist() == master
    for m, mg in enumerate(pg.machines):
        assert mg.vertices.tolist() == [
            v for v, on in enumerate(hosts) if m in on
        ]
        assert mg.eglobal.tolist() == machine_eids[m]
        assert mg.is_master.tolist() == [master[v] == m for v in mg.vertices]
        assert mg.eparallel.tolist() == [
            e in set(parallel.tolist()) for e in mg.eglobal.tolist()
        ]


@st.composite
def multigraph(draw, max_vertices=25, max_edges=120):
    """Any edge list at all: self-loops, repeats, isolated vertices,
    no edges, fewer edges than machines."""
    n = draw(st.integers(1, max_vertices))
    m = draw(st.integers(0, max_edges))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    return DiGraph(
        n,
        np.asarray(draw(ends), dtype=np.int64),
        np.asarray(draw(ends), dtype=np.int64),
    )


# the module, not the function of the same name the package re-exports
_cut_module = sys.modules["repro.partition.coordinated_cut"]

_FRONT_ENDS = {
    "coordinated": (
        coordinated_cut, oracle.coordinated_cut, {},
    ),
    "coordinated-shuffled": (
        coordinated_cut, oracle.coordinated_cut, {"shuffle_edges": True},
    ),
    "oblivious": (oblivious_cut, oracle.oblivious_cut, {}),
}


@given(
    graph=multigraph(),
    # both sides of the candidate-table cut-off, then one-word and
    # big-int masks
    machines=st.one_of(st.integers(1, 14), st.integers(1, 70)),
    slack=st.sampled_from([0.0, 0.1, 1.0]),
    front_end=st.sampled_from(sorted(_FRONT_ENDS)),
    chunk=st.sampled_from([1, 7, _cut_module._CHUNK_EDGES]),
    seed=st.integers(0, 100),
)
@settings(max_examples=300, deadline=None)
def test_greedy_cut_matches_the_previous_loop(
    graph, machines, slack, front_end, chunk, seed
):
    new, old, kwargs = _FRONT_ENDS[front_end]
    with mock.patch.object(_cut_module, "_CHUNK_EDGES", chunk):
        got = new(graph, machines, seed=seed, balance_slack=slack, **kwargs)
    want = old(graph, machines, seed=seed, balance_slack=slack, **kwargs)
    assert got.dtype == np.int32
    assert got.tolist() == want.tolist()
