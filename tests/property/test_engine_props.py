"""Property tests: engine equivalence under randomized layouts.

Random graphs × random parallel-edge selections × both lazy engines —
the §3.5 theorem must survive every layout the splitter can produce.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    BFSProgram,
    KCoreProgram,
    SSSPProgram,
    bfs_reference,
    kcore_reference,
    sssp_reference,
)
from repro.core import (
    CoherencyPolicy,
    LazyBlockAsyncEngine,
    LazyVertexAsyncEngine,
)
from repro.graph.digraph import DiGraph
from repro.partition.base import partition_graph
from repro.partition.partitioned_graph import PartitionedGraph


@st.composite
def graph_and_layout(draw):
    n = draw(st.integers(4, 22))
    m = draw(st.integers(3, 50))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=5.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    graph = DiGraph(n, np.asarray(src), np.asarray(dst), np.asarray(w))
    machines = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 500))
    n_par = draw(st.integers(0, min(8, m)))
    rng = np.random.default_rng(seed)
    parallel = rng.choice(m, size=n_par, replace=False)
    asg = partition_graph(graph, machines, "random", seed=seed)
    pg = PartitionedGraph.build(graph, asg, machines, parallel_eids=parallel)
    return graph, pg


@given(data=graph_and_layout(), source=st.integers(0, 3))
@settings(max_examples=25, deadline=None)
def test_lazy_block_sssp_with_random_parallel_edges(data, source):
    graph, pg = data
    r = LazyBlockAsyncEngine(pg, SSSPProgram(source)).run()
    ref = sssp_reference(graph, source)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(r.values), finite)
    assert np.allclose(r.values[finite], ref[finite])
    assert r.replica_max_disagreement == 0.0


@given(data=graph_and_layout(), k=st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_lazy_block_kcore_with_random_parallel_edges(data, k):
    graph, pg = data
    # k-core semantics need the symmetric graph; rebuild the layout on it
    sym = graph.symmetrized()
    asg = partition_graph(sym, pg.num_machines, "random", seed=3)
    n_par = min(5, sym.num_edges)
    parallel = np.arange(n_par)
    pg_sym = PartitionedGraph.build(
        sym, asg, pg.num_machines, parallel_eids=parallel
    )
    r = LazyBlockAsyncEngine(pg_sym, KCoreProgram(k=k)).run()
    assert np.array_equal(r.values, kcore_reference(sym, k))


@given(data=graph_and_layout(), age=st.integers(1, 5))
@settings(max_examples=25, deadline=None)
def test_lazy_vertex_bfs_any_delta_age(data, age):
    graph, pg = data
    r = LazyVertexAsyncEngine(
        pg, BFSProgram(0), policy=CoherencyPolicy(max_delta_age=age)
    ).run()
    ref = bfs_reference(graph, 0)
    finite = np.isfinite(ref)
    assert np.array_equal(np.isfinite(r.values), finite)
    assert np.allclose(r.values[finite], ref[finite])
