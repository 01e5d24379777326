"""Property tests: cost-structure invariants on random workloads."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConnectedComponentsProgram, SSSPProgram
from repro.core import LazyBlockAsyncEngine
from repro.graph.digraph import DiGraph
from repro.partition.base import partition_graph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.powergraph import PowerGraphSyncEngine


@st.composite
def workload(draw):
    n = draw(st.integers(4, 24))
    m = draw(st.integers(3, 60))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(
        st.lists(
            st.floats(min_value=0.5, max_value=3.0, allow_nan=False),
            min_size=m,
            max_size=m,
        )
    )
    graph = DiGraph(n, np.asarray(src), np.asarray(dst), np.asarray(w))
    machines = draw(st.integers(2, 5))
    seed = draw(st.integers(0, 200))
    asg = partition_graph(graph, machines, "random", seed=seed)
    return graph, PartitionedGraph.build(graph, asg, machines)


@given(data=workload())
@settings(max_examples=25, deadline=None)
def test_sync_cost_structure_always_holds(data):
    graph, pg = data
    r = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
    assert r.stats.global_syncs == 3 * r.stats.supersteps + 1
    assert r.stats.comm_rounds == 2 * r.stats.supersteps + 1
    assert r.stats.comm_bytes == r.stats.comm_messages * 16


@given(data=workload())
@settings(max_examples=25, deadline=None)
def test_lazy_never_syncs_more(data):
    graph, pg = data
    sync = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
    lazy = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
    assert lazy.stats.global_syncs <= sync.stats.global_syncs
    assert lazy.stats.global_syncs == lazy.stats.coherency_points


@given(data=workload())
@settings(max_examples=25, deadline=None)
def test_time_breakdown_always_sums(data):
    graph, pg = data
    sym = graph.symmetrized()
    asg = partition_graph(sym, pg.num_machines, "random", seed=1)
    pg_sym = PartitionedGraph.build(sym, asg, pg.num_machines)
    r = LazyBlockAsyncEngine(pg_sym, ConnectedComponentsProgram()).run()
    total = r.stats.compute_time_s + r.stats.comm_time_s + r.stats.sync_time_s
    assert abs(total - r.stats.modeled_time_s) < 1e-12
    assert r.stats.compute_skew >= 1.0
