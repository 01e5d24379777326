"""Property tests: a spliced partition is the partition ``build`` makes.

:meth:`~repro.partition.partitioned_graph.PartitionedGraph.splice`
carries a partition across a graph patch without a build. Over random
graphs (parallel copies, self-loops, weighted or not), random
placements on P in {1, 3, 8} machines and chains of one to three
random batches (edge removals, vertex removals, added vertices, added
edges that give an isolated vertex its first edge), each spliced
partition must equal ``PartitionedGraph.build`` on the patched graph
and the carried ++ placed assignment field by field: every flat array
with its dtype and read-only flag, the replica table, ``master_of``,
``num_replicas``, ``assignment`` and every block span. Its census of
unchanged machines must be the ``array_equal`` one. Each named case
(removals, insertions, parallel copies, added vertices, a vertex that
loses its last edge, an isolated one that gains one, self-loops, a
vertex removal) is also run as is, weighted and not, on 1, 3 and 8
machines. The splice index and shift table under it must agree with
``np.delete`` then ``np.insert``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.mutation import MutationBatch, apply_batch
from repro.partition.partitioned_graph import (
    PartitionedGraph,
    _splice_index,
    _splice_shift,
)

TABLE = (
    "master_of", "rep_indptr", "rep_machines", "rep_local_idx",
    "num_replicas", "assignment", "parallel_eids",
)
SPAN = (
    "vertices", "is_master", "esrc", "edst", "eweight", "eparallel",
    "eglobal", "out_deg_global", "num_replicas", "machine_offsets",
)


def assert_same_array(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, what
    assert got.flags.writeable == want.flags.writeable, what
    np.testing.assert_array_equal(got, want, err_msg=what)


def assert_same_partition(got: PartitionedGraph, want: PartitionedGraph):
    assert got.num_machines == want.num_machines
    assert got.graph is want.graph
    assert got.extra_stats == want.extra_stats
    for name in TABLE:
        assert_same_array(getattr(got, name), getattr(want, name), name)
    assert got._flat.keys() == want._flat.keys()
    for name in want._flat:
        assert_same_array(got._flat[name], want._flat[name], name)
    for spans in ("machines", "blocks"):
        mine, theirs = getattr(got, spans), getattr(want, spans)
        assert [s.machine_id for s in mine] == [s.machine_id for s in theirs]
        for a, b in zip(mine, theirs):
            for name in SPAN:
                assert_same_array(
                    getattr(a, name), getattr(b, name),
                    f"{spans}[{a.machine_id}].{name}",
                )


def census(old: PartitionedGraph, new: PartitionedGraph) -> list:
    """The machines whose local graph a patch left as it was."""
    return [
        m for m, (a, b) in enumerate(zip(old.machines, new.machines))
        if np.array_equal(a.vertices, b.vertices)
        and np.array_equal(a.esrc, b.esrc)
        and np.array_equal(a.edst, b.edst)
    ]


@st.composite
def graphs(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(0, 30))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(draw(st.lists(
            st.sampled_from((1.0, 2.5, 4.0)), min_size=m, max_size=m
        )))
    return DiGraph(
        n, np.asarray(draw(ends), dtype=np.int64),
        np.asarray(draw(ends), dtype=np.int64), weights,
    )


def draw_batch(draw, graph: DiGraph) -> MutationBatch:
    """A random batch valid against ``graph``."""
    batch = MutationBatch().add_vertices(draw(st.integers(0, 2)))
    n_after = graph.num_vertices + batch.num_added_vertices
    present = sorted(set(zip(graph.src.tolist(), graph.dst.tolist())))
    if present:
        batch.remove_edges(draw(
            st.lists(st.sampled_from(present), max_size=6, unique=True)
        ))
    batch.remove_vertices(draw(
        st.lists(st.integers(0, graph.num_vertices - 1), max_size=1)
    ))
    ends = st.integers(0, n_after - 1)
    batch.add_edges(draw(st.lists(st.tuples(ends, ends), max_size=8)))
    return batch


@given(data=st.data(), graph=graphs(), machines=st.sampled_from((1, 3, 8)))
@settings(max_examples=250, deadline=None)
def test_splice_equals_build(data, graph, machines):
    draw = data.draw
    machine = st.integers(0, machines - 1)
    assignment = np.asarray(
        draw(st.lists(machine, min_size=graph.num_edges,
                      max_size=graph.num_edges)),
        dtype=np.int64,
    )
    pgraph = PartitionedGraph.build(graph, assignment, machines)
    for _ in range(draw(st.integers(1, 3))):
        new_graph, diff = apply_batch(pgraph.graph, draw_batch(draw, pgraph.graph))
        placed = np.asarray(
            draw(st.lists(machine, min_size=diff.num_added,
                          max_size=diff.num_added)),
            dtype=np.int64,
        )
        spliced, unchanged = pgraph.splice(new_graph, diff, placed)
        want = PartitionedGraph.build(
            new_graph,
            np.concatenate([pgraph.assignment[diff.kept_eids], placed]),
            machines,
        )
        assert_same_partition(spliced, want)
        spliced.validate()
        assert unchanged == census(pgraph, want)
        pgraph = spliced


@given(data=st.data(), size=st.integers(0, 40))
@settings(max_examples=200, deadline=None)
def test_splice_index_is_delete_then_insert(data, size):
    deleted = np.asarray(sorted(data.draw(st.sets(
        st.integers(0, size - 1), max_size=size
    ))) if size else [], dtype=np.int64)
    at = np.sort(np.asarray(data.draw(st.lists(
        st.integers(0, size), max_size=12
    )), dtype=np.int64))
    old = np.arange(size)
    new = np.full(at.size, -1)  # the inserted entries, told apart
    # np.insert puts each new entry before old position at[j]: in the
    # kept array that is after the kept entries below at[j]
    want = np.insert(
        np.delete(old, deleted), at - np.searchsorted(deleted, at), new
    )
    take, dest = _splice_index(size, deleted, at)
    assert take.size == want.size
    got = old[take] if size else np.empty(take.size, dtype=old.dtype)
    got[dest] = new
    np.testing.assert_array_equal(got, want)
    kept = np.setdiff1d(old, deleted)
    shift = _splice_shift(size, deleted, at)
    np.testing.assert_array_equal(want[shift[kept]], kept)


def _base(weighted: bool) -> DiGraph:
    # 0→1 twice, a self-loop at 6, 3→4 twice, vertex 8's only edge 8→0,
    # vertex 9 isolated
    src = np.array([0, 0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 2], dtype=np.int64)
    dst = np.array([1, 1, 2, 3, 4, 4, 5, 6, 6, 0, 0, 7], dtype=np.int64)
    weights = np.arange(1.0, 13.0) if weighted else None
    return DiGraph(10, src, dst, weights)


CASES = {
    "removals": lambda b: b.remove_edges([(0, 1), (2, 3)]),
    "insertions": lambda b: b.add_edges([(1, 2), (4, 5), (7, 3)]),
    "parallel-copies": lambda b: b.add_edges([(0, 1), (0, 1)]).remove_edge(3, 4),
    "added-vertices": lambda b: b.add_vertices(2).add_edges([(10, 0), (2, 10)]),
    "last-edge-lost": lambda b: b.remove_edge(8, 0),
    "isolated-gains-one": lambda b: b.add_edge(9, 3),
    "self-loops": lambda b: b.add_edges([(5, 5), (9, 9)]).remove_edge(6, 6),
    "vertex-removal": lambda b: b.remove_vertex(0),
}


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("machines", [1, 3, 8])
@pytest.mark.parametrize("case", list(CASES))
def test_splice_cases(case, machines, weighted):
    graph = _base(weighted)
    pgraph = PartitionedGraph.build(
        graph, np.arange(graph.num_edges) % machines, machines
    )
    new_graph, diff = apply_batch(graph, CASES[case](MutationBatch()))
    placed = (np.arange(diff.num_added) * 5 + 1) % machines
    spliced, unchanged = pgraph.splice(new_graph, diff, placed)
    want = PartitionedGraph.build(
        new_graph,
        np.concatenate([pgraph.assignment[diff.kept_eids], placed]),
        machines,
    )
    assert_same_partition(spliced, want)
    spliced.validate()
    assert unchanged == census(pgraph, want)
