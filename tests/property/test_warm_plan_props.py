"""Property tests: the batch-sized warm-start planner is the oracle's.

:func:`~repro.runtime.warm_start.plan_warm_start` plans an incremental
run from the batch and the resident partition, without whole-graph
views. ``tests/warm_plan_oracle.py`` keeps the planners and adapter
hooks it replaced. Over random graphs (parallel copies, self-loops,
weighted or not) on 1, 2 or 4 machines and chains of one to four
random batches — removals that drop every parallel copy of a pair,
parallel and self-loop insertions, added vertices, ``remove_vertex`` —
every plan a session makes for bfs, sssp (synthetic weights, or the
graph's own), cc (symmetrized), pagerank and ppr must equal the
oracle's byte for byte: the ``reseed`` mask, ``inject_idx``,
``inject_val``, every ``warm_state`` array, and each block's
``make_state`` and ``initial_messages``. Programs run incrementally at
random steps, so their fixpoints are one to four versions old; a named
chain covers ages 1, 2 and 3 for every program on 1 and 3 machines.
"""

from typing import List
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.session as session_module
from repro.graph.digraph import DiGraph
from repro.graph.mutation import MutationBatch, apply_batch
from repro.session import GraphSession
from tests import warm_plan_oracle as oracle

PROGRAMS = {
    "bfs": {"source": 0},
    "sssp": {"source": 0},
    "cc": {},
    "pagerank": {"tolerance": 1e-4},
    "ppr": {"seeds": [0, 1]},
}


def assert_same_bytes(got: np.ndarray, want: np.ndarray, what: str) -> None:
    assert got.dtype == want.dtype, what
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), what


def assert_same_plan(got, want) -> None:
    assert_same_bytes(got.reseed, want.reseed, "reseed")
    assert_same_bytes(got.inject_idx, want.inject_idx, "inject_idx")
    assert_same_bytes(got.inject_val, want.inject_val, "inject_val")
    assert list(got.warm_state) == list(want.warm_state)
    for key in want.warm_state:
        assert_same_bytes(
            got.warm_state[key], want.warm_state[key], f"warm_state[{key}]"
        )


def assert_same_hooks(got, want, partition) -> None:
    for mg in partition.blocks:
        mine, theirs = got.make_state(mg), want.make_state(mg)
        assert list(mine) == list(theirs)
        for key in theirs:
            assert_same_bytes(mine[key], theirs[key], f"make_state[{key}]")
        mine = got.initial_messages(mg, mine)
        theirs = want.initial_messages(mg, theirs)
        assert (mine is None) == (theirs is None)
        if theirs is not None:
            assert_same_bytes(mine[0], theirs[0], "initial_messages idx")
            assert_same_bytes(mine[1], theirs[1], "initial_messages accum")


class Checked:
    """Stands in for the session's planner: plans, checks, returns."""

    def __init__(self) -> None:
        self.real = session_module.plan_warm_start
        self.planned: List[str] = []

    def __call__(self, program, old, new, state, removed, inserted,
                 partition, plans):
        got = self.real(
            program, old, new, state, removed, inserted,
            partition=partition, plans=plans,
        )
        want = oracle.plan_warm_start(
            program, old, new, state, removed, inserted
        )
        assert_same_plan(got, want)
        assert_same_hooks(got, want, partition)
        self.planned.append(program.name)
        return got


def run_chain(graph: DiGraph, machines: int, steps) -> List[str]:
    """Open a session, run every program, then apply each batch and run
    its programs incrementally; returns the programs planned, in order."""
    checked = Checked()
    with mock.patch.object(session_module, "plan_warm_start", checked), \
            GraphSession.open(graph, machines=machines, seed=0) as session:
        for name, params in PROGRAMS.items():
            session.run(name, **params)
        for batch, names in steps:
            session.apply(batch)
            for name in names:
                got = session.run(name, incremental=True, **PROGRAMS[name])
                assert got.stats.extra["warm_start"] == 1
    return checked.planned


# ----------------------------------------------------------------------
@st.composite
def graphs(draw):
    n = draw(st.integers(2, 12))
    m = draw(st.integers(1, 36))
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
        # a removal drops every copy; an insertion may add one back
        batch.remove_edges(draw(
            st.lists(st.sampled_from(present), max_size=5, unique=True)
        ))
        batch.add_edges(draw(st.lists(st.sampled_from(present), max_size=2)))
    batch.remove_vertices(draw(
        st.lists(st.integers(0, graph.num_vertices - 1), max_size=1)
    ))
    ends = st.integers(0, n_after - 1)
    batch.add_edges(draw(st.lists(st.tuples(ends, ends), max_size=6)))
    return batch


@given(data=st.data(), graph=graphs(), machines=st.sampled_from((1, 2, 4)))
@settings(max_examples=120, deadline=None)
def test_plans_equal_the_oracle(data, graph, machines):
    draw = data.draw
    steps, base = [], graph
    for _ in range(draw(st.integers(1, 4))):
        batch = draw_batch(draw, base)
        base, _ = apply_batch(base, batch)
        names = draw(st.lists(
            st.sampled_from(sorted(PROGRAMS)), unique=True, max_size=3
        ))
        steps.append((batch, names))
    planned = run_chain(graph, machines, steps)
    assert sorted(planned) == sorted(n for _, names in steps for n in names)


# ----------------------------------------------------------------------
def _named_graph() -> DiGraph:
    # 0→1 twice, self-loop at 6, 3→4 twice, 8's only edge 8→0, a tail
    src = [0, 0, 1, 2, 3, 3, 4, 5, 6, 7, 8, 2, 1, 4, 9, 10, 11, 5]
    dst = [1, 1, 2, 3, 4, 4, 5, 6, 6, 0, 0, 7, 3, 9, 10, 11, 4, 2]
    return DiGraph(12, np.asarray(src), np.asarray(dst))


NAMED_BATCHES = [
    MutationBatch().remove_edges([(0, 1), (2, 3)]).add_edge(0, 1),
    MutationBatch().add_edges([(3, 4), (5, 5), (2, 3)]),
    MutationBatch().add_vertices(2).add_edges([(12, 0), (4, 12), (1, 13)]),
    MutationBatch().remove_vertex(4).add_edge(13, 13),
    MutationBatch().remove_edge(8, 0).add_edges([(9, 2), (9, 2)]),
    MutationBatch().remove_edges([(0, 1), (10, 11)]).add_edge(11, 1),
]


@pytest.mark.parametrize("machines", [1, 3])
def test_fixpoints_one_to_three_versions_old(machines):
    everything = sorted(PROGRAMS)
    # runs after batches 1, 3 and 6: fixpoints 1, 2 and 3 versions old
    schedule = [everything, [], everything, [], [], everything]
    planned = run_chain(
        _named_graph(), machines, list(zip(NAMED_BATCHES, schedule))
    )
    assert planned == everything * 3
