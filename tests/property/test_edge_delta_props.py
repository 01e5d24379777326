"""Property tests: the composed edge delta against the graph-diff oracle.

A warm start is planned from the delta the session composes out of its
patches' recorded :class:`~repro.graph.mutation.EdgeDiff` s
(:func:`~repro.graph.mutation.compose_edge_delta`), not from comparing
graphs. Over random batch sequences — parallel copies, vertex removals
and additions, weighted bases whose per-pair min weight moves under
:func:`~repro.graph.mutation.symmetrized_patch`, spans of one to five
graph versions — the composed delta must

* always turn the old edge multiset into the new one;
* name the same *edges* (as ``(src, dst[, w])`` keys) as the oracle
  :func:`~repro.runtime.warm_start.graph_delta` whenever no key is both
  removed and inserted over the span (the oracle cannot see a replaced
  edge; the diff reports it on both sides, which is sound, just not
  minimal);
* equal the oracle *element for element* when, in addition, no touched
  key has an identical untouched copy (among identical copies the
  oracle calls the lowest edge id the changed one).
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.digraph import DiGraph
from repro.graph.mutation import (
    MutationBatch,
    apply_batch,
    compose_edge_delta,
    symmetrized_patch,
)
from repro.runtime.warm_start import graph_delta

WEIGHTS = (1.0, 2.0, 3.0)  # few values: pair min weights collide and move


def edge_keys(graph: DiGraph, eids=None):
    cols = [graph.src.tolist(), graph.dst.tolist()]
    if graph.weights is not None:
        cols.append(graph.weights.tolist())
    keys = list(zip(*cols))
    return keys if eids is None else [keys[e] for e in eids.tolist()]


@st.composite
def base_graphs(draw):
    n = draw(st.integers(2, 10))
    m = draw(st.integers(0, 24))
    ends = st.lists(st.integers(0, n - 1), min_size=m, max_size=m)
    src, dst = draw(ends), draw(ends)
    weights = None
    if draw(st.booleans()):
        weights = np.asarray(
            draw(st.lists(st.sampled_from(WEIGHTS), min_size=m, max_size=m)),
            dtype=np.float64,
        )
    return DiGraph(
        n, np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64),
        weights,
    )


def draw_batch(draw, graph: DiGraph) -> MutationBatch:
    """A random batch that is valid against ``graph``."""
    batch = MutationBatch().add_vertices(draw(st.integers(0, 2)))
    n_after = graph.num_vertices + batch.num_added_vertices
    present = sorted(set(zip(graph.src.tolist(), graph.dst.tolist())))
    if present:
        batch.remove_edges(draw(
            st.lists(st.sampled_from(present), max_size=4, unique=True)
        ))
    batch.remove_vertices(draw(
        st.lists(st.integers(0, graph.num_vertices - 1), max_size=1)
    ))
    for _ in range(draw(st.integers(0, 5))):
        u = draw(st.integers(0, n_after - 1))
        v = draw(st.integers(0, n_after - 1))
        weight = None
        if graph.weights is not None and draw(st.booleans()):
            weight = draw(st.sampled_from(WEIGHTS))
        batch.add_edge(u, v, weight=weight)
    return batch


def check_against_oracle(old: DiGraph, new: DiGraph, steps) -> None:
    removed, inserted = compose_edge_delta(old.num_edges, steps)
    assert np.all(np.diff(removed) > 0) and np.all(np.diff(inserted) > 0)
    gone, born = edge_keys(old, removed), edge_keys(new, inserted)

    # old - removed + inserted == new, as edge multisets
    patched = Counter(edge_keys(old))
    patched.subtract(gone)
    patched.update(born)
    assert +patched == Counter(edge_keys(new))
    assert all(count >= 0 for count in patched.values())

    if set(gone) & set(born):
        return  # a replaced key: invisible to the oracle
    want_removed, want_inserted = graph_delta(old, new)
    assert Counter(gone) == Counter(edge_keys(old, want_removed))
    assert Counter(born) == Counter(edge_keys(new, want_inserted))

    if set(gone) & set(edge_keys(new)) or set(born) & set(edge_keys(old)):
        return  # an identical copy survives: which id changed is a choice
    np.testing.assert_array_equal(removed, want_removed)
    np.testing.assert_array_equal(inserted, want_inserted)


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_composed_delta_vs_oracle(data):
    base = data.draw(base_graphs())
    sym = base.symmetrized()
    bases, syms = [base], [sym]
    base_steps, sym_steps = [], []
    for _ in range(data.draw(st.integers(1, 5))):
        batch = draw_batch(data.draw, bases[-1])
        new_base, bdiff = apply_batch(bases[-1], batch)
        new_sym, sdiff = symmetrized_patch(syms[-1], bases[-1], new_base)
        assert new_sym.structurally_equal(new_base.symmetrized())
        bases.append(new_base)
        syms.append(new_sym)
        base_steps.append((bdiff.removed_eids, bdiff.num_added))
        sym_steps.append((sdiff.removed_eids, sdiff.num_added))

    # every span [i, last] of the history, directed and symmetrized
    for i in range(len(bases) - 1):
        check_against_oracle(bases[i], bases[-1], base_steps[i:])
        check_against_oracle(syms[i], syms[-1], sym_steps[i:])


def test_empty_span_is_the_empty_delta():
    removed, inserted = compose_edge_delta(7, [])
    assert removed.size == 0 and inserted.size == 0
    assert removed.dtype == inserted.dtype == np.int64


def test_transient_edge_appears_on_neither_side():
    g0 = DiGraph(3, np.array([0, 1]), np.array([1, 2]))
    g1, d1 = apply_batch(g0, MutationBatch().add_edge(2, 0))
    g2, d2 = apply_batch(g1, MutationBatch().remove_edge(2, 0))
    removed, inserted = compose_edge_delta(
        g0.num_edges,
        [(d1.removed_eids, d1.num_added), (d2.removed_eids, d2.num_added)],
    )
    assert removed.size == 0 and inserted.size == 0
    assert g2.structurally_equal(g0)


def test_replaced_edge_appears_on_both_sides():
    g0 = DiGraph(3, np.array([0, 1]), np.array([1, 2]))
    g1, d1 = apply_batch(
        g0, MutationBatch().remove_edge(0, 1).add_edge(0, 1)
    )
    removed, inserted = compose_edge_delta(
        g0.num_edges, [(d1.removed_eids, d1.num_added)]
    )
    assert removed.tolist() == [0]  # the old copy's id in g0
    assert inserted.tolist() == [1]  # the new copy's id in g1
    assert graph_delta(g0, g1)[0].size == 0  # the oracle sees no change
