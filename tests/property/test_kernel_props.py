"""Property tests: kernel-layer bit-identity against ``ufunc.at``.

The kernel package promises that every fold — ``scatter_reduce``, the
fold-once/apply-twice sum primitives, the identity-padded dense sweep in
:class:`~repro.runtime.machine_runtime.MachineRuntime` — is
*bit-identical* to the historical per-call ``ufunc.at`` spelling, for
every registered algebra, including empty scatters, duplicate indices,
self-loops, ±0.0, subnormal and negative deltas, frontiers that cover
most of a block, and arbitrary pre-existing buffer contents (the
residual path of ``apply_segment_sums``). These tests are the
enforcement.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConnectedComponentsProgram, PageRankDeltaProgram
from repro.api.vertex_program import MAX_ALGEBRA, MIN_ALGEBRA, SUM_ALGEBRA
from repro.graph.digraph import DiGraph
from repro.kernels import (
    apply_segment_sums,
    configured,
    scatter_reduce,
    segment_sum,
)
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime

ALGEBRAS = [SUM_ALGEBRA, MIN_ALGEBRA, MAX_ALGEBRA]

finite = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)
# buffer cells: arbitrary finite values plus the interesting sum cases
# (+0.0 identity, -0.0 which must NOT be treated as identity) and the
# min/max identities
buf_cell = st.one_of(
    finite,
    st.just(0.0),
    st.just(-0.0),
    st.just(np.inf),
    st.just(-np.inf),
)


def bits(a) -> list:
    """Bit-exact comparison key (distinguishes ±0.0, exact floats)."""
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


@st.composite
def scatters(draw, max_slots=10, max_len=48):
    """A scatter problem: slot count, duplicate-heavy indices, values,
    and an arbitrary pre-existing buffer."""
    n = draw(st.integers(min_value=1, max_value=max_slots))
    m = draw(st.integers(min_value=0, max_value=max_len))
    idx = np.asarray(
        draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m)),
        dtype=np.int64,
    )
    values = np.asarray(
        draw(st.lists(finite, min_size=m, max_size=m)), dtype=np.float64
    )
    buf = np.asarray(
        draw(st.lists(buf_cell, min_size=n, max_size=n)), dtype=np.float64
    )
    return n, idx, values, buf


# ----------------------------------------------------------------------
# scatter_reduce == ufunc.at, bit for bit
# ----------------------------------------------------------------------
@given(s=scatters())
@settings(max_examples=100, deadline=None)
def test_default_dispatch_bit_identical(s):
    """Whatever the default config dispatches to == ufunc.at."""
    n, idx, values, buf = s
    for alg in ALGEBRAS:
        base = buf.copy()
        alg.ufunc.at(base, idx, values)
        out = buf.copy()
        scatter_reduce(alg, out, idx, values)
        assert bits(out) == bits(base), alg.name


@given(s=scatters(), scalar=finite)
@settings(max_examples=100, deadline=None)
def test_scalar_payload_broadcast(s, scalar):
    """Scalar payloads broadcast to idx.shape."""
    n, idx, _values, buf = s
    for alg in ALGEBRAS:
        base = buf.copy()
        alg.ufunc.at(base, idx, np.broadcast_to(scalar, idx.shape))
        out = buf.copy()
        scatter_reduce(alg, out, idx, scalar)
        assert bits(out) == bits(base), alg.name


# ----------------------------------------------------------------------
# building blocks
# ----------------------------------------------------------------------
@given(s=scatters())
@settings(max_examples=150, deadline=None)
def test_apply_segment_sums_residual_exact(s):
    """fold-once/apply-twice primitive == np.add.at on dirty buffers."""
    n, idx, values, buf = s
    sums = np.bincount(idx, weights=values, minlength=n)
    counts = np.bincount(idx, minlength=n)
    base = buf.copy()
    np.add.at(base, idx, values)
    out = buf.copy()
    apply_segment_sums(out, sums, counts, idx, values)
    assert bits(out) == bits(base)


@given(s=scatters())
@settings(max_examples=100, deadline=None)
def test_segment_sum_matches_add_at(s):
    n, idx, values, _buf = s
    base = np.zeros(n, dtype=np.float64)
    np.add.at(base, idx, values)
    fast = segment_sum(idx, values, n)
    with configured(mode="generic"):
        slow = segment_sum(idx, values, n)
    assert bits(fast) == bits(base)
    assert bits(slow) == bits(base)


# ----------------------------------------------------------------------
# MachineRuntime.scatter: sweep modes are observationally identical
# ----------------------------------------------------------------------
# scattered deltas: the padding's edge cases — signed zeros (x + -0.0 is
# x; -0.0 + +0.0 is +0.0), subnormals and negatives — beside any finite
delta_cell = st.one_of(
    finite,
    st.just(0.0),
    st.just(-0.0),
    st.just(5e-324),
    st.just(-2.5e-310),
    st.floats(min_value=-1e6, max_value=-1e-300),
)


@st.composite
def scatter_runs(draw, max_n=7, max_m=20):
    """A tiny graph (self-loops/duplicates allowed), a frontier, deltas.

    Half the frontiers are grown until they cover 50–100 % of the
    edges: the range a dense sweep pads."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    mask = np.asarray(
        draw(st.lists(st.booleans(), min_size=n, max_size=n)), dtype=bool
    )
    cover = draw(st.sampled_from([None, 0.5, 0.75, 1.0]))
    if cover is not None:
        out_edges = np.bincount(src, minlength=n)
        for v in draw(st.permutations(range(n))):
            if out_edges[mask].sum() >= cover * m:
                break
            mask[v] = True
    deltas = np.asarray(
        draw(st.lists(delta_cell, min_size=int(mask.sum()),
                      max_size=int(mask.sum()))),
        dtype=np.float64,
    )
    track = draw(st.booleans())
    return n, src, dst, mask, deltas, track


# the three sweep regimes: pre-kernel baseline, sparse flatten, dense
SWEEP_CONFIGS = [
    dict(mode="generic"),
    dict(dense_min_edges=10**9),                      # always sparse
    dict(dense_min_edges=1, dense_sweep_fraction=0.0),  # dense asap
]


def _scatter_state(program_cls, n, src, dst, mask, deltas, track, cfg):
    g = DiGraph(n, src, dst)
    pg = PartitionedGraph.build(
        g, np.zeros(g.num_edges, dtype=np.int32), 1
    )
    with configured(**cfg):
        rt = MachineRuntime(pg.machines[0], program_cls())
        # twice: the second sweep pads into buffers already off identity
        for _ in range(2):
            rt.scatter(np.flatnonzero(mask), deltas, track_delta=track)
    return (
        bits(rt.msg),
        bits(rt.delta_msg),
        rt.has_msg.tolist(),
        rt.has_delta.tolist(),
    )


@given(r=scatter_runs())
@settings(max_examples=80, deadline=None)
def test_cc_scatter_identical_across_sweep_modes(r):
    """min-monoid scatter: generic == sparse == dense, bit for bit."""
    n, src, dst, mask, deltas, track = r
    states = [
        _scatter_state(
            ConnectedComponentsProgram, n, src, dst, mask, deltas, track, cfg
        )
        for cfg in SWEEP_CONFIGS
    ]
    assert states[0] == states[1] == states[2]


@given(r=scatter_runs())
@settings(max_examples=80, deadline=None)
def test_pagerank_scatter_identical_across_sweep_modes(r):
    """sum-monoid scatter (divide transform): all sweep modes agree."""
    n, src, dst, mask, deltas, track = r
    states = [
        _scatter_state(
            PageRankDeltaProgram, n, src, dst, mask, deltas, track, cfg
        )
        for cfg in SWEEP_CONFIGS
    ]
    assert states[0] == states[1] == states[2]
