"""Property tests: kernel-layer bit-identity against ``ufunc.at``.

The kernel package promises that every fold — ``scatter_reduce``, the
fold-once/apply-twice sum primitives, the identity-padded dense sweep in
:class:`~repro.runtime.machine_runtime.MachineRuntime` — is
*bit-identical* to the historical per-call ``ufunc.at`` spelling, for
every registered algebra, including empty scatters, duplicate indices,
self-loops, ±0.0, subnormal and negative deltas, frontiers that cover
most of a block, and arbitrary pre-existing buffer contents (the
residual path of ``apply_segment_sums``). A dense sweep's flags come
off the folded values and a clean ``deltaMsg`` is a copy: both must
match ``mode="generic"`` bit for bit for zeros, subnormals that
underflow, cancellations, ±inf, NaN, operands near the float maximum,
a pending inbox and a dirty ``deltaMsg``, and every guard that fails
must sweep sparse. These tests are the enforcement.
"""

import numpy as np
import pytest
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
from repro.runtime import machine_runtime as mr
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


# ----------------------------------------------------------------------
# MachineRuntime.scatter: a dense sweep reads its flags off the values
# ----------------------------------------------------------------------
BIG = float(np.finfo(np.float64).max)


class _AddProgram(ConnectedComponentsProgram):
    """MIN or MAX with a per-edge ``add`` operand."""

    def __init__(self, algebra, w):
        self.algebra = algebra
        self.w = w

    def edge_transform(self, mg):
        return ("add", self.w)


# a value-flag sweep's edge cases: exact cancellations (mixed signs),
# ±0.0, subnormals whose PageRank divide underflows to ±0.0, ±inf, NaN,
# and deltas an operand near the float maximum overflows
flag_delta = st.one_of(
    st.sampled_from([1.0, -1.0, 0.5, -0.5, 2.0, -2.0]),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
    st.sampled_from([np.inf, -np.inf, np.nan]),
    st.sampled_from([1e300, -1e300, BIG, -BIG]),
    finite,
)
# what the runtime holds before the scatter: nothing, a pending inbox,
# a dirty deltaMsg, or both
PRESTAGE = ["fresh", "pending", "dirty", "both"]


def _make_program(kind, w):
    if kind == "sum":
        return PageRankDeltaProgram()
    if kind == "min":
        return ConnectedComponentsProgram()
    return _AddProgram(MIN_ALGEBRA if kind == "min-add" else MAX_ALGEBRA, w)


def _guard_holds(kind, d, w):
    """The test's own spelling of "no frontier message can fold to the
    ⊕-identity" (``d``: the deltas after the per-source divide)."""
    with np.errstate(all="ignore"):
        if kind == "sum":
            return bool((d > 0).all() or (d < 0).all())
        if kind == "max-add":
            return bool(d.min() + w.min() > -np.inf)
        return bool(d.max() + (w.max() if kind == "min-add" else 0.0) < np.inf)


def _value_flag_case(kind, src, dst, w, frontier, deltas, track, prestage,
                     pre_frontier, pre_deltas):
    """Scatter on a dense-ready runtime and on a ``mode="generic"`` one
    from the same prestaged state; return both, the ⊕-folds the dense
    one ran, whether its inbox was drained and whether its ``deltaMsg``
    was dirty before the scatter."""
    n = int(max(src.max(), dst.max())) + 1
    g = DiGraph(n, src, dst)
    pg = PartitionedGraph.build(g, np.zeros(g.num_edges, dtype=np.int32), 1)
    fast, base = (MachineRuntime(pg.machines[0], _make_program(kind, w))
                  for _ in range(2))
    for rt in (fast, base):
        with configured(mode="generic"):
            if prestage != "fresh":
                rt.scatter(pre_frontier, pre_deltas, prestage != "pending")
            if prestage == "dirty":
                rt.take_ready()
    drained = not fast.has_msg.any()
    # a prestage whose frontier reaches no edge leaves deltaMsg clean
    dirty = bool(fast.has_delta.any())
    folds = []
    real = mr.scatter_reduce
    mr.scatter_reduce = lambda *a: folds.append(1) or real(*a)
    # NaN / overflowing inputs warn in the folds, on both sides
    try:
        with np.errstate(all="ignore"):
            with configured(dense_min_edges=1, dense_sweep_fraction=0.0):
                fast.scatter(frontier, deltas, track)
            mr.scatter_reduce = real
            with configured(mode="generic"):
                base.scatter(frontier, deltas, track)
    finally:
        mr.scatter_reduce = real
    return fast, base, len(folds), drained, dirty


def _check_value_flags(kind, src, dst, w, frontier, deltas, track, prestage,
                       pre_frontier, pre_deltas):
    fast, base, folds, drained, dirty = _value_flag_case(
        kind, src, dst, w, frontier, deltas, track, prestage,
        pre_frontier, pre_deltas,
    )
    for name in ("msg", "delta_msg"):
        assert bits(getattr(fast, name)) == bits(getattr(base, name)), name
    for name in ("has_msg", "has_delta"):
        assert getattr(fast, name).tolist() == getattr(base, name).tolist(), name
    counts = np.bincount(src, minlength=fast.mg.num_local_vertices)
    total = int(counts[frontier].sum())
    d = deltas
    if kind == "sum":
        d = deltas / np.where(counts > 0, counts, 1)[frontier]
    if total == src.size:
        assert fast._last_sweep_mode == "dense-full"
    elif drained and _guard_holds(kind, d, w):
        assert fast._last_sweep_mode == "dense"
        # a clean deltaMsg is a copy of the msg fold, not a second fold
        assert folds == (2 if track and dirty else 1)
    else:
        assert fast._last_sweep_mode == "sparse"
    return fast._last_sweep_mode


@st.composite
def value_flag_runs(draw, max_n=10, max_m=24):
    """A tiny graph, a frontier covering 50–100 % of its edges, deltas
    from ``flag_delta`` (optionally forced to one sign), an operand with
    an extreme entry, and a prestaged runtime state."""
    kind = draw(st.sampled_from(["sum", "min", "min-add", "max-add"]))
    n = draw(st.integers(min_value=4, max_value=max_n))
    m = draw(st.integers(min_value=4, max_value=max_m))
    src = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                   max_size=m)))
    dst = np.asarray(draw(st.lists(st.integers(0, n - 1), min_size=m,
                                   max_size=m)))
    n = int(max(src.max(), dst.max())) + 1
    mask = np.zeros(n, dtype=bool)
    cover = draw(st.sampled_from([0.5, 0.6, 0.75, 1.0]))
    out_edges = np.bincount(src, minlength=n)
    for v in draw(st.permutations(range(n))):
        if out_edges[mask].sum() >= cover * m:
            break
        mask[v] = True
    frontier = np.flatnonzero(mask)
    # half the runs draw plain deltas, which the guards let through
    cell = draw(st.sampled_from([flag_delta, st.floats(0.25, 1e6)]))
    deltas = np.asarray(draw(st.lists(cell, min_size=frontier.size,
                                      max_size=frontier.size)))
    sign = draw(st.sampled_from(["any", "pos", "neg"]))
    if sign != "any":
        deltas = np.abs(deltas) * (1.0 if sign == "pos" else -1.0)
    w = np.asarray(draw(st.lists(st.floats(-10, 10), min_size=m, max_size=m)))
    if draw(st.booleans()):
        w[draw(st.integers(0, m - 1))] = BIG if kind == "min-add" else -BIG
    prestage = draw(st.sampled_from(PRESTAGE))
    pre = np.flatnonzero(
        np.asarray(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    )
    pre_deltas = np.asarray(draw(st.lists(
        st.floats(0.25, 4.0), min_size=pre.size, max_size=pre.size,
    )))
    track = draw(st.booleans())
    return (kind, src, dst, w, frontier, deltas, track, prestage, pre,
            pre_deltas)


@given(r=value_flag_runs())
@settings(max_examples=300, deadline=None)
def test_value_flags_bit_identical_to_generic(r):
    """Both buffers and both flag arrays equal ``mode="generic"`` bit for
    bit; a guard that fails sweeps (and records) sparse."""
    _check_value_flags(*r)


def _ring():
    # 0..4 each reach the next two around a 6-ring (edge 2v: v -> v+1,
    # 2v+1: v -> v+2); 5 owns no edge. The frontier 0..3 covers 8 of the
    # 10 edges (dense, not full), reaches 5 over 3's edge 7 alone and
    # never reaches 0, where the prestaged runtimes (frontier {4}) hold
    # their pending message / delta
    src = np.repeat(np.arange(5), 2)
    dst = (src + np.tile([1, 2], 5)) % 6
    return src, dst, np.linspace(1.0, 2.0, src.size)


_FRONTIER = np.array([0, 1, 2, 3])


@pytest.mark.parametrize("case", [
    # SUM: a zero delta, one whose divide by 2 underflows, and an exact
    # cancellation (2 and 3 both reach 4, with +-0.5 after the divide)
    # fold to the +0.0 identity
    ("sum", [1.0, 1.0, 1.0, 0.0], "fresh"),
    ("sum", [1.0, 1.0, 1.0, 5e-324], "fresh"),
    ("sum", [1.0, 1.0, 1.0, -1.0], "fresh"),
    # a NaN: the value would flag right, the guard is conservative
    ("sum", [1.0, np.nan, 1.0, 1.0], "fresh"),
    # MIN: an infinite delta is the identity itself; with the add
    # operand, 1e300 + BIG on edge 7 overflows to it (MAX: the mirror)
    ("min", [1.0, 2.0, 3.0, np.inf], "fresh"),
    ("min-add", [1.0, 2.0, 3.0, 1e300], "fresh"),
    ("max-add", [1.0, 2.0, 3.0, -1e300], "fresh"),
    # a pending inbox at 0
    ("sum", [1.0, 1.0, 1.0, 1.0], "pending"),
    ("min", [1.0, 2.0, 3.0, 4.0], "pending"),
], ids=["sum-zero", "sum-underflow", "sum-cancel", "sum-nan", "min-inf",
        "min-add-overflow", "max-add-overflow", "sum-pending",
        "min-pending"])
def test_each_guard_failure_sweeps_sparse(case):
    kind, deltas, prestage = case
    src, dst, w = _ring()
    w[7] = -BIG if kind == "max-add" else BIG
    mode = _check_value_flags(
        kind, src, dst, w, _FRONTIER, np.array(deltas), True, prestage,
        np.array([4]), np.array([1.0]),
    )
    assert mode == "sparse"


@pytest.mark.parametrize("kind", ["sum", "min", "min-add", "max-add"])
@pytest.mark.parametrize("prestage", ["fresh", "dirty"])
def test_clean_and_dirty_delta_msg(kind, prestage):
    """A guard that holds sweeps dense: one fold and a copy on a clean
    ``deltaMsg``, two folds on a dirty one (prestaged at 0 and 1,
    which the frontier does not reach)."""
    src, dst, w = _ring()
    mode = _check_value_flags(
        kind, src, dst, w, _FRONTIER, np.array([1.0, 2.0, 3.0, 0.5]), True,
        prestage, np.array([4]), np.array([1.0]),
    )
    assert mode == "dense"
