"""Property tests: the dense Apply is the index Apply, bit for bit.

A pass whose inbox is mostly ready drains it whole and runs the
program's block form over every slot, unflagged slots at the
⊕-identity accum (``MachineRuntime.take_ready``,
:mod:`repro.algorithms.apply_rules`). Against the index path, on
one-machine and merged blocks, for damped sum (plain and warm-started)
and min-relaxation, with ±0.0, subnormal, ±inf and NaN accums and
state: every buffer, flag, state array and per-machine work row must be
equal bit for bit, pass after pass. The state starts from the program's
own ``make_state`` and is partly overwritten, so a program that seeds a
SUM buffer with -0.0 fails here, as does a block form that lets an
unflagged slot fire.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import ConnectedComponentsProgram, PageRankDeltaProgram
from repro.graph.digraph import DiGraph
from repro.kernels import configured, scatter_reduce
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime
from repro.runtime.warm_start import WarmStartProgram

TINY = 5e-324
# accums: anything a fold can deliver, -0.0 included (a flagged slot
# takes the same IEEE op on both paths)
accum_cell = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, -TINY, 2.2e-308, np.inf, -np.inf,
                     np.nan, 1e300, -1e300]),
    st.floats(-4.0, 4.0),
)
# SUM state: the same, less -0.0, which no vdata / pending slot holds
sum_state_cell = st.one_of(
    st.sampled_from([0.0, TINY, -TINY, np.inf, -np.inf, np.nan, 1e300]),
    st.floats(-4.0, 4.0).map(lambda x: x + 0.0),
)
min_state_cell = st.one_of(
    st.sampled_from([0.0, -0.0, TINY, np.inf, -np.inf, np.nan]),
    st.floats(-100.0, 100.0),
)
KINDS = ["sum", "warm", "min"]


def bits(a) -> list:
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


@st.composite
def apply_runs(draw, max_n=9, max_m=24):
    """A tiny graph cut over one or three machines (one block), a
    program, state overwrites and a few passes of inbox messages."""
    kind = draw(st.sampled_from(KINDS))
    n = draw(st.integers(min_value=2, max_value=max_n))
    m = draw(st.integers(min_value=1, max_value=max_m))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    machines = draw(st.sampled_from([1, 3]))
    assign = draw(st.lists(st.integers(0, machines - 1), min_size=m,
                           max_size=m))
    cell = min_state_cell if kind == "min" else sum_state_cell
    state = {
        key: draw(st.lists(st.tuples(st.booleans(), cell), min_size=n,
                           max_size=n))
        for key in (("vdata",) if kind == "min" else ("vdata", "pending"))
    }
    warm = None
    if kind == "warm":
        warm = (
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            draw(st.lists(cell, min_size=n, max_size=n)),
            draw(st.lists(cell, min_size=n, max_size=n)),
            draw(st.lists(st.sampled_from([0.0, 0.5, -0.25, TINY]),
                          min_size=n, max_size=n)),
        )
    tolerance = draw(st.sampled_from([1e-3, 0.5, 3.0]))
    passes = [
        (draw(st.lists(st.integers(0, 3 * n), max_size=3 * n)),
         draw(st.lists(accum_cell, min_size=3 * n, max_size=3 * n)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    return (kind, n, src, dst, machines, assign, state, warm, tolerance,
            passes)


def _program(kind, warm, tolerance):
    if kind == "min":
        return ConnectedComponentsProgram()
    base = PageRankDeltaProgram(tolerance=tolerance)
    if kind == "sum":
        return base
    reseed, vdata, pending, inject = warm
    inject = np.asarray(inject)
    hit = np.flatnonzero(inject != 0.0)
    return WarmStartProgram(
        base,
        {"vdata": np.asarray(vdata), "pending": np.asarray(pending)},
        np.asarray(reseed), hit, inject[hit],
    )


def _runtime(r):
    kind, n, src, dst, machines, assign, state, warm, tolerance, _ = r
    pg = PartitionedGraph.build(
        DiGraph(n, src, dst), np.asarray(assign, dtype=np.int32), machines
    )
    (block,) = pg.blocks  # tiny graphs: every machine in one block
    rt = MachineRuntime(block, _program(kind, warm, tolerance))
    for key, cells in state.items():
        arr = rt.state[key]
        for slot, gid in enumerate(block.vertices.tolist()):
            overwrite, value = cells[gid]
            if overwrite:
                arr[slot] = value
    return rt


def _snapshot(rt, work):
    return (
        bits(rt.msg), bits(rt.delta_msg), rt.has_msg.tolist(),
        rt.has_delta.tolist(),
        {key: bits(arr) for key, arr in rt.state.items()},
        work.tolist(),
    )


@given(r=apply_runs())
@settings(max_examples=300, deadline=None)
def test_dense_apply_bit_identical_to_index_apply(r):
    dense, index = _runtime(r), _runtime(r)
    assert dense.mg.num_machines == r[4]
    with np.errstate(all="ignore"), configured(dense_sweep_fraction=0.0):
        for rt in (dense, index):
            rt.bootstrap(track_delta=True)
        assert _snapshot(dense, np.zeros(0)) == _snapshot(index, np.zeros(0))
        for slots, values in r[-1]:
            n = dense.mg.num_local_vertices
            idx = np.asarray([s % n for s in slots], dtype=np.int64)
            vals = np.asarray(values[: idx.size], dtype=np.float64)
            for rt in (dense, index):
                scatter_reduce(rt.algebra, rt.msg, idx, vals)
                rt.has_msg[idx] = True
            ready, accum, flags = dense.take_ready(block=True)
            assert (flags is not None) == bool(ready.size)
            work_dense = dense.apply_and_scatter(ready, accum, True, flags)
            ready_i, accum_i, flags_i = index.take_ready()
            assert flags_i is None and ready_i.tolist() == ready.tolist()
            work_index = index.apply_and_scatter(ready_i, accum_i, True)
            assert _snapshot(dense, work_dense) == _snapshot(index, work_index)
