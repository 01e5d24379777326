"""The dense sweep's fast paths run on the engines' own paths.

A ``dense`` sweep reads its flags off the folded values and, on a clean
``deltaMsg``, copies the ``msg`` fold instead of folding twice. Both
rest on what every caller leaves at a ``scatter`` entry: ``msg`` at the
⊕-identity wherever ``has_msg`` is unset, ``delta_msg`` wherever
``has_delta`` is. These tests check that state at every ``scatter``
entry of every delta engine × pagerank / ppr / cc / sssp and of a warm
start, and that a lazy-block PageRank run takes the value path on every
dense selection and the copy path on every dense coherency-point sweep.

A pass whose inbox is mostly ready drains and applies densely
(``MachineRuntime.take_ready``): a lazy-block PageRank run takes that
path at its coherency points and sweeps exactly as on the index path,
and a road SSSP run, whose inbox is never that full, never takes it.
"""

import numpy as np
import pytest

from repro.core import LazyBlockAsyncEngine, build_lazy_graph
from repro.graph.generators import (
    attach_uniform_weights,
    powerlaw_graph,
    road_grid_graph,
)
from repro.graph.mutation import MutationBatch
from repro.runtime import machine_runtime as mr
from repro.runtime.base_engine import BaseEngine
from repro.runtime.machine_runtime import MachineRuntime
from repro.runtime.registry import engine_specs
from repro.session import GraphSession

SPECS = {spec.name: spec for spec in engine_specs()}
ENGINES = ["lazy-block", "lazy-vertex", "powergraph-sync", "powergraph-async"]
ALGORITHMS = [
    ("pagerank", {"tolerance": 1e-4}),
    ("ppr", {"seeds": (0, 3), "tolerance": 1e-4}),
    ("cc", {}),
    ("sssp", {"source": 0}),
]


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.int64)


@pytest.fixture(scope="module")
def graph():
    # one block of a few thousand edges: big enough to sweep densely
    # under the default config (dense_min_edges=256)
    g = powerlaw_graph(600, 5000, seed=3)
    return attach_uniform_weights(g, 1.0, 4.0, seed=3)


@pytest.fixture
def sweeps(monkeypatch):
    """Check the entry state of every scatter and record its path:
    ``(phase, selected mode, swept mode, ⊕-folds, clean deltaMsg)``."""
    record = []
    phase = ["coherency"]
    folds = []

    def in_phase(name, fn):
        def wrapper(self, *args, **kwargs):
            phase[0] = name
            try:
                return fn(self, *args, **kwargs)
            finally:
                phase[0] = "coherency"
        return wrapper

    real_scatter = MachineRuntime.scatter
    real_fold = mr.scatter_reduce

    def scatter(self, idx, delta_out, track_delta):
        ident = _bits(self.algebra.identity)
        assert (_bits(self.msg)[~self.has_msg] == ident).all()
        assert (_bits(self.delta_msg)[~self.has_delta] == ident).all()
        selected = self.out_plan.select(idx)[0] if idx.size else None
        clean = not self.has_delta.any()
        folds.clear()
        edges = real_scatter(self, idx, delta_out, track_delta)
        if edges:
            record.append((phase[0], selected, self._last_sweep_mode,
                           len(folds), clean and track_delta))
        return edges

    monkeypatch.setattr(MachineRuntime, "scatter", scatter)
    monkeypatch.setattr(
        mr, "scatter_reduce", lambda *a: folds.append(1) or real_fold(*a)
    )
    monkeypatch.setattr(
        BaseEngine, "_bootstrap", in_phase("bootstrap", BaseEngine._bootstrap)
    )
    monkeypatch.setattr(
        LazyBlockAsyncEngine, "_local_stage",
        in_phase("local", LazyBlockAsyncEngine._local_stage),
    )
    return record


@pytest.mark.parametrize("algorithm,params", ALGORITHMS,
                         ids=[a for a, _ in ALGORITHMS])
@pytest.mark.parametrize("engine", ENGINES)
def test_buffers_at_identity_where_unflagged(graph, sweeps, engine,
                                             algorithm, params):
    pg = build_lazy_graph(graph, 4, seed=1)
    spec = SPECS[engine]
    result = spec.cls(pg, spec.make_program(algorithm, **params)).run()
    assert result.stats.converged
    assert sweeps


def test_warm_start_buffers_at_identity_where_unflagged(graph, sweeps):
    with GraphSession.open(graph, machines=4, seed=0) as sess:
        sess.run("pagerank", tolerance=1e-4)
        sess.apply(MutationBatch().add_edge(0, 7).add_edge(7, 11))
        sweeps.clear()
        inc = sess.run("pagerank", tolerance=1e-4, incremental=True)
    assert inc.stats.extra["warm_start"] == 1
    assert sweeps


def test_lazy_block_pagerank_takes_the_value_and_copy_paths(graph, sweeps):
    pg = build_lazy_graph(graph, 4, seed=1)
    spec = SPECS["lazy-block"]
    spec.cls(pg, spec.make_program("pagerank", tolerance=1e-4)).run()
    dense = [s for s in sweeps if s[1] == "dense"]
    # the value path: no dense selection fell back to the sparse sweep
    assert dense and all(s[2] == "dense" for s in dense)
    assert all(s[2] == s[1] for s in sweeps)
    # the copy path: a coherency-point sweep follows a full exchange, so
    # its deltaMsg is clean and the sweep folds once
    at_coherency = [s for s in dense if s[0] == "coherency"]
    assert at_coherency
    assert all(s[4] and s[3] == 1 for s in at_coherency)


def _no_host_clock(stats):
    """A RunStats dump without its host timings (``*host_s`` keys)."""
    extra = {k: v for k, v in stats.pop("extra").items() if "host_s" not in k}
    return {k: v for k, v in stats.items() if "host_s" not in k}, extra


@pytest.fixture
def applies(monkeypatch):
    """Record every non-empty Apply pass: ``(in a local stage, dense)``."""
    record = []
    local = [False]
    real_stage = LazyBlockAsyncEngine._local_stage
    real_apply = MachineRuntime.apply_and_scatter

    def stage(self, *args, **kwargs):
        local[0] = True
        try:
            return real_stage(self, *args, **kwargs)
        finally:
            local[0] = False

    def apply(self, idx, accum, track_delta, flags=None):
        if idx.size:
            record.append((local[0], flags is not None))
        return real_apply(self, idx, accum, track_delta, flags)

    monkeypatch.setattr(LazyBlockAsyncEngine, "_local_stage", stage)
    monkeypatch.setattr(MachineRuntime, "apply_and_scatter", apply)
    return record


def test_lazy_block_pagerank_applies_densely_at_coherency_points(
    graph, sweeps, applies
):
    pg = build_lazy_graph(graph, 4, seed=1)
    spec = SPECS["lazy-block"]
    runs = []
    for block_apply in (True, False):
        program = spec.make_program("pagerank", tolerance=1e-4)
        program.block_apply = block_apply  # False pins the index path
        sweeps.clear()
        applies.clear()
        result = spec.cls(pg, program).run()
        runs.append((result, list(sweeps), list(applies)))
    (dense, dense_sweeps, dense_passes), (index, index_sweeps, index_passes) = runs
    at_coherency = [d for local, d in dense_passes if not local]
    assert at_coherency and any(at_coherency)
    assert not any(d for _, d in index_passes)
    # same passes, same sweeps (selected mode, swept mode, folds, copy)
    assert [local for local, _ in dense_passes] == [
        local for local, _ in index_passes
    ]
    assert dense_sweeps == index_sweeps
    assert np.array_equal(_bits(dense.values), _bits(index.values))
    assert _no_host_clock(dense.stats.to_dict()) == _no_host_clock(
        index.stats.to_dict()
    )


def test_road_sssp_never_applies_densely(applies):
    graph = attach_uniform_weights(road_grid_graph(60, 60, seed=1), seed=1)
    pg = build_lazy_graph(graph, 8, seed=1)
    spec = SPECS["lazy-block"]
    spec.cls(pg, spec.make_program("sssp", source=0)).run()
    assert applies and not any(dense for _, dense in applies)
