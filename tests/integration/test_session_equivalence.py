"""Session reuse equivalence: N ``session.run()`` ≡ N fresh ``run()``.

The tentpole guarantee of the reentrant-session refactor: reusing one
:class:`~repro.session.GraphSession` — cached prepared graph, cached
partition, cached per-machine CSR plans — changes *nothing* observable.
For every registered engine, back-to-back ``session.run`` calls must be
bit-identical to the same sequence of fresh ``repro.run`` calls: vertex
values, the full RunStats dump (per-channel byte ledgers included), and
the trace stream record-for-record (host-clock stamps excepted).

That holds because the cached artifacts carry no run-mutable state:
graphs and partitions are frozen inputs and CSR plans reset their
scratch before each use.
"""

import numpy as np
import pytest

import repro
from repro.obs.tracer import Tracer
from repro.runtime.registry import engine_names, get_engine
from repro.session import GraphSession

MACHINES = 6
N_SERIAL = 3
ALGORITHMS = ("pagerank", "cc")
MATRIX = [
    (engine, alg) for engine in engine_names() for alg in ALGORITHMS
]


def _scrub(obj):
    """Drop host-clock values recursively: host span stamps and the
    ``*host_s`` host-side timings nested in the RunStats dump."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v) for k, v in obj.items()
            if k not in ("host_t0", "host_t1", "host_t") and "host_s" not in k
        }
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    return obj


def _kwargs(engine, alg):
    spec = get_engine(engine)
    kwargs = {"engine": engine}
    if alg == "pagerank":
        kwargs["tolerance"] = 1e-3
    if "lens" in spec.options:
        kwargs["lens"] = True
    return kwargs


def _assert_identical(fresh, reused, label):
    (fr, fresh_rec), (ru, reused_rec) = fresh, reused
    assert np.array_equal(fr.values, ru.values), label
    assert _scrub(fr.stats.to_dict()) == _scrub(ru.stats.to_dict()), label
    f = [_scrub(r) for r in fresh_rec]
    r = [_scrub(r) for r in reused_rec]
    assert len(f) == len(r), label
    for i, (a, b) in enumerate(zip(f, r)):
        assert a == b, f"{label}: record #{i} diverged: {a} != {b}"


def _matrix_case(engine, alg, er_graph, n):
    """n fresh run() calls vs n runs through one resident session."""
    kwargs = _kwargs(engine, alg)
    fresh = []
    for _ in range(n):
        tracer = Tracer()
        result = repro.run(
            er_graph, alg, machines=MACHINES, seed=0, tracer=tracer,
            **kwargs,
        )
        fresh.append((result, tracer.records))
    with GraphSession.open(er_graph, machines=MACHINES, seed=0) as session:
        for i in range(n):
            tracer = Tracer()
            result = session.run(alg, tracer=tracer, **kwargs)
            _assert_identical(
                fresh[i], (result, tracer.records),
                f"{engine}/{alg} run #{i}",
            )
        assert session.runs_completed == n


@pytest.mark.parametrize("engine,alg", MATRIX)
class TestSessionReuseBitExact:
    def test_serial_session_identical_to_fresh_runs(
        self, engine, alg, er_graph
    ):
        _matrix_case(engine, alg, er_graph, N_SERIAL)


def test_session_mixes_engines_and_backends(er_graph):
    """One session serves different engines / graph shapes."""
    with GraphSession.open(er_graph, machines=MACHINES, seed=0) as session:
        a = session.run("pagerank", engine="lazy-block", tolerance=1e-3)
        b = session.run("cc", engine="powergraph-sync")
        c = session.run(
            "pagerank", engine="powergraph-gas-sync", tolerance=1e-3,
        )
        assert session.runs_completed == 3
    for got, alg, kwargs in (
        (a, "pagerank", {"engine": "lazy-block", "tolerance": 1e-3}),
        (b, "cc", {"engine": "powergraph-sync"}),
        (c, "pagerank", {"engine": "powergraph-gas-sync", "tolerance": 1e-3}),
    ):
        want = repro.run(er_graph, alg, machines=MACHINES, seed=0, **kwargs)
        assert np.array_equal(got.values, want.values)
        assert _scrub(got.stats.to_dict()) == _scrub(want.stats.to_dict())
