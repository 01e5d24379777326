"""Unit tests for per-superstep run tracing: the ``superstep`` span's
``active`` attribute, the one per-superstep record."""

import pytest

import repro


def _steps(result):
    """The run's superstep spans that carry ``active``."""
    return [s for s in result.trace.spans("superstep") if "active" in s["attrs"]]


class TestUniformSchema:
    """Every engine's superstep spans carry one schema."""

    @pytest.mark.parametrize(
        "engine",
        ["powergraph-sync", "powergraph-async", "lazy-block", "lazy-vertex"],
    )
    def test_delta_engines_emit_shared_keys(self, engine):
        r = repro.run("road-ca-mini", "sssp", engine=engine, machines=4,
                      trace=True)
        steps = _steps(r)
        assert steps, f"{engine} wrote no active counts"
        for span in steps:
            assert set(span["attrs"]) == {"superstep", "active"}
            assert isinstance(span["attrs"]["active"], int)
            assert span["attrs"]["active"] >= 0
        times = [s["model_t1"] for s in steps]
        assert times == sorted(times)

    def test_gas_engine_emits_shared_keys(self):
        from repro.core.transmission import build_lazy_graph
        from repro.powergraph import GASPageRank, PowerGraphGASSyncEngine
        from repro.run_api import prepare_graph
        from repro.algorithms import make_program

        g = prepare_graph("road-ca-mini", make_program("pagerank"))
        pg = build_lazy_graph(g, 4)
        r = PowerGraphGASSyncEngine(
            pg, GASPageRank(tolerance=1e-3), trace=True
        ).run()
        steps = _steps(r)
        # the pull engine opens a superstep span only while work is left
        assert len(steps) == len(r.trace.spans("superstep")) == r.stats.supersteps
        for span in steps:
            assert set(span["attrs"]) == {"superstep", "active"}


class TestEngineTraces:
    def test_lazy_block_trace(self):
        r = repro.run("road-ca-mini", "sssp", machines=4, trace=True)
        steps = _steps(r)
        # one coherency point, and one active count, per superstep
        assert len(steps) == r.stats.coherency_points
        # the adaptive rule's inputs are recorded, one decision per
        # superstep that did not converge
        decisions = r.trace.instants("interval-decision")
        assert len(decisions) == len(steps) - 1
        for d, span in zip(decisions, steps):
            assert {"trend", "do_local", "ev_ratio"} <= set(d["attrs"])
            assert d["attrs"]["active"] == span["attrs"]["active"]
        # the last superstep is the converged one
        assert steps[-1]["attrs"]["active"] == 0

    def test_sync_trace(self):
        r = repro.run(
            "road-ca-mini", "sssp", engine="powergraph-sync",
            machines=4, trace=True,
        )
        # every superstep that got past its gather leg counts its actives
        assert len(_steps(r)) == r.stats.supersteps
        gathers = r.trace.spans("phase")
        assert all("gather_msgs" in s["attrs"] for s in gathers
                   if s["name"] == "gather")

    def test_trace_off_by_default(self):
        r = repro.run("road-ca-mini", "cc", machines=4)
        assert r.trace is None

    def test_active_counts_decrease_towards_convergence(self):
        r = repro.run("road-ca-mini", "cc", machines=4, trace=True)
        actives = [s["attrs"]["active"] for s in _steps(r)]
        # label propagation ends quiet; the last count must be 0
        assert actives[-1] == 0
        assert max(actives) > 0

    @pytest.mark.parametrize("engine", [
        "powergraph-sync", "powergraph-async", "lazy-block", "lazy-vertex",
    ])
    def test_tracer_alone_writes_active(self, engine):
        # an explicit tracer, trace=False: the same spans, the same counts
        from repro.obs import Tracer

        traced = repro.run("road-ca-mini", "cc", engine=engine, machines=4,
                           trace=True)
        tracer = Tracer()
        repro.run("road-ca-mini", "cc", engine=engine, machines=4,
                  tracer=tracer)
        assert [s["attrs"] for s in tracer.spans("superstep")] == [
            s["attrs"] for s in traced.trace.spans("superstep")
        ]
