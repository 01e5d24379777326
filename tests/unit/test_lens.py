"""Unit tests for the coherency lens (repro.obs.lens) and its hooks."""

import numpy as np
import pytest

from repro.api.vertex_program import MIN_ALGEBRA, SUM_ALGEBRA
from repro.obs import Tracer
from repro.obs.lens import (
    CoherencyDecision,
    CoherencyLens,
    NULL_LENS,
    NullLens,
)
from repro.run_api import run


class TestDeltaMagnitude:
    def test_sum_algebra_measures_absolute_mass(self):
        assert SUM_ALGEBRA.magnitude([1.0, -2.5, 0.0]) == pytest.approx(3.5)

    def test_min_algebra_counts_informative_entries(self):
        # identity (+inf) entries carry no information
        assert MIN_ALGEBRA.magnitude([np.inf, 3.0, np.inf, 0.0]) == 2.0

    def test_empty_batch_is_zero(self):
        assert SUM_ALGEBRA.magnitude([]) == 0.0
        assert MIN_ALGEBRA.magnitude(np.empty(0)) == 0.0


class TestNullLens:
    def test_every_hook_is_a_noop(self):
        lens = NullLens()
        lens.begin_superstep(0)
        lens.probe()
        lens.on_staged(1.0)
        lens.decision("turn_on_lazy", "adaptive", "lazy-on", trend=0.1)
        lens.finish(True, 0.0)
        assert lens.enabled is False
        assert NULL_LENS.enabled is False

    def test_engines_default_to_null_lens(self):
        from repro.core.lazy_block_async import LazyBlockAsyncEngine
        from repro.core.transmission import build_lazy_graph
        from repro.algorithms import make_program
        from repro.graph.datasets import load_dataset

        g = load_dataset("road-ca-mini")
        pg = build_lazy_graph(g, 4, seed=0)
        eng = LazyBlockAsyncEngine(pg, make_program("pagerank"))
        assert eng.lens is NULL_LENS
        assert eng.exchanger.lens is NULL_LENS


class TestCoherencyDecision:
    def test_to_record_flattens_inputs(self):
        d = CoherencyDecision(3, "turn_on_lazy", "adaptive", "lazy-on",
                              {"ev_ratio": 2.5, "trend": 0.1})
        rec = d.to_record()
        assert rec["superstep"] == 3
        assert rec["kind"] == "turn_on_lazy"
        assert rec["ev_ratio"] == 2.5


def _lens_run(engine="lazy-block", algorithm="pagerank", tracer=None):
    tracer = tracer or Tracer()
    result = run("road-ca-mini", algorithm, engine=engine, machines=8,
                 seed=0, tracer=tracer, lens=True)
    return result, tracer


class TestLensOnEngines:
    def test_lens_summary_extras_published(self):
        result, _ = _lens_run()
        extra = result.stats.extra
        assert extra["lens.decisions"] > 0
        assert extra["lens.exchanges"] > 0
        assert extra["lens.probes"] > 0
        assert extra["lens.invariant_breaks"] == 0.0

    def test_lens_metrics_registered(self):
        result, _ = _lens_run()
        metrics = result.stats.metrics
        staleness = metrics.get("lens.staleness")
        pending = metrics.get("lens.pending_mass")
        assert staleness is not None and staleness.count > 0
        assert pending is not None and pending.count > 0
        # quantiles ride into the JSON dump
        assert "p95" in metrics.export()["lens.pending_mass"]

    def test_probe_instants_carry_divergence_fields(self):
        _, tracer = _lens_run()
        probes = tracer.instants("lens-probe")
        assert probes
        for p in probes:
            attrs = p["attrs"]
            assert {"superstep", "pending_mass", "pending_replicas",
                    "staleness_max", "drift_max",
                    "machine_mass"} <= set(attrs)
            assert len(attrs["machine_mass"]) == 8

    def test_channel_ledger_timeline_recorded(self):
        _, tracer = _lens_run()
        ledgers = tracer.instants("channel-ledger")
        assert ledgers
        # every open channel appears with cumulative byte counters
        keys = set(ledgers[-1]["attrs"])
        assert "control.bytes" in keys
        assert any(k.startswith("delta_") and k.endswith(".bytes")
                   for k in keys)

    def test_decision_log_has_rule_inputs(self):
        _, tracer = _lens_run()
        decisions = tracer.instants("coherency-decision")
        kinds = {d["attrs"]["kind"] for d in decisions}
        assert "turn_on_lazy" in kinds
        assert "coherency" in kinds
        lazy = [d for d in decisions if d["attrs"]["kind"] == "turn_on_lazy"]
        assert all("ev_ratio" in d["attrs"] and "trend" in d["attrs"]
                   for d in lazy)
        assert all(d["attrs"]["rule"] == "adaptive" for d in lazy)

    def test_lazy_vertex_decisions_name_their_rule(self):
        _, tracer = _lens_run(engine="lazy-vertex")
        decisions = tracer.instants("coherency-decision")
        rules = {d["attrs"]["rule"] for d in decisions}
        assert rules <= {"max-delta-age", "idle-drain"}
        assert "idle-drain" in rules  # the final drain always happens

    @pytest.mark.parametrize("engine,policy,kind,measured", [
        ("lazy-block", "paper", "turn_on_lazy", {"ev_ratio", "trend", "active"}),
        ("lazy-block", "simple", "turn_on_lazy",
         {"ev_ratio", "trend", "active"}),
        ("lazy-vertex", "paper", "partial_exchange",
         {"ev_ratio", "active", "staleness_max"}),
        ("lazy-vertex", "simple", "partial_exchange",
         {"ev_ratio", "active", "staleness_max"}),
    ])
    def test_decisions_log_the_inputs_measured(self, engine, policy, kind,
                                               measured):
        # an input the engine did not measure is absent, not a 0
        tracer = Tracer()
        run("road-ca-mini", "pagerank", engine=engine, machines=8, seed=0,
            tracer=tracer, lens=True, policy=policy)
        signals = {"ev_ratio", "trend", "active", "staleness_max"}
        logged = [set(d["attrs"]) & signals
                  for d in tracer.instants("coherency-decision")
                  if d["attrs"]["kind"] == kind]
        assert logged and all(keys == measured for keys in logged)

    def test_lens_works_without_tracer(self):
        # metrics-only mode: NULL_TRACER suppresses instants, not gauges
        result = run("road-ca-mini", "pagerank", engine="lazy-block",
                     machines=8, seed=0, lens=True)
        assert result.stats.extra["lens.probes"] > 0
        assert result.trace is None

    def test_lens_rejected_on_eager_engines(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="lens"):
            run("road-ca-mini", "pagerank", engine="powergraph-sync",
                machines=4, seed=0, lens=True)


class TestStalenessClock:
    """The lens and LazyVertexAsync's policy read
    ``MachineRuntime.delta_age``, the clock that triggers its exchanges
    (lens-on PageRank on road-ca-mini, 4 machines)."""

    def _decisions(self, tracer, kind):
        return [d["attrs"] for d in tracer.instants("coherency-decision")
                if d["attrs"]["kind"] == kind]

    def _run(self, engine):
        tracer = Tracer()
        run("road-ca-mini", "pagerank", engine=engine, machines=4, seed=0,
            tracer=tracer, lens=True)
        return tracer

    def test_lazy_block_never_reads_older_than_one(self):
        # every superstep ends in a full exchange: nothing outlives one
        stale = [p["attrs"]["staleness_max"]
                 for p in self._run("lazy-block").instants("lens-probe")]
        assert max(stale) == 1

    def test_lazy_vertex_probe_reads_the_age_it_ships(self):
        tracer = self._run("lazy-vertex")
        stale = {p["attrs"]["superstep"]: p["attrs"]["staleness_max"]
                 for p in tracer.instants("lens-probe")}
        shipped = [d for d in self._decisions(tracer, "coherency")
                   if d["rule"] == "max-delta-age" and d["verdict"] == "exchange"]
        assert shipped
        for d in shipped:
            assert stale[d["superstep"]] >= d["max_delta_age"] == 3

    def test_paper_path_without_lens_never_ticks(self):
        from repro.algorithms import make_program
        from repro.core.lazy_block_async import LazyBlockAsyncEngine
        from repro.core.transmission import build_lazy_graph
        from repro.graph.datasets import load_dataset

        pg = build_lazy_graph(load_dataset("road-ca-mini"), 4, seed=0)
        eng = LazyBlockAsyncEngine(pg, make_program("pagerank"))
        eng.run()
        assert eng.replicas is None
        assert eng.sim.stats.local_iterations > 0
        assert not any(rt.delta_age.any() for rt in eng.runtimes)


class TestDriftSampling:
    def test_single_machine_has_no_replicas_to_sample(self):
        from repro.core.transmission import build_lazy_graph
        from repro.algorithms import make_program
        from repro.graph.datasets import load_dataset
        from repro.core.lazy_block_async import LazyBlockAsyncEngine

        g = load_dataset("road-ca-mini")
        pg = build_lazy_graph(g, 1, seed=0)
        eng = LazyBlockAsyncEngine(pg, make_program("pagerank"), lens=True)
        assert eng.replicas.sample_drift() == 0.0
        eng.run()
        assert eng.lens.final_drift == 0.0

    def test_sample_is_deterministic(self):
        from repro.core.transmission import build_lazy_graph
        from repro.algorithms import make_program
        from repro.graph.datasets import load_dataset
        from repro.core.lazy_block_async import LazyBlockAsyncEngine

        g = load_dataset("road-ca-mini")
        pg = build_lazy_graph(g, 8, seed=0)
        a = LazyBlockAsyncEngine(pg, make_program("pagerank"), lens=True)
        b = LazyBlockAsyncEngine(pg, make_program("pagerank"), lens=True)
        assert a.lens.reader is a.replicas  # the lens reads, never samples
        assert np.array_equal(a.replicas.sample, b.replicas.sample)
        assert a.replicas.sample.size > 0

    def test_finish_is_idempotent(self):
        result, tracer = _lens_run()
        finals = tracer.instants("lens-final")
        assert len(finals) == 1


class TestTraceRollup:
    """Long-run trace rollup: past ``ROLLUP_AFTER`` only every
    ``ROLLUP_EVERY``-th superstep emits the per-superstep instants;
    metrics and the decision audit log always stay complete. The two
    are constants — the tests patch them down to mini-run size."""

    def _fresh_lens(self, tracer, monkeypatch, rollup_after, rollup_every):
        import repro.obs.lens as lens_mod
        from repro.algorithms import make_program
        from repro.core.transmission import build_lazy_graph
        from repro.graph.datasets import load_dataset
        from repro.runtime.machine_runtime import MachineRuntime
        from repro.runtime.result import ReplicaReader

        monkeypatch.setattr(lens_mod, "ROLLUP_AFTER", rollup_after)
        monkeypatch.setattr(lens_mod, "ROLLUP_EVERY", rollup_every)
        g = load_dataset("road-ca-mini")
        pg = build_lazy_graph(g, 2, seed=0)
        prog = make_program("pagerank")
        rts = [MachineRuntime(mg, prog) for mg in pg.machines]
        return CoherencyLens(
            ReplicaReader(pg, rts, prog.algebra), tracer=tracer
        )

    def test_instants_sampled_past_the_threshold(self, monkeypatch):
        tracer = Tracer()
        lens = self._fresh_lens(tracer, monkeypatch, 5, 3)
        for step in range(20):
            lens.begin_superstep(step)
            lens.probe()
        lens.finish(True, 0.0)
        probes = tracer.instants("lens-probe")
        # full resolution below 5, then steps 6, 9, 12, 15, 18
        assert [p["attrs"]["superstep"] for p in probes] == [
            0, 1, 2, 3, 4, 6, 9, 12, 15, 18,
        ]
        assert lens.rolled_up == 10
        assert lens.probes == 20  # the probe *counter* is never sampled
        finals = tracer.instants("lens-final")
        assert finals[0]["attrs"]["rolled_up"] == 10

    def test_metrics_complete_under_rollup(self, monkeypatch):
        tracer = Tracer()
        lens = self._fresh_lens(tracer, monkeypatch, 0, 100)
        rt = lens.runtimes[0]
        rt.delta_msg[:2] = 1.0
        rt.has_delta[:2] = True
        for step in range(10):
            lens.begin_superstep(step)
            lens.probe()
        # one probe instant (superstep 0) but every probe hit the gauges
        assert len(tracer.instants("lens-probe")) == 1
        assert lens.probes == 10

    def test_decision_log_never_sampled(self, monkeypatch):
        tracer = Tracer()
        lens = self._fresh_lens(tracer, monkeypatch, 0, 50)
        for step in range(8):
            lens.begin_superstep(step)
            lens.probe()
            lens.decision("turn_on_lazy", "adaptive", "lazy-on", trend=0.0)
        decisions = tracer.instants("coherency-decision")
        assert len(decisions) == 8  # auditor soundness: log stays complete

    def test_default_runs_are_unaffected(self):
        result, tracer = _lens_run(engine="lazy-vertex")
        # mini workloads never reach the default threshold
        assert result.stats.extra["lens.rolled_up"] == 0.0
        assert len(tracer.instants("lens-probe")) >= result.stats.supersteps
