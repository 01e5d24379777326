"""Unit tests for the coherency controllers and the policy value
(repro.core.policy), the paper's adaptive interval rule (§4.2.1)
included."""

import inspect
import math
import warnings

import numpy as np
import pytest

from repro.core.policy import (
    CoherencyController,
    CoherencyPolicy,
    CoherencySignals,
    NeverLazyController,
    SimpleController,
    controller_names,
    fit_interval_rule,
    named_policy,
    resolve_policy,
)
from repro.errors import ConfigError


def _signals(**overrides):
    base = dict(superstep=0, ev_ratio=2.0, trend=0.0, active=10)
    base.update(overrides)
    return CoherencySignals(**base)


def _lazy(controller, ev_ratio, trend):
    return controller.turn_on_lazy(_signals(ev_ratio=ev_ratio, trend=trend))


class TestCoherencySignals:
    def test_as_inputs_is_flat_and_complete(self):
        s = _signals(staleness_max=2)
        inputs = s.as_inputs()
        assert inputs["ev_ratio"] == 2.0
        assert inputs["staleness_max"] == 2
        assert set(inputs) == {"ev_ratio", "trend", "active", "staleness_max"}

    def test_unmeasured_signals_default_to_none(self):
        # an input nobody measured is absent from the decision record,
        # not a placeholder 0 a reader would take for a measurement
        s = CoherencySignals(superstep=0, ev_ratio=2.0)
        assert (s.trend, s.active, s.staleness_max) == (None, None, None)
        assert s.as_inputs() == {"ev_ratio": 2.0}
        s = _signals()
        assert s.staleness_max is None
        assert set(s.as_inputs()) == {"ev_ratio", "trend", "active"}
        # the pending mass / count and the drift sample are the lens
        # probe's readings, not controller inputs
        assert not {"pending_mass", "pending_replicas", "drift_sample"} & set(
            vars(s)
        )


class TestAdaptiveRule:
    def test_paper_disjunction(self):
        m = CoherencyController()
        # E/V <= 10 -> lazy regardless of trend (road graphs)
        assert _lazy(m, 2.4, -0.5)
        # high E/V, ascending frontier -> eager
        assert not _lazy(m, 23.8, -0.1)
        # high E/V, descending >= 7% -> lazy
        assert _lazy(m, 23.8, 0.08)

    def test_boundaries_inclusive(self):
        m = CoherencyController()
        assert _lazy(m, 10.0, 0.0)
        assert _lazy(m, 11.0, 0.07)
        assert not _lazy(m, 10.01, 0.069)

    def test_budget_is_3t(self):
        m = CoherencyController()
        assert m.local_budget(0.5) == pytest.approx(1.5)

    def test_custom_thresholds(self):
        m = CoherencyController(ev_threshold=5.0, budget_multiplier=2.0)
        assert not _lazy(m, 6.0, 0.0)
        assert m.local_budget(1.0) == 2.0


class TestOtherStrategies:
    def test_simple_always_on_unbounded(self):
        m = SimpleController()
        assert _lazy(m, 100.0, -1.0)
        assert math.isinf(m.local_budget(1.0))

    def test_never(self):
        m = NeverLazyController()
        assert not _lazy(m, 1.0, 1.0)
        assert m.local_budget(1.0) == 0.0

    def test_factory(self):
        rules = {
            name: CoherencyPolicy(name).make_controller().rule_name
            for name in ("paper", "simple", "never")
        }
        assert rules == {"paper": "adaptive", "simple": "simple",
                         "never": "never"}
        with pytest.raises(ConfigError):
            CoherencyPolicy("bogus")


class TestFitting:
    def test_recovers_separable_rule(self):
        # ground truth: lazy good iff ev <= 8 or trend >= 0.1
        samples = []
        for ev in (2.0, 5.0, 8.0, 12.0, 20.0):
            for trend in (-0.2, 0.0, 0.1, 0.3):
                samples.append((ev, trend, ev <= 8 or trend >= 0.1))
        rule = fit_interval_rule(samples).make_controller()
        for ev, trend, label in samples:
            assert _lazy(rule, ev, trend) == label

    def test_requires_samples(self):
        with pytest.raises(ConfigError):
            fit_interval_rule([])

    def test_candidate_grids_honoured(self):
        samples = [(2.0, 0.0, True), (20.0, 0.0, False)]
        rule = fit_interval_rule(
            samples, ev_candidates=[10.0], trend_candidates=[0.5]
        )
        assert rule.controller == "paper"
        assert dict(rule.options) == {
            "ev_threshold": 10.0, "trend_threshold": 0.5,
        }


class TestPaperRuleController:
    def test_base_controller_is_the_paper_rule(self):
        c = CoherencyController()
        assert (c.name, c.rule_name) == ("paper", "adaptive")
        # the paper rule: E/V <= 10 turns lazy mode on
        assert c.turn_on_lazy(_signals(ev_ratio=2.0)) is True
        assert c.turn_on_lazy(_signals(ev_ratio=50.0, trend=0.0)) is False

    def test_accumulates_until_the_oldest_delta_is_due(self):
        c = CoherencyController()
        assert c.partial_exchange(_signals(staleness_max=2), 3) is False
        assert c.partial_exchange(_signals(staleness_max=3), 3) is True

    def test_default_partial_exchange_is_the_age_trigger(self):
        # the strawmen change lazy-block's rule only: on LazyVertexAsync
        # every controller exchanges once the oldest delta is due
        for cls in (CoherencyController, SimpleController, NeverLazyController):
            c = cls()
            for age in range(6):
                assert c.partial_exchange(_signals(staleness_max=age), 4) \
                    is (age >= 4)

    def test_strawmen_name_their_rule(self):
        for cls in (SimpleController, NeverLazyController):
            c = cls()
            assert c.name == c.rule_name == CoherencyPolicy(c.name).controller
        assert NeverLazyController().turn_on_lazy(_signals(ev_ratio=1.0)) is False


class TestMakeController:
    def test_round_trip_by_name(self):
        assert controller_names() == ("never", "paper", "simple")
        for name in controller_names():
            c = CoherencyPolicy(name).make_controller()
            assert c.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown coherency policy"):
            CoherencyPolicy("bogus")

    def test_unknown_options_rejected(self):
        with pytest.raises(ConfigError, match="has no option nonsense"):
            CoherencyPolicy(options=(("nonsense", 1.0),))

    def test_options_forwarded(self):
        pol = CoherencyPolicy("paper", options=(("ev_threshold", 5.0),))
        assert pol.make_controller().ev_threshold == 5.0


class TestCoherencyPolicy:
    def test_defaults_mirror_the_paper(self):
        pol = CoherencyPolicy()
        assert (pol.controller, pol.mode, pol.max_delta_age, pol.options) \
            == ("paper", "dynamic", 3, ())

    def test_validation(self):
        with pytest.raises(ConfigError, match="controller"):
            CoherencyPolicy(controller="bogus")
        with pytest.raises(ConfigError, match="mode"):
            CoherencyPolicy(mode="carrier-pigeon")
        with pytest.raises(ConfigError, match="max_delta_age"):
            CoherencyPolicy(max_delta_age=0)

    def test_is_hashable(self):
        assert hash(CoherencyPolicy()) == hash(CoherencyPolicy())
        assert CoherencyPolicy() != CoherencyPolicy(controller="simple")

    def test_make_controller_is_fresh_per_call(self):
        pol = CoherencyPolicy(controller="simple")
        a, b = pol.make_controller(), pol.make_controller()
        assert a is not b  # one controller per engine run
        assert isinstance(a, SimpleController)

    def test_options_reach_the_controller(self):
        pol = CoherencyPolicy(
            controller="paper", options=(("budget_multiplier", 2.0),)
        )
        assert pol.make_controller().budget_multiplier == 2.0

    def test_apply_opts_routes_fields_and_options(self):
        base = CoherencyPolicy("paper")
        pol = base.apply_opts({
            "max_delta_age": 5, "mode": "a2a", "ev_threshold": 5,
        })
        assert pol.max_delta_age == 5
        assert pol.mode == "a2a"
        assert dict(pol.options)["ev_threshold"] == 5.0
        # the original policy is untouched (frozen dataclass)
        assert base.max_delta_age == 3

    def test_apply_opts_rejects_non_numeric_controller_options(self):
        with pytest.raises(ConfigError, match="numeric"):
            CoherencyPolicy("paper").apply_opts({"ev_threshold": "lots"})


class TestOptionsCheckedWhenBuilt:
    """A bad option fails as the policy is built, in one line naming the
    valid options — not after the graph is loaded and partitioned."""

    @pytest.mark.parametrize("name, opts, valid", [
        ("paper", {"ev_treshold": 5.0}, "ev_threshold, trend_threshold"),
        ("paper", {"mass_floor": 0.3}, "ev_threshold, trend_threshold"),
        (None, {"interval": "simple"}, "ev_threshold, trend_threshold"),
        ("simple", {"ev_threshold": 5.0}, "options: none"),
    ], ids=["typo", "other-policy", "interval", "no-options"])
    def test_unknown_option_lists_the_valid_names(self, name, opts, valid):
        with pytest.raises(ConfigError, match="has no option") as err:
            named_policy(name, opts)
        assert valid in str(err.value)
        assert "\n" not in str(err.value)

    def test_option_values_checked_too(self):
        with pytest.raises(ConfigError, match="must be numeric"):
            CoherencyPolicy("paper", options=(("ev_threshold", "ten"),))

    @pytest.mark.parametrize("opt", ["mass_flor=0.3", "interval=simple"])
    def test_cli_fails_before_the_run_starts(self, monkeypatch, opt):
        import repro.cli as cli

        def started(*args, **kwargs):
            raise AssertionError("the run started")

        monkeypatch.setattr(cli, "run", started)
        with pytest.raises(ConfigError, match="has no option"):
            cli.main(["run", "--algo", "cc", "--engine", "lazy-vertex",
                      "--policy", "paper", "--policy-opt", opt])


class TestPolicyRegistry:
    def test_builtin_vocabulary(self):
        assert controller_names() == ("never", "paper", "simple")
        assert CoherencyPolicy("never").make_controller().rule_name == "never"
        assert isinstance(
            CoherencyPolicy("simple").make_controller(), SimpleController
        )

    def test_unknown_policy_rejected(self):
        with pytest.raises(ConfigError, match="unknown coherency policy"):
            resolve_policy("bogus")

    def test_cli_policy_choices_are_the_controller_names(self):
        from repro.cli import build_parser

        (sub,) = [a for a in build_parser()._actions
                  if getattr(a, "dest", "") == "command"]
        flags = [a for p in sub.choices.values() for a in p._actions
                 if "--policy" in a.option_strings]
        assert len(flags) >= 3  # run, serve, query
        for flag in flags:
            assert tuple(flag.choices) == controller_names()

    def test_interval_model_module_is_gone(self):
        import importlib.util

        assert importlib.util.find_spec("repro.core.interval_model") is None

    def test_deleted_names_stay_deleted(self):
        import repro
        import repro.core
        import repro.core.coherency as coherency_mod
        import repro.core.policy as policy_mod

        gone = {"IntervalModel", "AdaptiveIntervalModel",
                "SimpleIntervalModel", "NeverLazyModel", "make_interval_model",
                "register_policy", "get_policy", "policy_names",
                "PaperRuleController", "make_controller",
                "StalenessController", "extended_signals",
                "BatchedController", "ExchangeDirective", "no_participants",
                "ParticipantFn", "needs_signals"}
        for module in (repro, repro.core, policy_mod, coherency_mod):
            assert not gone & set(vars(module)), module.__name__
        assert not {"interval", "to_dict", "make_interval_model"} & set(
            dir(CoherencyPolicy)
        )
        assert "needs_signals" not in dir(CoherencyController)
        from repro.core.coherency import CoherencyExchanger

        assert "participants" not in inspect.signature(
            CoherencyExchanger.exchange
        ).parameters
        # the JSON study-file runner went with ``repro experiment``
        import importlib.util

        assert importlib.util.find_spec("repro.bench.experiment_file") is None
        import repro.bench

        assert not {"load_experiment_file", "run_experiment_file"} & set(
            vars(repro.bench)
        )

    @pytest.mark.parametrize("engine", ["lazy-block", "lazy-vertex"])
    def test_lazy_engines_take_one_policy_argument(self, engine):
        from repro.runtime.registry import get_engine

        spec = get_engine(engine)
        params = set(inspect.signature(spec.cls).parameters)
        assert "policy" in params
        assert not {"controller", "coherency_mode", "max_delta_age"} & params
        assert spec.options == ("policy", "lens")


class TestResolvePolicy:
    def test_defaults_to_the_paper_policy_silently(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pol = resolve_policy()
        assert pol == CoherencyPolicy("paper") == CoherencyPolicy()

    def test_policy_name_resolves_through_the_registry(self):
        assert resolve_policy(policy="simple") == CoherencyPolicy(
            controller="simple"
        )
        pol = CoherencyPolicy("simple", max_delta_age=4)
        assert resolve_policy(pol) is pol

    def test_takes_the_policy_and_nothing_else(self):
        assert list(inspect.signature(resolve_policy).parameters) == ["policy"]


class TestSignalTap:
    """The pending replica state, measured through the engine's one
    ``ReplicaReader`` (the lens probe's and LazyVertexAsync's
    controller's readings)."""

    @pytest.fixture(scope="class")
    def tap_setup(self):
        from repro.algorithms import make_program
        from repro.core.transmission import build_lazy_graph
        from repro.graph.datasets import load_dataset
        from repro.runtime.machine_runtime import MachineRuntime
        from repro.runtime.result import ReplicaReader

        g = load_dataset("road-ca-mini")
        pg = build_lazy_graph(g, 4, seed=0)
        prog = make_program("pagerank")
        rts = [MachineRuntime(mg, prog) for mg in pg.machines]
        return rts, pg, prog, lambda: ReplicaReader(pg, rts, prog.algebra)

    def test_quiet_cluster_reads_zero(self, tap_setup):
        rts, pg, prog, reader = tap_setup
        r = reader()
        masses, counts = r.pending()
        assert len(masses) == len(counts) == pg.num_machines
        assert not any(masses) and not any(counts)
        assert r.staleness_max() == 0
        assert r.sample_drift() == 0.0

    def test_pending_deltas_are_measured(self, tap_setup):
        rts, pg, prog, reader = tap_setup
        rt = rts[0]
        rt.delta_msg[:3] = 2.0
        rt.has_delta[:3] = True
        rt.delta_age[:3] = 4
        rt.delta_age[3] = 9  # no pending delta there: not read
        try:
            r = reader()
            masses, counts = r.pending()
            assert (masses[0], counts[0]) == (6.0, 3)
            assert not any(masses[1:]) and not any(counts[1:])
            assert r.staleness_max() == 4
        finally:
            rt.delta_msg[:3] = prog.algebra.identity
            rt.has_delta[:3] = False
            rt.delta_age[:4] = 0

    def test_drift_sample_is_deterministic(self, tap_setup):
        rts, pg, prog, reader = tap_setup
        a, b = reader(), reader()
        assert np.array_equal(a.sample, b.sample) and a.sample.size == 32
        assert a.sample_drift() == b.sample_drift()
        # a mirror that drifts from its master shows in the sample
        vdata = rts[0].state["vdata"]
        _, idx = a._sample_slots[0]
        old = vdata[idx[0]]
        vdata[idx[0]] = old + 0.5
        try:
            assert a.sample_drift() == pytest.approx(0.5)
        finally:
            vdata[idx[0]] = old

    def test_one_full_pass_serves_the_result_and_the_lens(self, monkeypatch):
        """A lens-on run measures the full cross-replica gap once: the
        replicas' gap, the lens's final drift and the result's
        disagreement are one float."""
        import repro.runtime.base_engine as base_engine
        from repro.algorithms import make_program
        from repro.core.lazy_block_async import LazyBlockAsyncEngine
        from repro.core.transmission import build_lazy_graph
        from repro.graph.datasets import load_dataset

        calls = []
        real = base_engine.replica_disagreement

        def counted(pgraph, runtimes):
            calls.append(1)
            return real(pgraph, runtimes)

        monkeypatch.setattr(base_engine, "replica_disagreement", counted)
        pg = build_lazy_graph(load_dataset("road-ca-mini"), 8, seed=0)
        eng = LazyBlockAsyncEngine(
            pg, make_program("pagerank", tolerance=1e-3), lens=True
        )
        assert not hasattr(eng.lens, "full_drift")
        result = eng.run()
        assert len(calls) == 1
        gap = real(eng.pgraph, eng.runtimes)
        assert gap > 0.0  # tolerance-level float noise, not a trivial 0
        assert eng.lens.final_drift == gap
        assert result.replica_max_disagreement == gap
        assert result.stats.extra["lens.final_drift"] == gap


class TestShimRemoval:
    """The pre-PR-10 kwargs are gone; the policy spelling is the API."""

    def _counters(self, result):
        s = result.stats
        return (s.supersteps, s.coherency_points, s.global_syncs,
                s.comm_messages, s.comm_bytes)

    def test_interval_kwarg_is_a_config_error(self):
        from repro.run_api import run

        with pytest.raises(ConfigError, match='use policy="simple"'):
            run("road-ca-mini", "pagerank", engine="lazy-block",
                machines=4, seed=0, interval="simple")

    def test_coherency_mode_kwarg_is_a_config_error(self):
        from repro.run_api import run

        with pytest.raises(ConfigError, match="mode=..."):
            run("road-ca-mini", "cc", engine="lazy-vertex",
                machines=4, seed=0, coherency_mode="a2a")

    @pytest.mark.parametrize("knob, hint", [
        ({"interval": "never"}, 'use policy="simple" .* or --policy simple'),
        ({"coherency_mode": "a2a"}, "--policy-opt mode=..."),
        ({"max_delta_age": 4}, "--policy-opt max_delta_age=..."),
        ({"lens_opts": {"rollup_every": 5}},
         "the lens has no options; pass lens=True"),
    ], ids=lambda v: next(iter(v)) if isinstance(v, dict) else "")
    def test_removed_knobs_name_their_replacement(self, knob, hint):
        # the one table of removed knobs, asserted where callers hit it
        from repro.runtime.run_config import RunConfig

        with pytest.raises(ConfigError, match=hint) as err:
            RunConfig.from_kwargs(**knob)
        assert "\n" not in str(err.value)

    def test_policy_interval_spelling_runs(self):
        from repro.run_api import run

        r = run("road-ca-mini", "pagerank", engine="lazy-block",
                machines=4, seed=0,
                policy="simple")
        assert r.stats.supersteps > 0

    def test_default_run_equals_explicit_paper_policy(self):
        from repro.run_api import run

        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            base = run("road-ca-mini", "pagerank", engine="lazy-vertex",
                       machines=4, seed=0)
            pol = run("road-ca-mini", "pagerank", engine="lazy-vertex",
                      machines=4, seed=0, policy="paper")
        assert self._counters(base) == self._counters(pol)
        assert np.array_equal(base.values, pol.values)

    def test_policy_rejected_on_eager_engines(self):
        from repro.run_api import run

        with pytest.raises(ConfigError, match="eagerly coherent"):
            run("road-ca-mini", "pagerank", engine="powergraph-sync",
                machines=4, seed=0, policy="simple")
