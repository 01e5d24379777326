"""RunConfig: the one resolve path from run-level knobs to engine kwargs."""

import pytest

from repro.bench.configs import ExperimentConfig
from repro.core.policy import CoherencyPolicy, named_policy
from repro.errors import ConfigError
from repro.obs.tracer import Tracer
from repro.runtime.registry import get_engine
from repro.runtime.run_config import RunConfig

LAZY = get_engine("lazy-block")
EAGER = get_engine("powergraph-sync")


class TestConstruction:
    def test_from_kwargs_splits_fields_and_params(self):
        cfg = RunConfig.from_kwargs(
            engine="lazy-vertex", lens=True, tolerance=1e-4, source=7
        )
        assert cfg.engine == "lazy-vertex"
        assert cfg.lens is True
        assert cfg.params == {"tolerance": 1e-4, "source": 7}

    def test_from_kwargs_defaults(self):
        cfg = RunConfig.from_kwargs()
        assert cfg.engine == "lazy-block"
        assert cfg.params == {}

    def test_with_overrides_replaces_and_overlays(self):
        base = RunConfig(engine="lazy-block", params={"k": 3})
        out = base.with_overrides(engine="lazy-vertex", source=2)
        assert out.engine == "lazy-vertex"
        assert out.params == {"k": 3, "source": 2}
        # the original is untouched
        assert base.engine == "lazy-block"
        assert base.params == {"k": 3}


class TestEngineKwargs:
    def test_no_backend_key_when_unrequested(self):
        kwargs = RunConfig().engine_kwargs(LAZY)
        assert "backend" not in kwargs
        assert kwargs["max_supersteps"] == 100_000
        assert "tracer" not in kwargs

    def test_tracer_argument_overrides_config(self):
        own, per_run = Tracer(), Tracer()
        cfg = RunConfig(tracer=own)
        assert cfg.engine_kwargs(LAZY)["tracer"] is own
        assert cfg.engine_kwargs(LAZY, tracer=per_run)["tracer"] is per_run

    def test_policy_folded_for_controller_engines(self):
        pol = CoherencyPolicy("simple", mode="a2a")
        assert RunConfig(policy=pol).engine_kwargs(LAZY)["policy"] is pol
        # by name or by default: resolved to the policy value
        assert RunConfig(policy="never").engine_kwargs(LAZY)["policy"] == \
            CoherencyPolicy("never")
        assert RunConfig().engine_kwargs(LAZY)["policy"] == CoherencyPolicy()
        assert not {"controller", "coherency_mode", "max_delta_age"} & set(
            RunConfig().engine_kwargs(get_engine("lazy-vertex"))
        )

    def test_explicit_policy_rejected_on_eager_engines(self):
        with pytest.raises(ConfigError, match="eagerly coherent"):
            RunConfig(policy="paper").engine_kwargs(EAGER)

    def test_lens_gated_on_engine_options(self):
        assert RunConfig(lens=True).engine_kwargs(LAZY)["lens"] is True
        with pytest.raises(ConfigError, match="no coherency lens"):
            RunConfig(lens=True).engine_kwargs(EAGER)


class TestRemovedKnobs:
    def test_from_kwargs_rejects_removed_interval(self):
        with pytest.raises(ConfigError, match='use policy="simple"'):
            RunConfig.from_kwargs(interval="simple")

    def test_with_overrides_rejects_removed_mode(self):
        with pytest.raises(ConfigError, match="mode=..."):
            RunConfig().with_overrides(coherency_mode="a2a")

    def test_removed_fields_are_gone(self):
        names = RunConfig.field_names()
        assert "interval" not in names
        assert "coherency_mode" not in names
        assert "incremental" in names

    @pytest.mark.parametrize("build", [
        RunConfig.from_kwargs, RunConfig().with_overrides,
    ], ids=["from_kwargs", "with_overrides"])
    @pytest.mark.parametrize("knob", [
        {"backend": "process"}, {"backend": "serial"}, {"workers": 2},
    ], ids=str)
    def test_process_backend_knobs_rejected_in_one_line(self, build, knob):
        with pytest.raises(ConfigError, match="process backend") as err:
            build(source=0, **knob)
        assert "\n" not in str(err.value)

    @pytest.mark.parametrize("build", [
        RunConfig.from_kwargs, RunConfig().with_overrides,
    ], ids=["from_kwargs", "with_overrides"])
    def test_lens_opts_rejected_in_one_line(self, build):
        with pytest.raises(ConfigError, match="the lens has no options") as err:
            build(lens=True, lens_opts={"rollup_every": 5})
        assert "\n" not in str(err.value)
        assert "lens_opts" not in RunConfig.field_names()


class TestExperimentConfigBridge:
    """A flat ``--policy`` / ``--policy-opt`` pair -> the RunConfig an
    experiment carries."""

    @staticmethod
    def _run_config(policy=None, policy_opts=None) -> RunConfig:
        return ExperimentConfig(
            "road-ca-mini", "cc",
            run=RunConfig(policy=named_policy(policy, policy_opts or {})),
        ).run

    def test_named_policy_resolves_with_opts(self):
        rc = self._run_config(
            policy="simple", policy_opts={"max_delta_age": 2}
        )
        assert isinstance(rc.policy, CoherencyPolicy)
        assert rc.policy.controller == "simple"
        assert rc.policy.max_delta_age == 2

    def test_policy_opts_alone_overlay_the_paper_policy(self):
        rc = self._run_config(
            policy_opts={"ev_threshold": 5.0, "mode": "a2a"}
        )
        assert isinstance(rc.policy, CoherencyPolicy)
        assert rc.policy.controller == "paper"
        assert dict(rc.policy.options) == {"ev_threshold": 5.0}
        assert rc.policy.mode == "a2a"

    def test_no_policy_means_engine_default(self):
        rc = self._run_config()
        assert rc.policy is None

    def test_lens_flag_and_params_resolve(self):
        exp = ExperimentConfig(
            "road-ca-mini", "pagerank",
            run=RunConfig(lens=True, params={"tolerance": 1e-5}),
        )
        assert exp.run.engine_kwargs(LAZY)["lens"] is True
        # figure defaults overlaid with explicit params
        assert exp.resolved_params() == {"tolerance": 1e-5}
