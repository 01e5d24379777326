"""Engine-registry unit tests: lookup, registration guards, spec-driven
program construction."""

import pytest

from repro.errors import AlgorithmError, ConfigError
from repro.runtime.registry import (
    EngineSpec,
    engine_names,
    engine_specs,
    get_engine,
    register,
)


class TestLookup:
    def test_builtin_names(self):
        assert engine_names() == (
            "lazy-block",
            "lazy-vertex",
            "powergraph-async",
            "powergraph-gas-sync",
            "powergraph-sync",
        )

    def test_get_engine_returns_spec(self):
        spec = get_engine("lazy-block")
        assert spec.name == "lazy-block"
        assert spec.family == "lazy"
        assert "policy" in spec.options

    def test_unknown_engine_lists_known(self):
        with pytest.raises(ConfigError, match="unknown engine 'nope'; known:"):
            get_engine("nope")

    def test_specs_sorted_and_named(self):
        specs = engine_specs()
        assert [s.name for s in specs] == list(engine_names())
        for s in specs:
            assert s.cls.name == s.name


class TestRegistrationGuards:
    def test_duplicate_name_rejected(self):
        with pytest.raises(ConfigError, match="already registered"):
            register(EngineSpec(name="lazy-block", cls=object, family="lazy"))

    def test_bad_family_rejected(self):
        with pytest.raises(ConfigError, match="family"):
            register(EngineSpec(name="x-test", cls=object, family="bogus"))

    def test_bad_program_api_rejected(self):
        with pytest.raises(ConfigError, match="program_api"):
            register(EngineSpec(
                name="x-test", cls=object, family="eager", program_api="bogus"
            ))


class TestProgramConstruction:
    def test_delta_spec_builds_delta_program(self):
        from repro.algorithms import SSSPProgram

        prog = get_engine("lazy-block").make_program("sssp", source=2)
        assert isinstance(prog, SSSPProgram)
        assert prog.source == 2

    def test_gas_spec_builds_gas_program(self):
        from repro.powergraph.gas import GASConnectedComponents

        prog = get_engine("powergraph-gas-sync").make_program("cc")
        assert isinstance(prog, GASConnectedComponents)

    def test_gas_spec_rejects_delta_only_algorithms(self):
        with pytest.raises(AlgorithmError, match="no classic GAS"):
            get_engine("powergraph-gas-sync").make_program("kcore")

    def test_program_apis_split_as_declared(self):
        for spec in engine_specs():
            expected = "gas" if spec.name == "powergraph-gas-sync" else "delta"
            assert spec.program_api == expected
