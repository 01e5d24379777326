"""Unit tests for RNG, timer and validation utilities."""

import time

import numpy as np
import pytest

from repro.utils.rng import RngStream, derive_seed, make_rng
from repro.utils.timer import Timer
from repro.utils.validation import (
    check_nonnegative,
    check_positive,
    check_probability,
    check_type,
)


class TestRng:
    def test_derive_seed_stable(self):
        assert derive_seed(42, "graph") == derive_seed(42, "graph")

    def test_derive_seed_separates_labels(self):
        assert derive_seed(42, "graph") != derive_seed(42, "partition")

    def test_derive_seed_separates_parents(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_derive_seed_in_63_bits(self):
        for label in ("a", "b", "long-label-with-text"):
            s = derive_seed(123456789, label)
            assert 0 <= s < 2**63

    def test_make_rng_deterministic(self):
        a = make_rng(7).integers(0, 1000, 10)
        b = make_rng(7).integers(0, 1000, 10)
        assert np.array_equal(a, b)

    def test_make_rng_none_is_fixed_default(self):
        assert np.array_equal(
            make_rng(None).integers(0, 100, 5), make_rng(None).integers(0, 100, 5)
        )

    def test_make_rng_passthrough(self):
        gen = np.random.default_rng(1)
        assert make_rng(gen) is gen

    def test_make_rng_rejects_strings(self):
        with pytest.raises(TypeError):
            make_rng("seed")

    def test_stream_caching(self):
        s = RngStream(9)
        assert s.get("a") is s.get("a")
        assert s.get("a") is not s.get("b")

    def test_stream_independence(self):
        s1 = RngStream(9)
        s2 = RngStream(9)
        s1.get("other").integers(0, 100, 50)  # drawing elsewhere
        assert np.array_equal(
            s1.get("x").integers(0, 100, 5), s2.get("x").integers(0, 100, 5)
        )

    def test_child_stream(self):
        s = RngStream(9)
        assert s.child("sub").seed == derive_seed(9, "sub")


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_stop_before_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()


class TestValidation:
    def test_check_type(self):
        assert check_type(3, int, "x") == 3
        with pytest.raises(TypeError, match="x must be int"):
            check_type("3", int, "x")

    def test_check_type_tuple(self):
        assert check_type(3.0, (int, float), "x") == 3.0
        with pytest.raises(TypeError, match="int or float"):
            check_type("s", (int, float), "x")

    def test_check_positive(self):
        assert check_positive(1.0, "x") == 1.0
        with pytest.raises(ValueError):
            check_positive(0.0, "x")

    def test_check_nonnegative(self):
        assert check_nonnegative(0.0, "x") == 0.0
        with pytest.raises(ValueError):
            check_nonnegative(-1, "x")

    def test_check_probability(self):
        assert check_probability(0.5, "p") == 0.5
        for bad in (-0.1, 1.1):
            with pytest.raises(ValueError):
                check_probability(bad, "p")
