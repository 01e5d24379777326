"""Unit tests for the RNG and timer utilities."""

import time

import numpy as np
import pytest

from repro.utils.rng import derive_seed, make_rng
from repro.utils.timer import Timer


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


class TestTimer:
    def test_context_manager(self):
        with Timer() as t:
            time.sleep(0.01)
        assert t.elapsed >= 0.005

    def test_stop_before_start(self):
        with pytest.raises(RuntimeError):
            Timer().stop()
