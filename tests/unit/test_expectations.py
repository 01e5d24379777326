"""Tests for the paper-expectations data module."""

from repro.bench.expectations import (
    FIG_EXPECTATIONS,
    PAPER_CLUSTER,
    PAPER_INTERVAL_RULE,
    PAPER_MEAN_SPEEDUPS,
    PAPER_SPEEDUP_RANGE,
)
from repro.core import CoherencyController


class TestExpectations:
    def test_speedup_range_as_published(self):
        assert PAPER_SPEEDUP_RANGE == (1.25, 10.69)

    def test_mean_speedups_cover_all_algorithms(self):
        assert set(PAPER_MEAN_SPEEDUPS) == {"kcore", "pagerank", "sssp", "cc"}
        lo, hi = PAPER_SPEEDUP_RANGE
        assert all(lo <= v <= hi for v in PAPER_MEAN_SPEEDUPS.values())

    def test_interval_rule_matches_default_model(self):
        m = CoherencyController()
        assert m.ev_threshold == PAPER_INTERVAL_RULE["ev_threshold"]
        assert m.trend_threshold == PAPER_INTERVAL_RULE["trend_threshold"]
        assert m.budget_multiplier == PAPER_INTERVAL_RULE["budget_multiplier"]

    def test_cluster_facts(self):
        assert PAPER_CLUSTER["machines"] == 48
        assert PAPER_CLUSTER["partitioner"] == "coordinated"

    def test_every_expectation_names_an_existing_bench(self):
        import os

        root = os.path.join(os.path.dirname(__file__), "..", "..")
        for exp in FIG_EXPECTATIONS:
            assert os.path.exists(os.path.join(root, exp.bench)), exp.bench

    def test_every_figure_covered(self):
        figures = {e.figure for e in FIG_EXPECTATIONS}
        assert {"Table 1", "Fig 9", "Fig 10", "Fig 11", "Fig 8(a)", "Fig 8(b)"} <= figures
