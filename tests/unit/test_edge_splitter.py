"""Unit tests for the parallel-edges splitter (paper §4.1)."""

import numpy as np
import pytest

from repro.errors import PartitionError
from repro.partition.edge_splitter import (
    EdgeSplitConfig,
    parallel_edge_budget,
    select_parallel_edges,
)


class TestBudget:
    def test_paper_equations(self):
        cfg = EdgeSplitConfig(textra=0.1, teps=50_000)
        P = 48
        pe_high, pe_low = parallel_edge_budget(P, cfg)
        denom = (P - 1) + 550.0 * P / 3.0
        expected_high = 50_000 * 0.1 * P / denom
        assert pe_high == round(expected_high)
        assert pe_low == round(550.0 * expected_high)

    def test_zero_textra_means_no_split(self):
        cfg = EdgeSplitConfig(textra=0.0)
        assert parallel_edge_budget(48, cfg) == (0, 0)

    def test_single_machine_no_split(self):
        assert parallel_edge_budget(1, EdgeSplitConfig()) == (0, 0)

    def test_budget_grows_with_textra(self):
        lo = parallel_edge_budget(48, EdgeSplitConfig(textra=0.05))
        hi = parallel_edge_budget(48, EdgeSplitConfig(textra=0.5))
        assert hi[0] >= lo[0] and hi[1] > lo[1]

    def test_config_validation(self):
        with pytest.raises(PartitionError):
            EdgeSplitConfig(textra=-1)
        with pytest.raises(PartitionError):
            EdgeSplitConfig(teps=0)


class TestSelection:
    def test_returns_valid_unique_ids(self, social_graph):
        ids = select_parallel_edges(social_graph, 8)
        assert ids.size == np.unique(ids).size
        assert ids.size == 0 or (ids.min() >= 0 and ids.max() < social_graph.num_edges)

    def test_budget_caps_selection(self, social_graph):
        cfg = EdgeSplitConfig(textra=0.001, teps=50_000)
        small = select_parallel_edges(social_graph, 8, cfg)
        big = select_parallel_edges(
            social_graph, 8, EdgeSplitConfig(textra=1.0, teps=50_000)
        )
        assert small.size <= big.size

    def test_high_high_edges_selected_first(self, social_graph):
        # a budget of a few high-degree pairs, among more candidates:
        # the pairs of highest combined degree (>= 90th percentile both)
        cfg = EdgeSplitConfig(textra=0.02, teps=50_000)
        pe_high, _ = parallel_edge_budget(8, cfg)
        deg = social_graph.degrees()
        hi = np.percentile(deg, 90)
        src_deg, dst_deg = deg[social_graph.src], deg[social_graph.dst]
        candidates = np.flatnonzero((src_deg >= hi) & (dst_deg >= hi))
        assert 0 < pe_high < candidates.size
        ids = select_parallel_edges(social_graph, 8, cfg)
        picked = np.intersect1d(ids, candidates)
        assert picked.size == pe_high
        combined = src_deg + dst_deg
        passed = np.setdiff1d(candidates, picked)
        assert combined[picked].min() >= combined[passed].max()

    def test_low_low_edges_have_low_degrees(self, er_graph):
        # every pick that is not a high-degree pair has an out-degree
        # source and a target degree at or below the median
        ids = select_parallel_edges(
            er_graph, 8, EdgeSplitConfig(textra=0.5, teps=50_000)
        )
        deg, out_deg = er_graph.degrees(), er_graph.out_degrees()
        hi, lo = np.percentile(deg, 90), np.percentile(deg, 50)
        src, dst = er_graph.src[ids], er_graph.dst[ids]
        low = ids[(deg[src] < hi) | (deg[dst] < hi)]
        assert low.size
        assert np.all(out_deg[er_graph.src[low]] <= lo)
        assert np.all(deg[er_graph.dst[low]] <= lo)

    def test_zero_budget_empty(self, er_graph):
        ids = select_parallel_edges(er_graph, 8, EdgeSplitConfig(textra=0.0))
        assert ids.size == 0

    def test_empty_graph(self):
        from repro.graph.digraph import DiGraph

        ids = select_parallel_edges(DiGraph(3, [], []), 8)
        assert ids.size == 0
