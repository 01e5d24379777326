"""Unit tests for the Table 1 dataset registry."""

import pytest

from repro.errors import DatasetError
from repro.graph.datasets import dataset_info, dataset_names, load_dataset
from repro.graph.properties import degree_gini, estimate_diameter


class TestRegistry:
    def test_eight_datasets(self):
        assert len(dataset_names()) == 8

    def test_info_fields(self):
        info = dataset_info("twitter-mini")
        assert info.category == "social"
        assert info.paper_name == "twitter"
        assert info.paper_lambda == pytest.approx(5.52)

    def test_unknown_name(self):
        with pytest.raises(DatasetError, match="unknown"):
            dataset_info("nope")
        with pytest.raises(DatasetError, match="unknown"):
            load_dataset("nope")

    def test_every_dataset_builds(self):
        for name in dataset_names():
            g = load_dataset(name)
            assert g.num_vertices > 1000
            assert g.num_edges > g.num_vertices
            assert g.name == name

    def test_cache_returns_same_object(self):
        assert load_dataset("road-ca-mini") is load_dataset("road-ca-mini")

    def test_weighted_variant(self):
        g = load_dataset("road-ca-mini", weighted=True)
        assert g.weights is not None
        assert load_dataset("road-ca-mini").weights is None

    def test_road_weights_near_uniform(self):
        g = load_dataset("road-usa-mini", weighted=True)
        assert g.weights.max() <= 1.3 + 1e-9

    def test_ev_ratio_tracks_paper(self):
        # E/V should be within 30% of the Table 1 value for every analog
        for name in dataset_names():
            info = dataset_info(name)
            g = load_dataset(name)
            assert g.ev_ratio == pytest.approx(info.paper_ev_ratio, rel=0.35), name


class TestClassSignatures:
    def test_road_graphs_high_diameter_flat_degree(self):
        for name in ("road-usa-mini", "road-ca-mini"):
            g = load_dataset(name)
            assert estimate_diameter(g, 1) > 40, name
            assert degree_gini(g) < 0.3, name

    def test_social_graphs_skewed(self):
        for name in ("twitter-mini", "enwiki-mini"):
            assert degree_gini(load_dataset(name)) > 0.5, name

    def test_web_between(self):
        # web analogs sit between road (<0.1) and social (>0.5) skew
        g = load_dataset("web-uk-mini")
        assert 0.12 < degree_gini(g) < 0.6
