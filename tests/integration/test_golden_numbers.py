"""Golden regression pins: exact deterministic counters for fixed configs.

The whole library is deterministic given seeds, so a handful of cells
can be pinned exactly. If one of these fails after a change, either the
change is a bug or it deliberately altered engine/partitioner behaviour
— in which case EXPERIMENTS.md's numbers must be regenerated
(``python -m repro figures``) and these pins updated alongside it.
Counters only (no modeled time): the cost *model* is tunable by design;
the protocol behaviour is not.
"""

import numpy as np
import pytest

import repro


@pytest.fixture(scope="module")
def cc_road():
    return repro.run("road-ca-mini", "cc", machines=8, seed=0)


class TestGoldenLazyCC:
    def test_supersteps(self, cc_road):
        assert cc_road.stats.supersteps == 21

    def test_syncs_equal_coherency_points(self, cc_road):
        assert cc_road.stats.global_syncs == 22
        assert cc_road.stats.coherency_points == 22

    def test_messages(self, cc_road):
        assert cc_road.stats.comm_messages == 6642
        assert cc_road.stats.comm_bytes == 6642 * 16

    def test_component_count(self, cc_road):
        assert np.unique(cc_road.values).size == 1  # connected road grid


class TestGoldenEagerSSSP:
    @pytest.fixture(scope="class")
    def run(self):
        return repro.run(
            "road-ca-mini", "sssp", engine="powergraph-sync",
            machines=8, seed=0,
        )

    def test_cost_structure(self, run):
        assert run.stats.global_syncs == 3 * run.stats.supersteps + 1
        assert run.stats.comm_rounds == 2 * run.stats.supersteps + 1

    def test_supersteps_pinned(self, run):
        assert run.stats.supersteps == 89

    def test_reachability(self, run):
        assert np.isfinite(run.values).all()


class TestGoldenPartition:
    def test_lambda_pinned(self):
        g = repro.load_dataset("road-ca-mini")
        pg = repro.build_lazy_graph(g, 48, seed=1)
        assert pg.replication_factor == pytest.approx(1.648, abs=0.002)

    def test_twitter_lambda_pinned(self):
        g = repro.load_dataset("twitter-mini")
        pg = repro.build_lazy_graph(g, 48, seed=1)
        assert pg.replication_factor == pytest.approx(8.944, abs=0.002)

    def test_dataset_sizes_pinned(self):
        g = repro.load_dataset("road-ca-mini")
        assert (g.num_vertices, g.num_edges) == (2025, 5708)
        g = repro.load_dataset("enwiki-mini")
        assert (g.num_vertices, g.num_edges) == (2000, 50136)


class TestGoldenPolicyCoherencyPoints:
    """PageRank on road-ca-mini / 8 machines under the paper rule on
    both lazy engines (the matrix ``benchmarks/bench_policy_ablation.py``
    audits): the coherency-point counts are protocol behaviour."""

    @pytest.mark.parametrize(
        "engine, policy, points",
        [
            ("lazy-vertex", "paper", 25),
            ("lazy-block", "paper", 23),
        ],
    )
    def test_coherency_points(self, engine, policy, points):
        result = repro.run(
            "road-ca-mini", "pagerank", engine=engine, machines=8,
            policy=policy,
        )
        assert result.stats.coherency_points == points


class TestCommittedFigures:
    """``results/results.json`` is what the code computes: the tier-1
    shadow of ``repro figures --out /tmp/r && diff -r /tmp/r results``
    (one graph's Fig 9/10/11 cells and Table 1 row, exactly)."""

    @pytest.fixture(scope="class")
    def committed(self):
        import json
        import os

        path = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "results", "results.json",
        )
        with open(path) as fh:
            return json.load(fh)

    @pytest.mark.parametrize("algorithm", ["kcore", "pagerank", "sssp", "cc"])
    def test_fig9_10_11_road_ca_cells(self, committed, algorithm):
        from repro.bench.harness import compare_lazy_vs_sync

        row = compare_lazy_vs_sync("road-ca-mini", algorithm, machines=48)
        cell = committed["fig9_10_11"][f"{algorithm}/road-ca-mini"]
        digits = {"speedup": 4, "norm_syncs": 4, "norm_traffic": 4,
                  "sync_time_s": 5, "lazy_time_s": 5}
        assert {k: round(row[k], n) for k, n in digits.items()} == cell

    def test_table1_road_ca_row(self, committed):
        from repro.bench.persistence import table1

        (row,) = [r for r in table1() if r["graph"] == "road-ca-mini"]
        (want,) = [r for r in committed["table1"] if r["graph"] == "road-ca-mini"]
        got = {**row, "ev_ratio": round(row["ev_ratio"], 3),
               "lambda": round(row["lambda"], 3)}
        assert got == want
