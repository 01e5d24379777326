"""Table 1: the evaluation graphs — V, E, E/V and λ (coordinated cut, P=48).

Regenerates the paper's dataset table for the mini analogs and checks
the structural claims the rest of the evaluation leans on:

* E/V tracks the paper per graph;
* λ ordering by class: road < web / community-social < skewed-social;
* the paper's λ ordering is preserved rank-for-rank (allowing ties
  between the adjacent google/youtube pair, which the paper also lists
  0.23 apart).
"""

import pytest

from repro.bench.persistence import table1
from repro.bench.reporting import format_table
from repro.graph.datasets import dataset_info, load_dataset


def table_rows():
    return [
        [
            r["graph"],
            r["class"],
            r["vertices"],
            r["edges"],
            round(r["ev_ratio"], 2),
            round(r["lambda"], 2),
            r["paper_ev_ratio"],
            r["paper_lambda"],
        ]
        for r in table1()
    ]


def test_table1(benchmark, run_once):
    rows = run_once(benchmark, table_rows)
    print()
    print(
        format_table(
            ["graph", "class", "#V", "#E", "E/V", "lambda", "paper E/V", "paper lambda"],
            rows,
            title="Table 1 — evaluation graphs (coordinated cut, 48 partitions)",
        )
    )
    lam = {r[0]: r[5] for r in rows}
    benchmark.extra_info["lambda"] = lam

    # E/V within 35% of Table 1 for every analog
    for r in rows:
        assert r[4] == pytest.approx(r[6], rel=0.35), r[0]

    # class ordering of λ: road lowest, heavy social highest
    assert max(lam["road-usa-mini"], lam["road-ca-mini"]) < min(
        lam["web-google-mini"], lam["youtube-mini"]
    )
    assert max(lam["web-uk-mini"], lam["web-google-mini"]) < min(
        lam["twitter-mini"], lam["enwiki-mini"]
    )

    # paper rank order preserved (google/youtube are a near-tie in the
    # paper too, so compare with a small tolerance)
    paper_order = sorted(lam, key=lambda n: dataset_info(n).paper_lambda)
    ours = [lam[n] for n in paper_order]
    for a, b in zip(ours, ours[1:]):
        assert b >= a - 0.4, (paper_order, ours)


def test_table1_road_ev(benchmark, run_once):
    """Road analogs keep the near-constant-degree signature."""
    def go():
        return {
            name: load_dataset(name).ev_ratio
            for name in ("road-usa-mini", "road-ca-mini")
        }

    evs = run_once(benchmark, go)
    for name, ev in evs.items():
        assert 2.0 < ev < 3.5, name
