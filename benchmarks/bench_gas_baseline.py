"""Ablation: classic full-gather GAS baseline vs the delta baseline.

The paper's §3.1: PowerGraph runs *standard* PageRank while LazyGraph
requires the push-style PageRank-Delta. Our Fig 9 conservatively runs
the same delta program on both systems; this bench quantifies the
baseline-formulation choice by also running the classic pull-style GAS
programs on the eager engine. Criteria:

* both baselines converge to the same values (sanity);
* full-gather PageRank re-traverses more edges than the delta form
  (it recomputes whole gather aggregates on every activation);
* the two baselines' modeled times agree within ~35%, i.e. the Fig 9
  speedups do not hinge on which eager formulation is the denominator.
"""

import numpy as np

from repro.algorithms import PageRankDeltaProgram, SSSPProgram
from repro.bench.harness import session_for
from repro.bench.reporting import format_table
from repro.powergraph import (
    GASPageRank,
    GASSSSP,
    PowerGraphGASSyncEngine,
    PowerGraphSyncEngine,
)

GRAPHS = ("twitter-mini", "web-uk-mini", "road-usa-mini")


def compare():
    rows = []
    checks = []
    for name in GRAPHS:
        session = session_for(name, 48)
        delta_prog = PageRankDeltaProgram(tolerance=1e-3)
        pg = session.partitioned(delta_prog)
        gas = PowerGraphGASSyncEngine(pg, GASPageRank(tolerance=1e-3)).run()
        delta = PowerGraphSyncEngine(pg, delta_prog).run()
        rows.append(
            [
                name,
                "pagerank",
                round(gas.stats.modeled_time_s, 3),
                round(delta.stats.modeled_time_s, 3),
                gas.stats.edge_traversals,
                delta.stats.edge_traversals,
            ]
        )
        checks.append((name, "pagerank", gas, delta))

        delta_prog = SSSPProgram(0)
        pgw = session.partitioned(delta_prog)
        gas = PowerGraphGASSyncEngine(pgw, GASSSSP(0)).run()
        delta = PowerGraphSyncEngine(pgw, delta_prog).run()
        rows.append(
            [
                name,
                "sssp",
                round(gas.stats.modeled_time_s, 3),
                round(delta.stats.modeled_time_s, 3),
                gas.stats.edge_traversals,
                delta.stats.edge_traversals,
            ]
        )
        checks.append((name, "sssp", gas, delta))
    return rows, checks


def test_gas_vs_delta_baseline(benchmark, run_once):
    rows, checks = run_once(benchmark, compare)
    print()
    print(
        format_table(
            ["graph", "algorithm", "gas_time_s", "delta_time_s", "gas_edges", "delta_edges"],
            rows,
            title="Ablation — classic GAS vs delta formulation on the eager engine",
        )
    )
    for name, alg, gas, delta in checks:
        same = np.allclose(
            np.nan_to_num(gas.values, posinf=1e18),
            np.nan_to_num(delta.values, posinf=1e18),
            atol=5e-2,
            rtol=5e-2,
        )
        assert same, (name, alg)
        if alg == "pagerank":
            # full gather redoes aggregate work the delta form avoids
            assert gas.stats.edge_traversals >= delta.stats.edge_traversals, name
        # baseline choice shifts eager time by well under 2x — the Fig 9
        # comparison does not hinge on the formulation
        ratio = gas.stats.modeled_time_s / delta.stats.modeled_time_s
        assert 0.5 <= ratio <= 2.0, (name, alg, ratio)
