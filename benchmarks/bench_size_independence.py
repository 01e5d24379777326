"""§5.3's size-independence claim.

"the speedup rate of our approach largely depends on the replication
factor λ of input graphs, and is independent of the graph sizes and the
number of iterations."

We generate the same graph *class* at three sizes (road lattices of
increasing side; R-MAT socials of increasing vertex count at fixed E/V)
and compare the lazy speedup across sizes. Criterion: within a class,
the speedup varies far less than it does *between* classes — size and
iteration count (which grows with the road diameter) are not the
drivers; λ/class structure is.
"""

import numpy as np

from repro.algorithms import ConnectedComponentsProgram
from repro.bench.reporting import format_table
from repro.core import LazyBlockAsyncEngine, build_lazy_graph
from repro.graph.generators import powerlaw_graph, road_grid_graph
from repro.powergraph import PowerGraphSyncEngine

MACHINES = 24


def _speedup(graph):
    sym = graph.symmetrized()
    pg = build_lazy_graph(sym, MACHINES, seed=1)
    sync = PowerGraphSyncEngine(pg, ConnectedComponentsProgram()).run()
    lazy = LazyBlockAsyncEngine(pg, ConnectedComponentsProgram()).run()
    assert np.array_equal(sync.values, lazy.values)
    return (
        sync.stats.modeled_time_s / lazy.stats.modeled_time_s,
        sync.stats.supersteps,
        pg.replication_factor,
    )


def sweep():
    rows = []
    classes = {"road": [], "social": []}
    for side in (36, 54, 72):
        g = road_grid_graph(side, side, extra_edge_fraction=0.25, seed=2)
        sp, iters, lam = _speedup(g)
        rows.append(["road", f"{side}x{side}", g.num_edges, iters, round(lam, 2), round(sp, 2)])
        classes["road"].append(sp)
    for n in (1200, 2000, 3200):
        g = powerlaw_graph(n, 12 * n, seed=2)
        sp, iters, lam = _speedup(g)
        rows.append(["social", f"n={n}", g.num_edges, iters, round(lam, 2), round(sp, 2)])
        classes["social"].append(sp)
    return rows, classes


def test_size_independence(benchmark, run_once):
    rows, classes = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["class", "size", "#E", "supersteps", "lambda", "lazy speedup (CC)"],
            rows,
            title="§5.3 — speedup vs graph size within a class (CC, 24 machines)",
        )
    )
    road = np.array(classes["road"])
    social = np.array(classes["social"])
    benchmark.extra_info["road"] = road.tolist()
    benchmark.extra_info["social"] = social.tolist()
    # within-class spread is bounded...
    assert road.max() <= 1.8 * road.min(), road
    assert social.max() <= 1.8 * social.min(), social
    # ...while the between-class gap (λ-driven) is the dominant effect
    assert road.min() > 1.5 * social.max(), (road, social)
