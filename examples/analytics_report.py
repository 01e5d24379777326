#!/usr/bin/env python
"""Scenario: a full analytics pass over one network.

A downstream user's bread-and-butter workflow: take one graph, run the
whole algorithm suite on the lazy engine, and produce a combined report
— structure, rankings, cores, reachability — with text plots of the
convergence traces. Everything here is public-API usage.

    python examples/analytics_report.py [dataset-name]
"""

import sys

import numpy as np

import repro
from repro.bench import bar_chart, format_table, timeline_plot
from repro.graph.properties import compute_properties


def main() -> None:
    name = sys.argv[1] if len(sys.argv) > 1 else "livejournal-mini"
    graph = repro.load_dataset(name)
    props = compute_properties(graph, diameter_probes=1)

    print(f"=== analytics report: {name} ===")
    print(f"|V|={props.num_vertices}  |E|={props.num_edges}  "
          f"E/V={props.ev_ratio:.2f}  degree-gini={props.degree_gini:.2f}  "
          f"diameter>={props.diameter_estimate}")

    # ---- influence: PageRank --------------------------------------------
    pr = repro.run(name, "pagerank", machines=24, trace=True)
    top = np.argsort(pr.values)[-5:][::-1]
    print("\n-- PageRank (top vertices) --")
    print(bar_chart(
        [f"v{v}" for v in top],
        [round(float(pr.values[v]), 3) for v in top],
        width=30,
    ))
    print(timeline_plot(pr.trace, width=50))

    # ---- communities: connected components + k-core ----------------------
    cc = repro.run(name, "cc", machines=24)
    labels, counts = np.unique(cc.values, return_counts=True)
    core = repro.run(name, "kcore", machines=24, k=10)
    core_sizes = int((core.values > 0).sum())
    print("\n-- structure --")
    print(format_table(
        ["metric", "value"],
        [
            ["weak components", labels.size],
            ["giant component", f"{counts.max() / props.num_vertices:.1%}"],
            ["10-core members", core_sizes],
            ["10-core share", f"{core_sizes / props.num_vertices:.1%}"],
        ],
    ))

    # ---- reachability: BFS from the top-ranked vertex ---------------------
    hub = int(top[0])
    bfs = repro.run(name, "bfs", machines=24, source=hub)
    finite = np.isfinite(bfs.values)
    print(f"\n-- reachability from hub v{hub} --")
    if finite.any():
        levels, sizes = np.unique(bfs.values[finite], return_counts=True)
        print(bar_chart(
            [f"{int(l)} hops" for l in levels[:6]],
            [int(s) for s in sizes[:6]],
            width=30,
        ))
    print(f"reaches {finite.sum()}/{props.num_vertices} vertices")

    # ---- cost summary -----------------------------------------------------
    print("\n-- engine costs (lazy-block, 24 machines) --")
    rows = []
    for label, res in (("pagerank", pr), ("cc", cc), ("kcore", core), ("bfs", bfs)):
        s = res.stats
        rows.append([
            label, round(s.modeled_time_s, 4), s.global_syncs,
            round(s.comm_bytes / 1e3, 1), round(s.compute_skew, 2),
        ])
    print(format_table(
        ["algorithm", "time_s", "syncs", "traffic_KB", "skew"], rows
    ))


if __name__ == "__main__":
    main()
