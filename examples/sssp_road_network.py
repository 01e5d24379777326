#!/usr/bin/env python
"""Scenario: route distances over a road network.

Road networks are the paper's best case for lazy coherency: tiny
frontiers over a huge diameter mean an eager engine pays three global
barriers and two communication rounds per relaxation hop, while
LazyBlockAsync absorbs many hops into barrier-free local stages. This
example computes single-source travel times on the USA-road analog
under all four engines and shows where the time goes, plus the effect
of the interval strategy (the paper's Fig 8a).

    python examples/sssp_road_network.py
"""

import numpy as np

import repro
from repro.bench.reporting import format_table


def main() -> None:
    graph = repro.load_dataset("road-usa-mini", weighted=True)
    print(f"road network: |V|={graph.num_vertices} |E|={graph.num_edges} "
          f"(travel-time weights {graph.weights.min():.2f}..{graph.weights.max():.2f})")

    rows = []
    values = {}
    for engine in repro.ENGINE_NAMES:
        r = repro.run(graph, "sssp", engine=engine, machines=48, source=0)
        values[engine] = r.values
        s = r.stats
        rows.append(
            [
                engine,
                round(s.modeled_time_s, 4),
                s.global_syncs,
                round(s.comm_bytes / 1e3, 1),
                round(s.compute_time_s, 4),
                round(s.comm_time_s, 4),
                round(s.sync_time_s, 4),
            ]
        )
    print()
    print(
        format_table(
            ["engine", "time_s", "syncs", "traffic_KB", "compute_s", "comm_s", "sync_s"],
            rows,
            title="SSSP on road-usa-mini, 48 machines",
        )
    )

    # every engine computes identical shortest paths
    base = np.nan_to_num(values["powergraph-sync"], posinf=1e18)
    for engine, vals in values.items():
        assert np.allclose(base, np.nan_to_num(vals, posinf=1e18)), engine

    # interval strategies (paper Fig 8a): the paper's adaptive rule and
    # its two strawmen are named policies
    rows = []
    for policy in ("paper", "simple", "never"):
        r = repro.run(
            graph, "sssp", engine="lazy-block", machines=48, policy=policy,
        )
        rows.append(
            [policy, round(r.stats.modeled_time_s, 4), r.stats.global_syncs,
             r.stats.local_iterations]
        )
    print()
    print(
        format_table(
            ["policy", "time_s", "syncs", "local_iters"],
            rows,
            title="Interval strategy on the lazy engine (Fig 8a)",
        )
    )

    reachable = np.isfinite(values["lazy-block"])
    print(f"\nreachable vertices: {reachable.sum()}/{graph.num_vertices}; "
          f"median travel time {np.median(values['lazy-block'][reachable]):.1f}")


if __name__ == "__main__":
    main()
