"""Ablation: the parallel-edges budget (paper §4.1's ``textra``).

The edge splitter prices its budget by the extra execution time a user
grants (``[PEhigh·(P−1) + PElow·(P/3)] / P = TEPS·textra``). Sweeping
``textra`` from 0 (no splitting) upward measures both halves of the
trade the paper describes: split edges turn remote messages into local
writes (delta-exchange volume shrinks), while their copies add local
edge work and extra replicas.

Criteria:

* correctness is invariant across the sweep (same converged values);
* the number of split edges grows monotonically with ``textra``;
* splitting reduces the exchanged coherency volume on the skewed social
  workload (hub↔hub edges dominate its delta traffic).
"""

import numpy as np

from repro.algorithms import KCoreProgram
from repro.bench.harness import session_for
from repro.bench.reporting import format_table
from repro.core import LazyBlockAsyncEngine
from repro.partition.edge_splitter import EdgeSplitConfig

MACHINES = 24
TEXTRAS = (0.0, 0.05, 0.1, 0.2, 0.5)


def sweep():
    rows = []
    runs = []
    for textra in TEXTRAS:
        cfg = EdgeSplitConfig(textra=textra) if textra else None
        program = KCoreProgram(k=10)
        pg = session_for(
            "livejournal-mini", MACHINES, seed=1, split=cfg
        ).partitioned(program)
        r = LazyBlockAsyncEngine(pg, program).run()
        rows.append(
            [
                textra,
                int(pg.parallel_eids.size),
                round(pg.replication_factor, 2),
                round(r.stats.comm_bytes / 1e3, 1),
                round(r.stats.modeled_time_s, 4),
                r.stats.edge_traversals,
            ]
        )
        runs.append((pg, r))
    return rows, runs


def test_ablation_parallel_edges(benchmark, run_once):
    rows, runs = run_once(benchmark, sweep)
    print()
    print(
        format_table(
            ["textra", "split edges", "lambda", "exchange_KB", "time_s", "edge_work"],
            rows,
            title="Ablation — parallel-edges budget (k-core on livejournal-mini)",
        )
    )
    # correctness invariant across the sweep
    base_values = runs[0][1].values
    for pg, r in runs[1:]:
        assert np.array_equal(r.values, base_values)
    # budget monotone in textra
    splits = [row[1] for row in rows]
    assert splits == sorted(splits)
    assert splits[0] == 0 and splits[-1] > 0
    # generous splitting reduces exchanged bytes vs no splitting
    assert rows[-1][3] < rows[0][3], rows
    benchmark.extra_info["exchange_kb"] = {r[0]: r[3] for r in rows}
