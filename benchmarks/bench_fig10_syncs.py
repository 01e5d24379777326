"""Fig 10: normalized number of global synchronizations (lazy / Sync).

The paper's explanation of Fig 9: LazyGraph drastically reduces global
synchronizations — a structural ≥3× saving (3 barriers per eager
superstep vs 1 per coherency point) multiplied by lazy stage batching.
Shape criteria:

* every cell < 1 (always fewer synchronizations);
* every cell ≤ ~1/3 + ε (the structural saving is realized);
* the sync reduction correlates with the Fig 9 speedup across cells
  ("the strong correlation between Fig.9 and Fig.10").
"""

import numpy as np

from repro.bench.configs import FIG9_ALGORITHMS, FIG9_GRAPHS
from repro.bench.persistence import fig9_10_11
from repro.bench.reporting import format_table


def test_fig10_normalized_syncs(benchmark, run_once):
    cells = run_once(benchmark, fig9_10_11)
    rows = [
        [g] + [round(cells[(a, g)]["norm_syncs"], 3) for a in FIG9_ALGORITHMS]
        for g in FIG9_GRAPHS
    ]
    print()
    print(
        format_table(
            ["graph"] + list(FIG9_ALGORITHMS),
            rows,
            title="Fig 10 — normalized global synchronizations (lazy / Sync)",
        )
    )
    norm = np.array(
        [[cells[(a, g)]["norm_syncs"] for g in FIG9_GRAPHS] for a in FIG9_ALGORITHMS]
    )
    benchmark.extra_info["norm_syncs"] = {
        a: dict(zip(FIG9_GRAPHS, map(float, row)))
        for a, row in zip(FIG9_ALGORITHMS, norm)
    }
    assert norm.max() < 1.0
    assert norm.max() <= 0.55  # structural 3-to-1 saving plus batching

    # correlation with Fig 9 speedups: fewer syncs <-> bigger speedup
    speeds = np.array(
        [[cells[(a, g)]["speedup"] for g in FIG9_GRAPHS] for a in FIG9_ALGORITHMS]
    ).ravel()
    inv = 1.0 / norm.ravel()
    corr = np.corrcoef(np.log(inv), np.log(speeds))[0, 1]
    benchmark.extra_info["log_corr_with_speedup"] = float(corr)
    assert corr > 0.4, corr
