"""Fig 11: normalized communication traffic (lazy / Sync).

Delta batching between coherency points plus the subsumption filter for
idempotent algebras reduce LazyGraph's bytes on the wire for most
cells; the exception — documented in EXPERIMENTS.md — is *weighted*
SSSP, where regional label corrections make the lazy engine ship more
(the speedup there is carried by the Fig 10 sync reduction instead).
Shape criteria:

* k-core and CC traffic < 1 everywhere (monotone peeling / idempotent
  label propagation batch perfectly);
* PageRank traffic ≤ ~1 everywhere (parity or better);
* the all-cell median is < 1 (LazyGraph reduces traffic overall).
"""

import numpy as np

from repro.bench.configs import FIG9_ALGORITHMS, FIG9_GRAPHS
from repro.bench.persistence import fig9_10_11
from repro.bench.reporting import format_table


def test_fig11_normalized_traffic(benchmark, run_once):
    cells = run_once(benchmark, fig9_10_11)
    rows = [
        [g]
        + [round(cells[(a, g)]["norm_traffic"], 3) for a in FIG9_ALGORITHMS]
        for g in FIG9_GRAPHS
    ]
    print()
    print(
        format_table(
            ["graph"] + list(FIG9_ALGORITHMS),
            rows,
            title="Fig 11 — normalized communication traffic (lazy / Sync)",
        )
    )
    norm = {
        a: np.array([cells[(a, g)]["norm_traffic"] for g in FIG9_GRAPHS])
        for a in FIG9_ALGORITHMS
    }
    benchmark.extra_info["norm_traffic"] = {
        a: dict(zip(FIG9_GRAPHS, map(float, v))) for a, v in norm.items()
    }

    assert norm["kcore"].max() < 1.0
    assert norm["cc"].max() < 1.0
    assert norm["pagerank"].max() <= 1.25

    all_cells = np.concatenate(list(norm.values()))
    assert np.median(all_cells) < 1.0
