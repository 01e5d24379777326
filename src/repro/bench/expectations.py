"""The paper's reported numbers, as structured data.

Single source of truth for every paper value the reproduction compares
against (Table 1 lives with the dataset registry; this module holds the
evaluation-section numbers). Benches and the persistence layer import
from here instead of scattering literals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

# §4.2.1's learned interval rule is held by the policy that applies it
from repro.core.policy import PAPER_INTERVAL_RULE

__all__ = [
    "PAPER_SPEEDUP_RANGE",
    "PAPER_MEAN_SPEEDUPS",
    "PAPER_CLUSTER",
    "PAPER_INTERVAL_RULE",
    "ShapeExpectation",
    "FIG_EXPECTATIONS",
]

# §5.2: "the speedups range from 1.25x to 10.69x across a variety of
# real-world graphs"
PAPER_SPEEDUP_RANGE: Tuple[float, float] = (1.25, 10.69)

# §5.2: "an average speedup of 3.95x on k-Core, 3.1x on PageRank,
# 4.57x on SSSP and 3.91x on CC"
PAPER_MEAN_SPEEDUPS: Dict[str, float] = {
    "kcore": 3.95,
    "pagerank": 3.1,
    "sssp": 4.57,
    "cc": 3.91,
}

# §5.1: the testbed
PAPER_CLUSTER: Dict[str, object] = {
    "machines": 48,
    "cores_per_machine": 8,
    "memory_gb": 32,
    "network": "1 GigE",
    "partitioner": "coordinated",
    "compiler": "GCC 4.8.1",
    "runs_averaged": 3,
}


@dataclass(frozen=True)
class ShapeExpectation:
    """One falsifiable shape criterion derived from the paper's text."""

    figure: str
    claim: str
    bench: str


FIG_EXPECTATIONS: Tuple[ShapeExpectation, ...] = (
    ShapeExpectation(
        "Table 1",
        "λ rank order: road < web-Google/youtube < UK-2005 < LiveJournal "
        "< twitter/enwiki (coordinated cut, 48 partitions)",
        "benchmarks/bench_table1_graphs.py",
    ),
    ShapeExpectation(
        "Fig 9",
        "LazyGraph ≥ 1x everywhere; largest wins on road, smallest on "
        "twitter; speedup anti-correlates with λ (§5.3)",
        "benchmarks/bench_fig9_speedup.py",
    ),
    ShapeExpectation(
        "Fig 10",
        "normalized synchronizations < 1 everywhere, ≤ ~1/3 structurally; "
        "strongly correlated with Fig 9",
        "benchmarks/bench_fig10_syncs.py",
    ),
    ShapeExpectation(
        "Fig 11",
        "normalized traffic < 1 on the large majority of cells "
        "(documented exception: weighted road SSSP)",
        "benchmarks/bench_fig11_traffic.py",
    ),
    ShapeExpectation(
        "Fig 12(a-f)",
        "LazyGraph fastest at every machine count; Async degrades past "
        "16 machines on road workloads",
        "benchmarks/bench_fig12_scalability.py",
    ),
    ShapeExpectation(
        "Fig 12(g,h)",
        "LazyAsync's speedup over Sync exceeds Async's at 16 and 24 "
        "machines",
        "benchmarks/bench_fig12_scalability.py",
    ),
    ShapeExpectation(
        "Fig 8(a)",
        "the adaptive interval strategy beats (or ties) the simple "
        "always-lazy strategy on SSSP",
        "benchmarks/bench_fig8a_interval.py",
    ),
    ShapeExpectation(
        "Fig 8(b)",
        "a2a linear / m2m saturating-polynomial comm curves; a2a wins "
        "small traffic, m2m large; dynamic switch tracks the better mode",
        "benchmarks/bench_fig8b_commmodes.py",
    ),
)
