"""Experiment configurations mirroring the paper's evaluation setup.

§5.1: 48-node cluster, coordinated vertex-cut, four algorithms
(k-core, PageRank, SSSP, CC) over the Table 1 graphs; Fig 12 sweeps
machine counts on one representative graph per class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

from repro.errors import ConfigError
from repro.graph.datasets import dataset_info
from repro.runtime.run_config import RunConfig

__all__ = [
    "ExperimentConfig",
    "FIG9_GRAPHS",
    "FIG9_ALGORITHMS",
    "FIG12_GRAPHS",
    "FIG12_MACHINES",
    "FIG12_ALGORITHMS",
    "FIG12_ENGINES",
    "default_kcore_k",
    "default_program_params",
]

# Table 1 order (the order every per-graph figure uses)
FIG9_GRAPHS: Tuple[str, ...] = (
    "web-uk-mini",
    "web-google-mini",
    "road-usa-mini",
    "road-ca-mini",
    "twitter-mini",
    "livejournal-mini",
    "enwiki-mini",
    "youtube-mini",
)

FIG9_ALGORITHMS: Tuple[str, ...] = ("kcore", "pagerank", "sssp", "cc")

# Fig 12: one representative per class (web / road / social)
FIG12_GRAPHS: Tuple[str, ...] = ("web-uk-mini", "road-usa-mini", "twitter-mini")
FIG12_MACHINES: Tuple[int, ...] = (8, 16, 24, 32, 40, 48)
FIG12_ALGORITHMS: Tuple[str, ...] = ("pagerank", "sssp")
FIG12_ENGINES: Tuple[str, ...] = (
    "powergraph-sync", "powergraph-async", "lazy-block",
)


def default_kcore_k(graph_name: str) -> int:
    """Per-class K for k-core decomposition.

    Road networks (mean degree ≈ 2.5 undirected) use the paper's
    illustrative K=3; denser web/social graphs use K=10 so the peeling
    cascade is non-trivial in both directions.
    """
    return 3 if dataset_info(graph_name).category == "road" else 10


def default_program_params(algorithm: str, graph_name: str) -> Dict:
    """Per-(algorithm, graph) program parameters used by every figure."""
    if algorithm == "kcore":
        return {"k": default_kcore_k(graph_name)}
    if algorithm == "pagerank":
        return {"tolerance": 1e-3}
    if algorithm in ("sssp", "bfs"):
        return {"source": 0}
    if algorithm == "cc":
        return {}
    raise ConfigError(f"no default parameters for algorithm {algorithm!r}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One engine run in one figure's sweep.

    The graph-level choices a :class:`~repro.session.GraphSession` fixes
    (``graph`` / ``machines`` / ``partitioner`` / ``seed``), the
    algorithm, and everything run-level as the shared
    :class:`~repro.runtime.run_config.RunConfig`.
    """

    graph: str
    algorithm: str
    machines: int = 48
    partitioner: str = "coordinated"
    seed: int = 0
    run: RunConfig = field(default_factory=RunConfig)

    def resolved_params(self) -> Dict:
        """Program parameters: per-figure defaults overlaid with overrides."""
        out = default_program_params(self.algorithm, self.graph)
        out.update(self.run.params)
        return out

    def label(self) -> str:
        return f"{self.algorithm}/{self.graph}@{self.machines}:{self.run.engine}"
