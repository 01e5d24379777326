"""Experiment execution over a registry of resident sessions.

Partitioning dominates setup cost, and every figure reuses the same
(graph, machines) partitions across engines and algorithms sharing a
graph *shape* (directed / symmetrized / weighted). That is exactly what
a :class:`~repro.session.GraphSession` caches, so the harness keeps one
session per ``(graph, machines, partitioner, seed, split)`` and every
experiment is a ``session.run`` — the same path ``repro.run``, the
serving layer and the ``BENCHMARK.json`` workloads take.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Tuple

from repro.bench.configs import ExperimentConfig
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig
from repro.session import GraphSession

__all__ = [
    "session_for",
    "run_experiment",
    "compare_lazy_vs_sync",
    "clear_caches",
]

_SESSIONS: Dict[Tuple, GraphSession] = {}


def session_for(
    graph: str,
    machines: int = 48,
    partitioner: str = "coordinated",
    seed: int = 0,
    split: Optional[EdgeSplitConfig] = None,
) -> GraphSession:
    """The resident session for these graph-level choices (opened once)."""
    key = (graph, machines, partitioner, seed, split)
    if key not in _SESSIONS:
        _SESSIONS[key] = GraphSession.open(
            graph, machines=machines, partitioner=partitioner,
            split=split, seed=seed,
        )
    return _SESSIONS[key]


def clear_caches() -> None:
    """Close and drop every session (tests use this for isolation)."""
    for session in _SESSIONS.values():
        session.close()
    _SESSIONS.clear()


def run_experiment(config: ExperimentConfig) -> EngineResult:
    """Execute one experiment on its session, figure defaults overlaid."""
    session = session_for(
        config.graph, config.machines, config.partitioner, config.seed
    )
    return session.run(
        config.algorithm,
        config=replace(config.run, params=config.resolved_params()),
    )


def compare_lazy_vs_sync(
    graph: str,
    algorithm: str,
    machines: int = 48,
    partitioner: str = "coordinated",
    seed: int = 0,
    params: Optional[Dict] = None,
) -> Dict[str, float]:
    """The row every per-graph figure needs: lazy vs PowerGraph Sync.

    Returns speedup plus the normalized sync and traffic ratios that
    Figs 10 and 11 plot.
    """
    sync, lazy = (
        run_experiment(
            ExperimentConfig(
                graph, algorithm, machines, partitioner, seed,
                run=RunConfig(engine=engine, params=params or {}),
            )
        ).stats
        for engine in ("powergraph-sync", "lazy-block")
    )
    return {
        "speedup": sync.modeled_time_s / lazy.modeled_time_s,
        "sync_time_s": sync.modeled_time_s,
        "lazy_time_s": lazy.modeled_time_s,
        "norm_syncs": lazy.global_syncs / max(sync.global_syncs, 1),
        "norm_traffic": lazy.comm_bytes / max(sync.comm_bytes, 1.0),
    }
