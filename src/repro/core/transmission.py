"""Transmission-mode planning: the one-call lazy-graph builder.

The two message transmission modes (paper §3.3) are realized by data
layout, not engine branches:

* **one-edge** — the edge lives on one machine;
  :meth:`MachineRuntime.scatter` folds its messages into the target's
  ``deltaMsg``, so remote replicas receive them at coherency points;
* **parallel-edges** — the edge is copied onto every machine hosting the
  target's replicas (with source replicas added by the dispatch
  fixpoint); its messages are local writes on every machine and never
  enter ``deltaMsg``.

:func:`build_lazy_graph` composes the full §4.1 pipeline —
vertex-cut partitioning, edge-splitter selection, dispatch — into one
call used by the public API, examples, and benches.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.graph.digraph import DiGraph
from repro.partition.base import partition_graph
from repro.partition.edge_splitter import EdgeSplitConfig, select_parallel_edges
from repro.partition.partitioned_graph import PartitionedGraph
from repro.utils.rng import SeedLike

__all__ = ["build_lazy_graph"]


def build_lazy_graph(
    graph: DiGraph,
    num_machines: int,
    partitioner: str = "coordinated",
    split_config: Optional[EdgeSplitConfig] = None,
    seed: SeedLike = None,
    assignment: Optional[np.ndarray] = None,
) -> PartitionedGraph:
    """Partition ``graph`` for LazyGraph execution (paper §4.1).

    Parameters
    ----------
    partitioner:
        Vertex-cut algorithm (``coordinated`` is the paper's choice).
    split_config:
        Edge-splitter budget/criteria; ``None`` disables parallel-edges
        (every edge in one-edge mode — also what the eager baselines
        use, since parallel-edges only pay off with lazy coherency).
        A parallel edge is copied onto every machine that holds a
        replica of its target.
    assignment:
        A vertex-cut of this topology that already exists (one machine
        id per edge, checked by ``validate_assignment`` in
        :meth:`PartitionedGraph.build`): the partitioner is not run.
        A placement depends on ``(num_vertices, src, dst,
        num_machines, seed)`` only, so graphs that differ in weights
        alone can share one (a session goes further and shares the
        whole partition, :meth:`PartitionedGraph.reweighted`).
    """
    if assignment is None:
        assignment = partition_graph(
            graph, num_machines, partitioner, seed=seed
        )
    parallel = (
        select_parallel_edges(graph, num_machines, split_config)
        if split_config is not None
        else None
    )
    return PartitionedGraph.build(
        graph, assignment, num_machines, parallel_eids=parallel
    )
