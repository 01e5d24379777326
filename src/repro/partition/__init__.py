"""Graph partitioning: vertex-cut algorithms, replicas, parallel-edges.

This package turns a :class:`~repro.graph.digraph.DiGraph` into a
:class:`~repro.partition.partitioned_graph.PartitionedGraph` — the
distributed representation both engines execute on:

1. a **vertex-cut partitioner** assigns every edge to one of P machines
   (:func:`partition_graph` dispatches by name: ``random``, ``grid``,
   ``coordinated``, ``oblivious``, ``hybrid``, ``edge``);
2. the **edge splitter** (:mod:`repro.partition.edge_splitter`,
   paper §4.1) optionally promotes selected edges to *parallel-edges*;
3. :meth:`PartitionedGraph.build` materializes per-machine local graphs,
   master/mirror replica sets and the global replica routing tables.
"""

from repro.partition.base import PARTITIONER_NAMES, partition_graph
from repro.partition.coordinated_cut import coordinated_cut
from repro.partition.edge_cut import edge_cut
from repro.partition.edge_splitter import EdgeSplitConfig, select_parallel_edges
from repro.partition.grid_cut import grid_cut
from repro.partition.hybrid_cut import hybrid_cut
from repro.partition.oblivious_cut import oblivious_cut
from repro.partition.metrics import PartitionMetrics, compute_partition_metrics
from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph
from repro.partition.random_cut import random_cut

__all__ = [
    "PARTITIONER_NAMES",
    "partition_graph",
    "random_cut",
    "grid_cut",
    "coordinated_cut",
    "oblivious_cut",
    "hybrid_cut",
    "edge_cut",
    "EdgeSplitConfig",
    "select_parallel_edges",
    "MachineGraph",
    "PartitionedGraph",
    "PartitionMetrics",
    "compute_partition_metrics",
]
