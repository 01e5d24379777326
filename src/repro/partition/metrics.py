"""Partition-quality metrics.

Quantifies what a placement costs before any engine runs — the three
quantities the partitioning literature (and the paper's §2.2) trades
off:

* **edge balance** — max/mean edges per machine (compute balance under
  the TEPS model);
* **vertex balance** — max/mean replicas per machine (memory balance);
* **replication factor λ** — mean replicas per vertex (coherency cost:
  both the eager per-superstep broadcast and the lazy per-exchange
  volume scale with it).

Plus an *a-priori* estimate of per-coherency exchange volume in each
wire mode, from the replica histogram alone (every replicated vertex
assumed active) — an upper bound the measured Fig 11 volumes stay under.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.partition.partitioned_graph import PartitionedGraph

__all__ = ["PartitionMetrics", "compute_partition_metrics"]


@dataclass(frozen=True)
class PartitionMetrics:
    """Placement quality summary (see module docstring)."""

    num_machines: int
    replication_factor: float
    edge_balance: float
    vertex_balance: float
    max_edges_per_machine: int
    max_replicas_per_machine: int
    replicated_vertex_fraction: float
    max_replicas_of_a_vertex: int
    est_exchange_volume_a2a_bytes: float
    est_exchange_volume_m2m_bytes: float


def compute_partition_metrics(
    pgraph: PartitionedGraph, delta_bytes: int = 16
) -> PartitionMetrics:
    """Compute :class:`PartitionMetrics` for a built placement."""
    edges = np.array([mg.num_local_edges for mg in pgraph.machines], dtype=float)
    verts = np.array(
        [mg.num_local_vertices for mg in pgraph.machines], dtype=float
    )
    nrep = pgraph.num_replicas
    replicated = nrep > 1
    # worst case: every replica of every replicated vertex holds a delta
    a2a = float((nrep[replicated] * (nrep[replicated] - 1)).sum()) * delta_bytes
    m2m = float((2 * nrep[replicated] - 2).sum()) * delta_bytes

    def balance(arr: np.ndarray) -> float:
        mean = arr.mean()
        return float(arr.max() / mean) if mean > 0 else 1.0

    return PartitionMetrics(
        num_machines=pgraph.num_machines,
        replication_factor=pgraph.replication_factor,
        edge_balance=balance(edges),
        vertex_balance=balance(verts),
        max_edges_per_machine=int(edges.max()),
        max_replicas_per_machine=int(verts.max()),
        replicated_vertex_fraction=float(replicated.mean()),
        max_replicas_of_a_vertex=int(nrep.max()),
        est_exchange_volume_a2a_bytes=a2a,
        est_exchange_volume_m2m_bytes=m2m,
    )
