"""Incremental partition maintenance for dynamic graphs.

A mutation changes a tiny fraction of the edge set, so re-running the
vertex-cut partitioner (and rebuilding every machine's CSR plan) from
scratch is almost entirely redundant work. :func:`patch_partition`
instead *carries* the surviving edges' machine assignment across the
mutation — the :class:`~repro.graph.mutation.EdgeDiff` old↔new edge-id
correspondence makes that a gather — and places only the added edges,
with the same ``_greedy_cut`` cascade a cold cut runs, resumed from the
carried loads and replica sets. The new partition is then *spliced*
from the old one, not rebuilt: :meth:`PartitionedGraph.splice`
re-scores only the batch's endpoints, inserts and deletes only their
replicas and moves every per-machine array through one gather, so the
patch costs the batch plus a few passes over the flat arrays, against
``build``'s pair-key sort and per-machine edge sorts. Its output is
``build``'s, array for array (``tests/property/test_splice_props.py``).
:class:`PatchStats` reports which machines came out *structurally
identical* — same vertex list, same local edge endpoints. It is a
statistic only: every CSR plan is rebuilt (a delta plan is O(slots)
and a view of its block's edges, and a carried one would keep the
superseded partition alive).

Carried assignments are kept as they are, never re-cut. On a planted
partition whose communities trade 1 % of their members per batch
(4 000 vertices, 64 communities, 16 machines, 48 batches), λ drifts
28 %, yet the carried cut still ends 6–7 % below a cold cut of the
session's final graph (``tests/integration/test_lambda_drift.py``).
The greedy cut is sensitive to edge order, though: the same final edges
sorted by source cut 25–28 % below the carried cut.

Parallel-edges mode (edge-splitter sessions) is not patchable: the
splitter ranks edges against whole-graph degree percentiles and a
budget, and a patch carries no assignment for parallel edges (they
hold −1), so dynamic sessions refuse it up front.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.graph.digraph import DiGraph
from repro.graph.mutation import EdgeDiff
from repro.partition.coordinated_cut import _BALANCE_SLACK, _greedy_cut
from repro.partition.partitioned_graph import PartitionedGraph
from repro.utils.rng import make_rng

__all__ = ["PatchStats", "patch_partition"]

_PLACE_SEED = 0x5EED  # tie-rank seed of every mutation-time placement


@dataclass
class PatchStats:
    """What one partition patch did, and what it cost in λ."""

    num_machines: int
    edges_carried: int  # kept edges whose assignment survived
    edges_placed: int  # added edges placed by the resumed cascade
    edges_removed: int
    lambda_before: float  # replication factor before the mutation
    lambda_after: float  # replication factor after the patch
    #: machines whose (vertices, esrc, edst) are unchanged by the patch
    #: (a census: the session rebuilds every CSR plan all the same, as
    #: a delta plan is a view of its block's edges)
    machines_unchanged: List[int] = field(default_factory=list)

    @property
    def machines_rebuilt(self) -> int:
        return self.num_machines - len(self.machines_unchanged)

    @property
    def lambda_drift(self) -> float:
        """Relative λ growth across this patch (0.0 = no drift)."""
        if self.lambda_before == 0.0:
            return 0.0
        return self.lambda_after / self.lambda_before - 1.0

    def to_dict(self) -> dict:
        return {
            "num_machines": self.num_machines,
            "edges_carried": self.edges_carried,
            "edges_placed": self.edges_placed,
            "edges_removed": self.edges_removed,
            "lambda_before": self.lambda_before,
            "lambda_after": self.lambda_after,
            "lambda_drift": self.lambda_drift,
            "machines_unchanged": list(self.machines_unchanged),
            "machines_rebuilt": self.machines_rebuilt,
        }


def patch_partition(
    old_pgraph: PartitionedGraph,
    new_graph: DiGraph,
    diff: EdgeDiff,
) -> Tuple[PartitionedGraph, PatchStats]:
    """Carry the vertex-cut across a mutation; place only the new edges.

    ``new_graph`` must be the patched graph whose edge layout matches
    ``diff`` (kept edges first, in order, then added) — exactly what
    :func:`~repro.graph.mutation.apply_batch` /
    :func:`~repro.graph.mutation.symmetrized_patch` produce against the
    graph ``old_pgraph`` was built from.
    """
    if old_pgraph.parallel_eids.size:
        raise ConfigError(
            "dynamic mutation does not support parallel-edges sessions "
            "(the splitter ranks edges against whole-graph degrees and a "
            "budget, and a patch has no assignment for parallel edges); "
            "open the session without split="
        )
    if diff.num_kept + diff.num_added != new_graph.num_edges:
        raise ConfigError(
            f"edge diff does not describe new_graph "
            f"({diff.num_kept}+{diff.num_added} != {new_graph.num_edges})"
        )
    P = old_pgraph.num_machines
    # the batch as a graph over its endpoints; each one's A(v) is its
    # replica set (none for a vertex this batch adds)
    ends, local = np.unique(
        np.concatenate([diff.added_src, diff.added_dst]), return_inverse=True
    )
    ip, rm = old_pgraph.rep_indptr, old_pgraph.rep_machines
    masks = [
        sum(1 << m for m in rm[ip[v]:ip[v + 1]].tolist())
        if v < old_pgraph.graph.num_vertices else 0
        for v in ends.tolist()
    ]
    # the carried loads: each machine's local edges, less the removed ones
    loads = np.array(
        [mg.num_local_edges for mg in old_pgraph.machines], dtype=np.int64
    ) - np.bincount(
        old_pgraph.assignment[diff.removed_eids], minlength=P
    )
    placed = _greedy_cut(
        DiGraph(ends.size, local[: diff.num_added], local[diff.num_added:]),
        P, make_rng(_PLACE_SEED), _BALANCE_SLACK, None, None, 1,
        loads=loads, masks=masks,
    )
    new_pgraph, unchanged = old_pgraph.splice(new_graph, diff, placed)
    stats = PatchStats(
        num_machines=P,
        edges_carried=diff.num_kept,
        edges_placed=diff.num_added,
        edges_removed=diff.num_removed,
        lambda_before=float(old_pgraph.replication_factor),
        lambda_after=float(new_pgraph.replication_factor),
        machines_unchanged=unchanged,
    )
    return new_pgraph, stats
