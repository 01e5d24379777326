"""Edge splitter: choosing which edges become parallel-edges (paper §4.1).

The splitter has the paper's three elements:

1. **Selection criterion** — an edge is a split candidate if it connects
   two high-degree vertices (speeds local convergence: hub↔hub traffic
   becomes local writes everywhere) or if it has a low-out-degree source
   and a low-degree target (saves transmission: the one-edge path for
   such an edge costs two coherency trips for a single message).
2. **Budget** — the counts PEhigh / PElow solve the paper's equations

       [PEhigh·(P−1) + PElow·(P/3)] / P = TEPS · textra
       PElow = 550 · PEhigh

   where ``P`` is the machine count, ``TEPS`` the per-machine traversal
   rate, and ``textra`` the extra per-machine execution time a user is
   willing to spend on parallel-edge copies. The first equation prices
   the copies (a high-degree parallel edge lands on ~P−1 extra machines,
   a low-degree one on ~P/3); the second fixes the paper's observed
   high:low mix.
3. **Dispatch rule** — enforced by
   :meth:`repro.partition.partitioned_graph.PartitionedGraph.build`
   (fixpoint instantiation on every machine holding the target's
   replicas).

``TEPS`` here is the *simulated* machine rate from
:class:`repro.cluster.network.NetworkModel` so budgets scale with the
mini datasets the same way the paper's budgets scale with real machines.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph

__all__ = ["EdgeSplitConfig", "select_parallel_edges", "parallel_edge_budget"]

#: total-degree percentile at or above which a vertex is high-degree
_HIGH_DEGREE_PERCENTILE = 90.0
#: total-degree percentile at or below which a vertex is low-degree
_LOW_DEGREE_PERCENTILE = 50.0
#: the paper's PElow = 550 · PEhigh mix
_LOW_HIGH_RATIO = 550.0


@dataclass(frozen=True)
class EdgeSplitConfig:
    """Tunables for the edge splitter.

    Attributes
    ----------
    textra:
        Extra per-machine execution time (seconds of simulated time) the
        user grants to parallel-edge copies; 0 disables splitting.
    teps:
        Simulated per-machine 'traversed edges per second' rate used to
        price the budget (paper §4.1's TEPS).
    """

    textra: float = 0.1
    teps: float = 50_000.0

    def __post_init__(self) -> None:
        if self.textra < 0:
            raise PartitionError(f"textra must be >= 0, got {self.textra}")
        if self.teps <= 0:
            raise PartitionError(f"teps must be > 0, got {self.teps}")


def parallel_edge_budget(
    num_machines: int, config: EdgeSplitConfig
) -> "tuple[int, int]":
    """Solve the paper's budget equations for (PEhigh, PElow).

    ``[PEhigh·(P−1) + PElow·(P/3)] / P = TEPS · textra`` with
    ``PElow = 550 · PEhigh`` gives

    ``PEhigh = TEPS·textra·P / ((P−1) + 550·P/3)``.
    """
    P = num_machines
    if P < 2 or config.textra == 0:
        return 0, 0
    denom = (P - 1) + _LOW_HIGH_RATIO * P / 3.0
    pe_high = config.teps * config.textra * P / denom
    return int(round(pe_high)), int(round(_LOW_HIGH_RATIO * pe_high))


def select_parallel_edges(
    graph: DiGraph,
    num_machines: int,
    config: EdgeSplitConfig = EdgeSplitConfig(),
) -> np.ndarray:
    """Return global edge ids to promote to parallel-edges mode.

    Candidates are ranked within each criterion (highest combined degree
    first for high–high edges; lowest combined degree first for low–low
    edges) and truncated to the budget. The two sets are disjoint by
    construction (an edge both high–high and low–low, which needs a
    degree-flat graph, counts as high–high).
    """
    pe_high, pe_low = parallel_edge_budget(num_machines, config)
    if (pe_high == 0 and pe_low == 0) or graph.num_edges == 0:
        return np.empty(0, dtype=np.int64)

    deg = graph.degrees()
    out_deg = graph.out_degrees()
    hi_thresh = np.percentile(deg, _HIGH_DEGREE_PERCENTILE)
    lo_thresh = np.percentile(deg, _LOW_DEGREE_PERCENTILE)

    src_deg, dst_deg = deg[graph.src], deg[graph.dst]
    high_high = (src_deg >= hi_thresh) & (dst_deg >= hi_thresh)
    low_low = (
        (out_deg[graph.src] <= lo_thresh) & (dst_deg <= lo_thresh) & ~high_high
    )

    chosen: "list[np.ndarray]" = []
    hh_ids = np.flatnonzero(high_high)
    if hh_ids.size and pe_high:
        rank = np.argsort(-(src_deg[hh_ids] + dst_deg[hh_ids]), kind="stable")
        chosen.append(hh_ids[rank[:pe_high]])
    ll_ids = np.flatnonzero(low_low)
    if ll_ids.size and pe_low:
        rank = np.argsort(src_deg[ll_ids] + dst_deg[ll_ids], kind="stable")
        chosen.append(ll_ids[rank[:pe_low]])
    if not chosen:
        return np.empty(0, dtype=np.int64)
    out = np.unique(np.concatenate(chosen))
    return out.astype(np.int64)
