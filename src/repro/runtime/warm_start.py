"""Warm-starting delta engines from a previous fixpoint after a mutation.

A converged delta run leaves a fixpoint: per-vertex state plus the
guarantee that no pending message would change it. After a small graph
mutation, almost all of that fixpoint is still exactly right — the
paper's lazy engines only need to be told *where* it is wrong. This
module computes that correction host-side (program-agnostically, by
driving the program's own hooks against a single whole-graph
:class:`MachineGraph` view) and packages it as a
:class:`WarmStartProgram`: a drop-in :class:`DeltaProgram` adapter that

* seeds every machine's state from the previous fixpoint (cold init
  only for *reseeded* vertices — see below),
* masks ``initial_scatter`` down to the reseeded vertices, and
* pre-stages replica-consistent correction messages through the
  :meth:`DeltaProgram.initial_messages` bootstrap hook.

The engine then runs completely unchanged — same kernels, same
coherency machinery — and re-converges from a frontier proportional to
the mutation, not the graph.

*Which* edges changed is an input, not something this module works out:
:func:`plan_warm_start` takes the removed old edge ids and the inserted
new edge ids, which the session composes from the
:class:`~repro.graph.mutation.EdgeDiff` every patch already returns
(:func:`~repro.graph.mutation.compose_edge_delta`).
:func:`graph_delta`, which rediscovers them by comparing the two graphs
edge by edge in Python, is kept as the test oracle only.

Two correction plans, chosen by the program's algebra:

**Idempotent (MIN/MAX — bfs, sssp, cc, msbfs).** Deleting an edge can
invalidate values that derived through it. A deleted edge ``u→v`` whose
message equalled ``F(v)`` *supported* ``v``; the taint closure follows
old-graph support edges (``edge_message(F(u)) == F(v)``) forward from
the seeds and resets every tainted vertex to its cold init. Untainted
vertices keep derivations that only use surviving edges, so their old
value remains achievable — an over-approximation the monotone relaxation
can only improve. Injections re-deliver the boundary: for every
new-graph edge from an untainted source into a tainted target (and every
*inserted* edge from an untainted source), the source's fixpoint message
is staged in the target's inbox. Tainted sources need no injection —
the masked bootstrap re-activates them and they re-scatter as they
relax.

**Invertible (SUM — pagerank, ppr).** The fixpoint encodes, per vertex,
the total delta mass received. A mutation changes *who sends what
where*: each source ``u`` has historically pushed total mass
``R(u) = vdata(u) − pending(u)`` through each of its old out-edges'
transforms. The correction is the signed difference of retroactively
replaying that mass under the new topology — computed **only over
affected edges** (deleted, inserted, and retained out-edges of
out-degree-changed sources), so every untouched term cancels by
omission, bit-exactly. Staged as one signed accum per touched vertex;
the damped propagation mops up the ripple in a handful of supersteps
and lands within the usual ``O(tolerance)`` band of a cold run.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.api.vertex_program import DeltaProgram
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.kernels.segment_reduce import scatter_reduce
from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph

__all__ = [
    "WarmStartProgram",
    "plan_warm_start",
    "graph_delta",
    "global_machine_graph",
    "collect_state",
]


def global_machine_graph(graph: DiGraph) -> MachineGraph:
    """The whole graph viewed as one machine (host-side planning view).

    Lets the planner evaluate ``make_state`` / ``edge_message`` /
    ``initial_scatter`` with global ids == local ids, staying agnostic
    to how any particular program defines its messages.
    """
    n = graph.num_vertices
    return MachineGraph(
        machine_id=0,
        vertices=np.arange(n, dtype=np.int64),
        is_master=np.ones(n, dtype=bool),
        esrc=graph.src,
        edst=graph.dst,
        eweight=graph.edge_weights(),
        eparallel=np.zeros(graph.num_edges, dtype=bool),
        eglobal=np.arange(graph.num_edges, dtype=np.int64),
        out_deg_global=graph.out_degrees(),
        num_replicas=np.ones(n, dtype=np.int64),
    )


def collect_state(
    pgraph: PartitionedGraph, runtimes
) -> Dict[str, np.ndarray]:
    """Global per-vertex state arrays assembled from the master replicas.

    The fixpoint record a session keeps per program; the mirror of
    :func:`~repro.runtime.result.collect_values` but for *every* state
    key (SUM programs also need ``pending`` to reconstruct scattered
    mass).
    """
    n = pgraph.graph.num_vertices
    out: Dict[str, np.ndarray] = {}
    for rt in runtimes:
        mg = rt.mg
        masters = np.flatnonzero(mg.is_master)
        for key, arr in rt.state.items():
            if key not in out:
                out[key] = np.empty(n, dtype=arr.dtype)
            out[key][mg.vertices[masters]] = arr[masters]
    return out


def graph_delta(
    old_graph: DiGraph, new_graph: DiGraph
) -> Tuple[np.ndarray, np.ndarray]:
    """Multiset edge difference: ``(removed old eids, inserted new eids)``.

    The **test oracle** for the delta :func:`plan_warm_start` is handed:
    it rediscovers, in Python per edge over both graphs, what the
    session composes from its recorded
    :class:`~repro.graph.mutation.EdgeDiff` s
    (:func:`~repro.graph.mutation.compose_edge_delta`). Nothing under
    ``src/`` calls it; unit tests splat its result into
    :func:`plan_warm_start`, and the benchmark's tracer watches it stay
    at zero calls.

    Edges are matched by ``(src, dst)`` — plus weight when either graph
    is weighted, so a weight change counts as remove+insert (the warm
    planners must see it on both sides). Copies of parallel edges pair
    up greedily; which copy of an identical set is called "removed" is
    immaterial to the planners (identical edges produce identical
    messages).
    """
    def keyed(g: DiGraph, weighted: bool):
        if weighted:
            w = g.edge_weights()
            return list(zip(g.src.tolist(), g.dst.tolist(), w.tolist()))
        return list(zip(g.src.tolist(), g.dst.tolist()))

    weighted = old_graph.weights is not None or new_graph.weights is not None
    old_keys = keyed(old_graph, weighted)
    new_keys = keyed(new_graph, weighted)
    from collections import Counter

    old_count = Counter(old_keys)
    new_count = Counter(new_keys)
    removed: List[int] = []
    budget = {
        k: c - new_count.get(k, 0) for k, c in old_count.items()
        if c > new_count.get(k, 0)
    }
    for e, k in enumerate(old_keys):
        if budget.get(k, 0) > 0:
            removed.append(e)
            budget[k] -= 1
    inserted: List[int] = []
    budget = {
        k: c - old_count.get(k, 0) for k, c in new_count.items()
        if c > old_count.get(k, 0)
    }
    for e, k in enumerate(new_keys):
        if budget.get(k, 0) > 0:
            inserted.append(e)
            budget[k] -= 1
    return (
        np.asarray(removed, dtype=np.int64),
        np.asarray(inserted, dtype=np.int64),
    )


class WarmStartProgram(DeltaProgram):
    """A base program wrapped with a precomputed warm-start plan.

    Transparent to the engines: same algebra, same hooks, same results
    contract — only ``make_state`` (fixpoint overlay),
    ``initial_scatter`` (masked to reseeded vertices) and
    ``initial_messages`` (correction injections) differ.
    """

    def __init__(
        self,
        base: DeltaProgram,
        warm_state: Dict[str, np.ndarray],
        reseed: np.ndarray,
        inject_idx: np.ndarray,
        inject_val: np.ndarray,
    ) -> None:
        self.base = base
        self.warm_state = warm_state
        self.reseed = np.asarray(reseed, dtype=bool)
        self.inject_idx = np.asarray(inject_idx, dtype=np.int64)
        self.inject_val = np.asarray(inject_val, dtype=np.float64)
        # mirror the base program's declared facts
        self.name = base.name
        self.algebra = base.algebra
        self.delta_bytes = base.delta_bytes
        self.requires_symmetric = base.requires_symmetric
        self.needs_weights = base.needs_weights
        # apply forwards its arguments, the block form included
        self.block_apply = base.block_apply

    # -- plan summary (rides into stats.extra) -------------------------
    @property
    def num_reseeded(self) -> int:
        return int(np.count_nonzero(self.reseed))

    @property
    def num_injections(self) -> int:
        return int(self.inject_idx.size)

    # -- DeltaProgram hooks --------------------------------------------
    def make_state(self, mg: MachineGraph) -> Dict[str, np.ndarray]:
        state = self.base.make_state(mg)
        keep = np.flatnonzero(~self.reseed[mg.vertices])
        gids = mg.vertices[keep]
        for key, warm in self.warm_state.items():
            if key not in state:
                raise AlgorithmError(
                    f"{self.name}: warm state key {key!r} missing from "
                    f"the program's make_state"
                )
            state[key][keep] = warm[gids]
        return state

    def initial_scatter(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Tuple[Optional[np.ndarray], np.ndarray]:
        init_delta, active = self.base.initial_scatter(mg, state)
        active = np.asarray(active, dtype=bool) & self.reseed[mg.vertices]
        return init_delta, active

    def initial_messages(
        self, mg: MachineGraph, state: Dict[str, np.ndarray]
    ) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        if self.inject_idx.size == 0:
            return None
        # replica-consistent by construction: the injection table is
        # global, every machine stages the slice it hosts
        pos = np.searchsorted(self.inject_idx, mg.vertices)
        pos = np.minimum(pos, self.inject_idx.size - 1)
        hit = self.inject_idx[pos] == mg.vertices
        if not hit.any():
            return None
        return np.flatnonzero(hit), self.inject_val[pos[hit]]

    def apply(self, mg, state, idx, accum):
        return self.base.apply(mg, state, idx, accum)

    def edge_message(self, mg, edge_sel, delta_per_edge):
        return self.base.edge_message(mg, edge_sel, delta_per_edge)

    def edge_transform(self, mg):
        return self.base.edge_transform(mg)

    def values(self, mg, state):
        return self.base.values(mg, state)

    def validate(self) -> None:
        self.base.validate()
        for key, warm in self.warm_state.items():
            if warm.shape != self.reseed.shape:
                raise AlgorithmError(
                    f"{self.name}: warm state {key!r} misaligned with the "
                    f"reseed mask ({warm.shape} vs {self.reseed.shape})"
                )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<WarmStartProgram {self.name} reseed={self.num_reseeded} "
            f"inject={self.num_injections}>"
        )


# ----------------------------------------------------------------------
def _plan_idempotent(
    program: DeltaProgram,
    old_graph: DiGraph,
    new_graph: DiGraph,
    old_state: Dict[str, np.ndarray],
    removed: np.ndarray,
    inserted: np.ndarray,
) -> WarmStartProgram:
    """MIN/MAX plan: taint closure + reset + boundary injections."""
    algebra = program.algebra
    ident = algebra.identity
    n_old = old_graph.num_vertices
    n_new = new_graph.num_vertices
    mg_old = global_machine_graph(old_graph)
    mg_new = global_machine_graph(new_graph)
    F = old_state["vdata"]
    init = program.make_state(mg_new)["vdata"]

    # --- taint seeds: deleted edges that supported their target -------
    tainted = np.zeros(n_old, dtype=bool)
    if removed.size:
        msgs = program.edge_message(mg_old, removed, F[old_graph.src[removed]])
        tgt = old_graph.dst[removed]
        seeds = tgt[(msgs == F[tgt]) & (F[tgt] != init[tgt])]
        tainted[seeds] = True

    # --- forward closure over old-graph support edges -----------------
    out_indptr, out_eids = old_graph.out_csr()
    frontier = np.flatnonzero(tainted)
    while frontier.size:
        spans = [
            out_eids[out_indptr[v]: out_indptr[v + 1]]
            for v in frontier.tolist()
        ]
        eids = np.concatenate(spans) if spans else np.empty(0, dtype=np.int64)
        if eids.size == 0:
            break
        msgs = program.edge_message(mg_old, eids, F[old_graph.src[eids]])
        tgt = old_graph.dst[eids]
        support = (msgs == F[tgt]) & (F[tgt] != init[tgt]) & ~tainted[tgt]
        frontier = np.unique(tgt[support])
        tainted[frontier] = True

    reseed = np.ones(n_new, dtype=bool)
    reseed[:n_old] = tainted

    # --- warm overlay: fixpoint values for untainted old vertices -----
    warm_state = {"vdata": init.copy()}
    keep = np.flatnonzero(~tainted)
    warm_state["vdata"][keep] = F[keep]
    for key, arr in old_state.items():
        if key == "vdata":
            continue
        cold = program.make_state(mg_new)[key]
        cold[keep] = arr[keep]
        warm_state[key] = cold

    # --- injections: untainted sources into tainted/inserted targets --
    src_ok = np.zeros(n_new, dtype=bool)
    src_ok[:n_old] = ~tainted
    cand = src_ok[new_graph.src] & reseed[new_graph.dst]
    ins_mask = np.zeros(new_graph.num_edges, dtype=bool)
    ins_mask[inserted] = True
    cand |= src_ok[new_graph.src] & ins_mask
    sel = np.flatnonzero(cand)
    buf = np.full(n_new, ident, dtype=np.float64)
    if sel.size:
        # sources are untainted old vertices: their warm value is F
        Fx = np.full(n_new, ident, dtype=np.float64)
        Fx[:n_old] = F
        msgs = program.edge_message(mg_new, sel, Fx[new_graph.src[sel]])
        scatter_reduce(algebra, buf, new_graph.dst[sel], msgs)
    inj_idx = np.flatnonzero(buf != ident)
    return WarmStartProgram(
        program, warm_state, reseed, inj_idx, buf[inj_idx]
    )


def _plan_invertible(
    program: DeltaProgram,
    old_graph: DiGraph,
    new_graph: DiGraph,
    old_state: Dict[str, np.ndarray],
    removed: np.ndarray,
    inserted: np.ndarray,
) -> WarmStartProgram:
    """SUM plan: retroactive re-scatter of historical mass, affected
    edges only (untouched terms cancel by omission)."""
    n_old = old_graph.num_vertices
    n_new = new_graph.num_vertices
    mg_old = global_machine_graph(old_graph)
    mg_new = global_machine_graph(new_graph)
    F = old_state["vdata"]
    P = old_state.get("pending")
    # total delta mass each old vertex pushed through its out-edges
    # (bootstrap + every fired pending, telescoped)
    R = F - P if P is not None else F
    R_ext = np.zeros(n_new, dtype=np.float64)
    R_ext[:n_old] = R

    # affected source set: out-degree changed across the mutation
    deg_old = old_graph.out_degrees()
    deg_new = new_graph.out_degrees()
    deg_changed = np.zeros(n_new, dtype=bool)
    deg_changed[:n_old] = deg_old != deg_new[:n_old]

    # old-side terms: deleted edges + retained out-edges of changed sources
    old_aff = np.zeros(old_graph.num_edges, dtype=bool)
    old_aff[removed] = True
    old_aff |= deg_changed[old_graph.src]
    # new-side terms: inserted edges + retained out-edges of changed sources
    new_aff = np.zeros(new_graph.num_edges, dtype=bool)
    new_aff[inserted] = True
    new_aff |= deg_changed[new_graph.src]

    corr = np.zeros(n_new, dtype=np.float64)
    sel = np.flatnonzero(new_aff)
    if sel.size:
        msgs = program.edge_message(mg_new, sel, R_ext[new_graph.src[sel]])
        np.add.at(corr, new_graph.dst[sel], msgs)
    sel = np.flatnonzero(old_aff)
    if sel.size:
        msgs = program.edge_message(mg_old, sel, R[old_graph.src[sel]])
        np.subtract.at(corr, old_graph.dst[sel], msgs)

    reseed = np.zeros(n_new, dtype=bool)
    reseed[n_old:] = True  # fresh vertices bootstrap cold

    warm_state: Dict[str, np.ndarray] = {}
    keep = np.arange(n_old, dtype=np.int64)
    for key, arr in old_state.items():
        cold = program.make_state(mg_new)[key]
        cold[keep] = arr
        warm_state[key] = cold

    inj_idx = np.flatnonzero(corr != 0.0)
    return WarmStartProgram(
        program, warm_state, reseed, inj_idx, corr[inj_idx]
    )


def plan_warm_start(
    program: DeltaProgram,
    old_graph: DiGraph,
    new_graph: DiGraph,
    old_state: Dict[str, np.ndarray],
    removed: np.ndarray,
    inserted: np.ndarray,
) -> WarmStartProgram:
    """Build the warm-start adapter for re-running ``program`` after a
    mutation.

    ``old_state`` is the converged global state (from
    :func:`collect_state`) of a run of ``program`` on ``old_graph``;
    ``new_graph`` is the mutated graph. ``removed`` are the ids in
    ``old_graph`` of the edges ``new_graph`` lost and ``inserted`` the
    ids in ``new_graph`` of the edges it gained — the session composes
    them from the edge diffs its patches recorded
    (:func:`~repro.graph.mutation.compose_edge_delta`); a replaced edge
    may appear on both sides. Dispatches on the program's algebra:
    idempotent → taint/reset/reseed, invertible → signed retroactive
    corrections.
    """
    if not getattr(program, "supports_warm_start", False):
        raise AlgorithmError(
            f"program {program.name!r} does not support warm starts "
            f"(supports_warm_start=False)"
        )
    if new_graph.num_vertices < old_graph.num_vertices:
        raise AlgorithmError(
            "warm start requires stable vertex ids (the vertex set can "
            "only grow)"
        )
    if program.algebra.idempotent:
        return _plan_idempotent(
            program, old_graph, new_graph, old_state, removed, inserted
        )
    if program.algebra.inverse_ufunc is not None:
        return _plan_invertible(
            program, old_graph, new_graph, old_state, removed, inserted
        )
    raise AlgorithmError(
        f"algebra {program.algebra.name!r} is neither idempotent nor "
        f"invertible; no warm-start plan exists"
    )
