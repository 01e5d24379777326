"""Warm-starting delta engines from a previous fixpoint after a mutation.

A converged delta run leaves a fixpoint: per-vertex state plus the
guarantee that no pending message would change it. After a small graph
mutation, almost all of that fixpoint is still exactly right — the
paper's lazy engines only need to be told *where* it is wrong. This
module computes that correction host-side (program-agnostically, by
driving the program's own hooks against planning views: every vertex
as one :class:`MachineGraph`, holding just the edges being evaluated)
and packages it as a :class:`WarmStartProgram`: a drop-in
:class:`DeltaProgram` adapter that

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

**What a plan reads, and what it costs.** No whole-graph view and no
sort but of batch-sized id lists: a plan costs O(batch + affected
vertices + n), plus the one table scan an idempotent plan that tainted
something makes (below).
Both plans read the program's cold state off a vertex-only view, the
old fixpoint, the batch's edge ids and both graphs' out-degrees, which
:func:`~repro.graph.mutation.apply_batch` carries from graph to graph.
Out-edges of a vertex set come from the session's resident partition
of the new graph (:class:`_Planning`: replica rows, then each block's
out-plan), in time proportional to the vertices, their replicas and
their out-edges.

* Idempotent: the seeds are the removed edges' targets; each closure
  round looks up the out-edges of the vertices the last round tainted
  (an id list), so the closure costs O(batch) per round plus the
  tainted vertices' replicas and out-edges; the injections read the
  inserted edges and, once anything is tainted, the tainted vertices'
  in-edges — one table scan of the new graph's targets, since no
  in-adjacency is kept.
* Invertible: the changed sources are among the batch's sources (their
  old and new out-degrees compared there); one lookup per side finds
  their out-edges. The folds stay in ascending edge-id order, new side
  then old side (``np.add.at`` then ``np.subtract.at``).

The adapter's hooks cost O(slots) per block: ``make_state`` gathers the
warm value of every slot and puts the cold init back on the reseeded
ones, and ``initial_messages`` reads two dense per-vertex injection
tables. ``tests/warm_plan_oracle.py`` keeps the whole-graph planners
and hooks these replaced; ``tests/property/test_warm_plan_props.py``
holds the two equal byte for byte.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.vertex_program import DeltaProgram
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.kernels.csr import CSRPlan
from repro.kernels.segment_reduce import scatter_reduce
from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph

__all__ = [
    "WarmStartProgram",
    "plan_warm_start",
    "graph_delta",
    "collect_state",
]

_NO_IDS = np.empty(0, dtype=np.int64)


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
        # the injection table spread over every global vertex, so a
        # block finds the slots it hosts with two gathers
        self._injected = np.zeros(self.reseed.size, dtype=bool)
        self._injected[self.inject_idx] = True
        self._inject_dense = np.zeros(self.reseed.size, dtype=np.float64)
        self._inject_dense[self.inject_idx] = self.inject_val

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
        # every slot gathers its warm value, then the few reseeded slots
        # take the cold init back
        cold = (
            np.flatnonzero(self.reseed[mg.vertices]) if self.num_reseeded
            else _NO_IDS
        )
        for key, warm in self.warm_state.items():
            if key not in state:
                raise AlgorithmError(
                    f"{self.name}: warm state key {key!r} missing from "
                    f"the program's make_state"
                )
            init = state[key]
            out = warm[mg.vertices].astype(init.dtype, copy=False)
            out[cold] = init[cold]
            state[key] = out
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
        idx = np.flatnonzero(self._injected[mg.vertices])
        if idx.size == 0:
            return None
        return idx, self._inject_dense[mg.vertices[idx]]

    def apply(self, mg, state, idx, accum):
        return self.base.apply(mg, state, idx, accum)

    def edge_message(self, mg, edge_sel, delta_per_edge):
        # a base that declares only edge_message is reached through
        # here: the derived one would find no transform to evaluate
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
def _plus(ids: np.ndarray, more: np.ndarray) -> np.ndarray:
    """The ascending union of two disjoint batch-sized edge-id sets."""
    return np.sort(np.concatenate([ids, more]))


def _distinct(ids: np.ndarray) -> np.ndarray:
    """The distinct values of a batch-sized id list, ascending."""
    ids = np.sort(ids)
    keep = np.ones(ids.size, dtype=bool)
    np.not_equal(ids[1:], ids[:-1], out=keep[1:])
    return ids[keep]


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The ranges ``[starts[i], starts[i] + counts[i])``, concatenated."""
    ends = np.cumsum(counts)
    if not ends.size or not ends[-1]:
        return _NO_IDS
    return np.repeat(starts + counts - ends, counts) + np.arange(ends[-1])


class _Planning:
    """What a plan reads of the two graphs: views, cold state, out-edges.

    A planning view (:meth:`view`) is every vertex of a graph as one
    machine, holding only the edges being evaluated; all views share one
    set of vertex arrays. Out-edges come from the new graph's resident
    partition (split-free, so every edge is exactly one machine's local
    edge): a lookup takes distinct vertex ids, reads their replica rows
    and, per block, expands the slots they own through the block's
    out-plan (the engines' own source-ordered CSR of its local edges) —
    O(vertices + replicas + out-edges), no pass over E. It returns the
    surviving edges only: the new graph is laid out as the old graph's
    survivors in order, then the inserted edges, so a survivor's old id
    is its new id plus the removed ids before it. A plan adds the
    removed and inserted edges it needs itself, and sorts what it folds.
    """

    def __init__(
        self,
        old_graph: DiGraph,
        new_graph: DiGraph,
        removed: np.ndarray,
        inserted: np.ndarray,
        partition: PartitionedGraph,
        plans: Sequence[CSRPlan],
    ) -> None:
        born = new_graph.num_edges - inserted.size
        if (
            partition.graph is not new_graph
            or len(plans) != len(partition.blocks)
            or partition.parallel_eids.size
            or born != old_graph.num_edges - removed.size
            or (inserted.size and inserted[0] != born)
        ):
            raise AlgorithmError(
                "the partition given to the warm-start planner must be the "
                "split-free partition of the new graph, with one out-plan "
                "per block, laid out as the old graph's surviving edges "
                "followed by the inserted ones"
            )
        self.old_graph = old_graph
        self.new_graph = new_graph
        self.removed = removed
        self.inserted = inserted
        self.partition = partition
        self.plans = plans
        n = new_graph.num_vertices
        self._vertices = np.arange(n, dtype=np.int64)
        self._is_master = np.ones(n, dtype=bool)
        self._num_replicas = np.ones(n, dtype=np.int64)
        self._born = born
        # survivor rank at which each removed id was dropped
        self._gone_rank = removed - np.arange(removed.size)
        machines = partition.num_machines
        self._block_of = np.empty(machines, dtype=np.int64)
        self._slot_base = np.empty(machines, dtype=np.int64)
        for b, mg in enumerate(partition.blocks):
            span = slice(mg.machine_id, mg.machine_id + mg.num_machines)
            self._block_of[span] = b
            self._slot_base[span] = mg.machine_offsets[:-1]

    def view(self, graph: DiGraph, eids: np.ndarray) -> MachineGraph:
        """Every vertex of ``graph`` as one machine, holding the edges
        ``eids`` (edge ``i`` of the view is graph edge ``eids[i]``):
        O(len(eids)) beyond the shared vertex arrays. The out-degrees
        are the graph's cache, which
        :func:`~repro.graph.mutation.apply_batch` carries from graph to
        graph."""
        n, k = graph.num_vertices, eids.size
        return MachineGraph(
            machine_id=0,
            vertices=self._vertices[:n],
            is_master=self._is_master[:n],
            esrc=graph.src[eids],
            edst=graph.dst[eids],
            eweight=(
                np.ones(k) if graph.weights is None else graph.weights[eids]
            ),
            eparallel=np.zeros(k, dtype=bool),
            eglobal=eids,
            out_deg_global=graph.out_degrees(),
            num_replicas=self._num_replicas[:n],
        )

    def cold_state(self, program: DeltaProgram) -> Dict[str, np.ndarray]:
        """``program``'s cold-start state of every new-graph vertex."""
        return program.make_state(self.view(self.new_graph, _NO_IDS))

    def messages(
        self, program: DeltaProgram, graph: DiGraph, eids: np.ndarray,
        delta: np.ndarray,
    ) -> np.ndarray:
        """``program``'s messages along the edges ``eids`` of ``graph``."""
        view = self.view(graph, eids)
        return program.edge_message(view, np.arange(eids.size), delta)

    def survivors_out(self, vs: np.ndarray) -> np.ndarray:
        """New-graph ids of the surviving (not inserted) edges leaving
        the distinct vertices ``vs``, in no particular order."""
        p = self.partition
        lo = p.rep_indptr[vs]
        rows = _ranges(lo, p.rep_indptr[vs + 1] - lo)
        machine = p.rep_machines[rows]
        slot = self._slot_base[machine] + p.rep_local_idx[rows]
        block = self._block_of[machine]
        parts = [_NO_IDS]
        for b, (mg, plan) in enumerate(zip(p.blocks, self.plans)):
            mine = slot[block == b]
            if mine.size:
                pos, _ = plan.flatten(mine)
                parts.append(mg.eglobal[plan.edge_ids(pos)])
        out = np.concatenate(parts)
        return out[out < self._born]

    def old_ids(self, kept: np.ndarray) -> np.ndarray:
        """The old-graph ids of the surviving edges ``kept`` (new ids)."""
        return kept + np.searchsorted(self._gone_rank, kept, side="right")


def _plan_idempotent(
    program: DeltaProgram,
    old_state: Dict[str, np.ndarray],
    graphs: _Planning,
) -> WarmStartProgram:
    """MIN/MAX plan: taint closure + reset + boundary injections."""
    old_graph, new_graph = graphs.old_graph, graphs.new_graph
    removed, inserted = graphs.removed, graphs.inserted
    algebra = program.algebra
    ident = algebra.identity
    n_old = old_graph.num_vertices
    n_new = new_graph.num_vertices
    F = old_state["vdata"]
    cold = graphs.cold_state(program)
    init = cold["vdata"]

    def supporting(eids: np.ndarray) -> np.ndarray:
        """Targets of the old edges ``eids`` that derived their value
        through them."""
        msgs = graphs.messages(
            program, old_graph, eids, F[old_graph.src[eids]]
        )
        tgt = old_graph.dst[eids]
        Ft = F[tgt]
        return tgt[(msgs == Ft) & (Ft != init[tgt])]

    # --- taint seeds: deleted edges that supported their target, then
    # the forward closure over old-graph support edges, one round per
    # frontier of newly tainted vertices ------------------------------
    tainted = np.zeros(n_old, dtype=bool)
    reached = supporting(removed)
    while True:
        reached = _distinct(reached[~tainted[reached]])
        if not reached.size:
            break
        tainted[reached] = True
        # a removed edge out of ``reached`` is skipped: every target
        # one supported is a seed, already tainted
        reached = supporting(graphs.old_ids(graphs.survivors_out(reached)))

    reseed = np.ones(n_new, dtype=bool)
    reseed[:n_old] = tainted
    fix = np.flatnonzero(tainted)

    # --- injections: untainted sources into tainted/inserted targets.
    # Edges into fresh vertices are all inserted; only a tainted target
    # needs its in-edges found, by one table scan of the edge array ----
    src_ok = np.zeros(n_new, dtype=bool)
    src_ok[:n_old] = ~tainted
    sel = inserted[src_ok[new_graph.src[inserted]]]
    if fix.size:
        into = np.zeros(n_new, dtype=bool)
        into[fix] = True
        boundary = np.flatnonzero(into[new_graph.dst])
        boundary = boundary[src_ok[new_graph.src[boundary]]]
        sel = _plus(boundary, sel[~into[new_graph.dst[sel]]])
    buf = np.full(n_new, ident, dtype=np.float64)
    if sel.size:
        # sources are untainted old vertices: their warm value is F
        msgs = graphs.messages(
            program, new_graph, sel, F[new_graph.src[sel]]
        )
        scatter_reduce(algebra, buf, new_graph.dst[sel], msgs)
    inj_idx = np.flatnonzero(buf != ident)

    # --- warm overlay: fixpoint values for untainted old vertices -----
    warm_state = {}
    for key in ["vdata", *(k for k in old_state if k != "vdata")]:
        arr = cold[key]
        keep_cold = arr[fix]
        arr[:n_old] = old_state[key]
        arr[fix] = keep_cold
        warm_state[key] = arr
    return WarmStartProgram(
        program, warm_state, reseed, inj_idx, buf[inj_idx]
    )


def _plan_invertible(
    program: DeltaProgram,
    old_state: Dict[str, np.ndarray],
    graphs: _Planning,
) -> WarmStartProgram:
    """SUM plan: retroactive re-scatter of historical mass, affected
    edges only (untouched terms cancel by omission)."""
    old_graph, new_graph = graphs.old_graph, graphs.new_graph
    removed, inserted = graphs.removed, graphs.inserted
    n_old = old_graph.num_vertices
    n_new = new_graph.num_vertices
    F = old_state["vdata"]
    P = old_state.get("pending")
    # total delta mass each old vertex pushed through its out-edges
    # (bootstrap + every fired pending, telescoped)
    R = F - P if P is not None else F
    R_ext = np.zeros(n_new, dtype=np.float64)
    R_ext[:n_old] = R

    # affected source set: out-degree changed across the mutation; only
    # a source of a removed or inserted edge can have
    ends = np.concatenate(
        [old_graph.src[removed], new_graph.src[inserted]]
    )
    ends = ends[ends < n_old]
    changed = _distinct(ends[
        old_graph.out_degrees()[ends] != new_graph.out_degrees()[ends]
    ])
    kept = graphs.survivors_out(changed)

    # each side's terms: its own inserted / removed edges plus the
    # surviving out-edges of the changed sources; new side first, then
    # old, each in ascending edge-id order
    corr = np.zeros(n_new, dtype=np.float64)
    sel = _plus(kept, inserted)
    if sel.size:
        msgs = graphs.messages(
            program, new_graph, sel, R_ext[new_graph.src[sel]]
        )
        np.add.at(corr, new_graph.dst[sel], msgs)
    sel = _plus(graphs.old_ids(kept), removed)
    if sel.size:
        msgs = graphs.messages(
            program, old_graph, sel, R[old_graph.src[sel]]
        )
        np.subtract.at(corr, old_graph.dst[sel], msgs)

    reseed = np.zeros(n_new, dtype=bool)
    reseed[n_old:] = True  # fresh vertices bootstrap cold

    warm_state: Dict[str, np.ndarray] = {}
    cold = graphs.cold_state(program)
    for key, arr in old_state.items():
        cold[key][:n_old] = arr
        warm_state[key] = cold[key]

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
    partition: PartitionedGraph,
    plans: Sequence[CSRPlan],
) -> WarmStartProgram:
    """Build the warm-start adapter for re-running ``program`` after a
    mutation.

    ``old_state`` is the converged global state (from
    :func:`collect_state`) of a run of ``program`` on ``old_graph``;
    ``new_graph`` is the mutated graph. ``removed`` are the ascending
    ids in ``old_graph`` of the edges ``new_graph`` lost and
    ``inserted`` the ascending ids in ``new_graph`` of the edges it
    gained — the session composes them from the edge diffs its patches
    recorded (:func:`~repro.graph.mutation.compose_edge_delta`); a
    replaced edge may appear on both sides. ``partition`` is
    ``new_graph``'s resident split-free partition, and ``new_graph``
    must be ``old_graph``'s surviving edges in order followed by the
    inserted ones (every patched session graph is); ``plans`` are the
    out-plans of its blocks (one :class:`~repro.kernels.csr.CSRPlan`
    over each block's local edges, keyed by source — what the delta
    engines run on). The planner finds out-edges through them.
    Dispatches on the
    program's algebra: idempotent → taint/reset/reseed, invertible →
    signed retroactive corrections.
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
        plan = _plan_idempotent
    elif program.algebra.inverse_ufunc is not None:
        plan = _plan_invertible
    else:
        raise AlgorithmError(
            f"algebra {program.algebra.name!r} is neither idempotent nor "
            f"invertible; no warm-start plan exists"
        )
    graphs = _Planning(
        old_graph, new_graph, removed, inserted, partition, plans
    )
    return plan(program, old_state, graphs)
