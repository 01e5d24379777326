"""The warm-start planners and adapter hooks as they stood before the
batch-sized rewrite, kept as the readable oracle.

``global_machine_graph``, ``_plan_idempotent`` and ``_plan_invertible``
are verbatim copies, as are the two hook bodies of
:class:`WarmStartProgram` below — do not tidy them. Each planner reads
whole-graph views (one ``MachineGraph`` over every edge of each graph,
the old graph's out-CSR, both graphs' out-degrees) and the hooks scatter
every kept slot and ``searchsorted`` every slot into the injection
table. ``tests/property/test_warm_plan_props.py`` requires
:func:`repro.runtime.warm_start.plan_warm_start` and its adapter to
equal these byte for byte.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.vertex_program import DeltaProgram
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.kernels.segment_reduce import scatter_reduce
from repro.partition.partitioned_graph import MachineGraph
from repro.runtime import warm_start


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


class WarmStartProgram(warm_start.WarmStartProgram):
    """The adapter with the overlay and injection hooks of the oracle."""

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
    """The oracle's dispatch: the same algebra split as the library's."""
    if program.algebra.idempotent:
        return _plan_idempotent(
            program, old_graph, new_graph, old_state, removed, inserted
        )
    return _plan_invertible(
        program, old_graph, new_graph, old_state, removed, inserted
    )
