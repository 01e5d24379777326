"""The distributed graph representation both engine families execute on.

A :class:`PartitionedGraph` is built from a graph, an edge→machine
assignment (vertex-cut) and an optional set of *parallel-edges* (paper
§3.3/§4.1). It materializes:

* one :class:`MachineGraph` per machine — the machine's local vertices
  (global ids + local re-numbering), its local edges in local indices,
  per-edge transmission mode, and master/mirror flags;
* global routing tables — the machines hosting each vertex (replica CSR
  with aligned local indices) and each vertex's master machine.

Transmission modes
------------------
An edge in **one-edge** mode lives on exactly one machine (classic
PowerGraph); remote delivery of its messages rides on the replica
coherency mechanism. An edge in **parallel-edges** mode is *instantiated
on every machine that hosts a replica of its target* (the paper's
dispatch rule), with the source vertex gaining replicas on those machines
as needed; its messages are local writes everywhere and are **not**
folded into ``deltaMsg`` (no double counting at coherency points).
Dispatch is a fixpoint: adding a replica of ``v`` can widen the required
span of parallel edges *into* ``v``.

Construction
------------
:meth:`PartitionedGraph.build` is the one constructor, used by cold
set-up and by every mutation patch alike, so it works on whole arrays:
the replica sets are a sorted table of ``vertex * P + machine`` keys
(one :func:`~repro.utils.keysort.unique_counts` over both endpoints of
every one-edge edge, whose counts double as the master scores), masters
and local indices come from segment reductions over that table and
width-sized stable sorts (:mod:`repro.utils.keysort`), and the only
per-vertex Python left is the home-machine hash of vertices no one-edge
edge touches.
``tests/unit/test_build_pins.py`` pins every output array, dtype
included, to what the per-vertex bitmask loops it replaced produced.

Blocks
------
Between coherency points machines are independent, so the host does not
have to visit them one call at a time: :attr:`PartitionedGraph.blocks`
groups *consecutive* machines into the runtime's unit of execution — a
:class:`MachineGraph` that is the disjoint union of its machines' local
graphs (local indices offset, edge order preserved) plus
``machine_offsets``. Consecutive machines merge greedily while the
block stays within ``_BLOCK_EDGE_BUDGET`` (2¹⁷) local edges, so the rule
is a property of machine size alone: many small machines share a call,
a machine past half the budget can only share with a smaller
neighbour, and one past the budget is always a block of one — which
*is* its ``machines[m]`` entry. Every per-machine array is a slice of
one flat allocation in machine order, so a merged block's arrays are
views too — only its block-local ``esrc`` / ``edst`` are new memory
(16 B per local edge, kept while the partition lives).
``docs/performance.md`` ("Blocks") has the measurements behind the
budget.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.partition.base import validate_assignment
from repro.utils.keysort import stable_argsort, unique_counts
from repro.utils.rng import derive_seed

__all__ = ["MachineGraph", "PartitionedGraph"]

_HOME_SEED = 0xC0FFEE  # hash seed for edge-less vertices' home machines

# Local edges a block may hold before the next machine starts a new one:
# enough that small machines (the service graph's 8 x 21k, a road grid's
# 48 x 1.2k) pay a sweep's fixed per-call cost once per block, small
# enough that two machines past 2**16 edges, which amortise their own
# call, never share one and keep cache-sized mailboxes (one flat runtime
# over big machines is *slower*, and 2**18 costs memory —
# docs/performance.md).
_BLOCK_EDGE_BUDGET = 1 << 17


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (``counts.size + 1``, int64) of back-to-back segments."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _block_bounds(edge_counts: Sequence[int]) -> List[Tuple[int, int]]:
    """Greedy ``[lo, hi)`` machine ranges under the block edge budget.

    A block always takes at least one machine; the rule reads nothing
    but the partition's local edge counts.
    """
    bounds = []
    lo = load = 0
    for m, edges in enumerate(edge_counts):
        if m > lo and load + edges > _BLOCK_EDGE_BUDGET:
            bounds.append((lo, m))
            lo, load = m, 0
        load += edges
    bounds.append((lo, len(edge_counts)))
    return bounds


@dataclass
class MachineGraph:
    """One machine's share of the partitioned graph — or a block of them.

    All vertex fields are indexed by *local* vertex index; ``vertices``
    maps local → global. Edge arrays are aligned with each other.

    A block (:attr:`PartitionedGraph.blocks`) lays consecutive machines
    back to back: ``machine_id`` is its first machine and machine
    ``machine_id + j`` owns the local slots
    ``machine_offsets[j]:machine_offsets[j + 1]``. Its ``vertices`` are
    ascending per machine, not overall, and a vertex replicated on two
    of its machines appears twice. A plain machine is a block of one.
    """

    machine_id: int
    vertices: np.ndarray  # (n_local,) global ids, sorted ascending
    is_master: np.ndarray  # (n_local,) bool
    esrc: np.ndarray  # (n_edges,) local source index
    edst: np.ndarray  # (n_edges,) local target index
    eweight: np.ndarray  # (n_edges,) float64
    eparallel: np.ndarray  # (n_edges,) bool: parallel-edge copy?
    eglobal: np.ndarray  # (n_edges,) global edge id
    out_deg_global: np.ndarray  # (n_local,) global out-degree of the vertex
    num_replicas: np.ndarray  # (n_local,) replica count of the vertex

    def __post_init__(self) -> None:
        # an attribute, deliberately not a dataclass field: the fields
        # are exactly the per-machine arrays ``build`` materializes
        # (``tests/unit/test_build_pins.py`` digests ``fields()``), and
        # this is layout, overwritten only for a merged block
        self.machine_offsets: np.ndarray = np.array(
            [0, self.vertices.size], dtype=np.int64
        )

    @property
    def num_machines(self) -> int:
        """Machines laid out in this graph (1 unless it is a merged block)."""
        return int(self.machine_offsets.size) - 1

    @property
    def machine_ids(self) -> range:
        """Ids of the machines laid out in this graph, ascending."""
        return range(self.machine_id, self.machine_id + self.num_machines)

    @property
    def num_local_vertices(self) -> int:
        return int(self.vertices.size)

    @property
    def num_local_edges(self) -> int:
        return int(self.esrc.size)

    def global_to_local(self, gids: np.ndarray) -> np.ndarray:
        """Map global vertex ids to local indices.

        Raises :class:`PartitionError` for an id this machine does not
        host, and on a merged block, where a global id may sit on
        several machines and ``vertices`` is not ascending overall.
        """
        if self.num_machines > 1:
            raise PartitionError(
                f"global_to_local is per machine; this is a block of "
                f"{self.num_machines} machines"
            )
        gids = np.asarray(gids, dtype=np.int64)
        idx = np.searchsorted(self.vertices, gids)
        # the sentinel answers for insertion points past the last vertex
        missing = np.append(self.vertices, -1)[idx] != gids
        if missing.any():
            raise PartitionError(
                f"vertex {int(gids[missing].flat[0])} has no replica on "
                f"machine {self.machine_id}"
            )
        return idx

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MachineGraph(m={self.machine_id}, |V|={self.num_local_vertices}, "
            f"|E|={self.num_local_edges}, parallel={int(self.eparallel.sum())})"
        )


def _machine_span(
    flat: Dict[str, np.ndarray], lo: int, hi: int
) -> MachineGraph:
    """Machines ``[lo, hi)`` of a flat layout as one :class:`MachineGraph`.

    Every field is a view of the flat arrays except a merged span's
    ``esrc`` / ``edst``, which are renumbered block-locally (each
    machine's local indices shifted by its offset in the block).
    """
    vs, es = flat["vstarts"], flat["estarts"]
    v = slice(vs[lo], vs[hi])
    e = slice(es[lo], es[hi])
    esrc, edst = flat["esrc"][e], flat["edst"][e]
    if hi - lo > 1:
        shift = np.repeat(vs[lo:hi] - vs[lo], np.diff(es[lo : hi + 1]))
        esrc, edst = esrc + shift, edst + shift
    span = MachineGraph(
        machine_id=lo,
        vertices=flat["vertices"][v],
        is_master=flat["is_master"][v],
        esrc=esrc,
        edst=edst,
        eweight=flat["eweight"][e],
        eparallel=flat["eparallel"][e],
        eglobal=flat["eglobal"][e],
        out_deg_global=flat["out_deg_global"][v],
        num_replicas=flat["num_replicas"][v],
    )
    span.machine_offsets = vs[lo : hi + 1] - vs[lo]
    return span


@dataclass
class PartitionedGraph:
    """A graph placed across ``num_machines`` simulated machines."""

    graph: DiGraph
    num_machines: int
    machines: List[MachineGraph]
    master_of: np.ndarray  # (n,) machine id of each vertex's master
    rep_indptr: np.ndarray  # (n+1,) CSR over vertices
    rep_machines: np.ndarray  # machine of each replica
    rep_local_idx: np.ndarray  # local index of each replica on its machine
    num_replicas: np.ndarray  # (n,) replica counts
    parallel_eids: np.ndarray  # global ids of edges in parallel mode
    assignment: np.ndarray  # one-edge home machine per edge (parallel: -1)
    extra_stats: dict = field(default_factory=dict)
    # the flat arrays every machine's fields are slices of, and the
    # lazily built block list over them (dropped with the partition)
    _flat: Dict[str, np.ndarray] = field(
        default_factory=dict, repr=False, compare=False
    )
    _blocks: Optional[List[MachineGraph]] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    @property
    def replication_factor(self) -> float:
        """λ: mean replicas per vertex (Table 1 column)."""
        if self.graph.num_vertices == 0:
            return 0.0
        return float(self.num_replicas.mean())

    def replicas_of(self, v: int) -> np.ndarray:
        """Machines hosting vertex ``v`` (sorted)."""
        return self.rep_machines[self.rep_indptr[v] : self.rep_indptr[v + 1]]

    @property
    def blocks(self) -> List[MachineGraph]:
        """The runtime's units of execution, in ascending machine order.

        Consecutive machines merged up to the block edge budget; each
        machine is in exactly one block. A block of one is the
        ``machines[m]`` object itself. Built on first use.
        """
        if self._blocks is None:
            self._blocks = [
                self.machines[lo]
                if hi - lo == 1
                else _machine_span(self._flat, lo, hi)
                for lo, hi in _block_bounds(
                    [mg.num_local_edges for mg in self.machines]
                )
            ]
        return self._blocks

    # ------------------------------------------------------------------
    @staticmethod
    def build(
        graph: DiGraph,
        assignment: np.ndarray,
        num_machines: int,
        parallel_eids: Optional[Sequence[int]] = None,
        bidirectional: bool = False,
    ) -> "PartitionedGraph":
        """Materialize the distributed representation.

        Parameters
        ----------
        graph, assignment, num_machines:
            The vertex-cut: ``assignment[e]`` is edge ``e``'s machine.
        parallel_eids:
            Global edge ids to place in parallel-edges mode. Their
            ``assignment`` entry is ignored; they are instantiated by the
            dispatch fixpoint instead.
        bidirectional:
            Use the dispatch rule for bidirectional algorithms (parallel
            edge ``v→u`` must appear wherever *either* endpoint has a
            replica). Default is the unidirectional rule (target's
            machines only), which is what push-style programs need.
        """
        if num_machines < 1:
            raise PartitionError(f"num_machines must be >= 1, got {num_machines}")
        if num_machines > 1024:
            raise PartitionError("num_machines > 1024 not supported")
        assignment = validate_assignment(graph, assignment, num_machines)
        n = graph.num_vertices

        par = np.zeros(graph.num_edges, dtype=bool)
        if parallel_eids is not None:
            pe = np.asarray(list(parallel_eids), dtype=np.int64)
            if pe.size and (pe.min() < 0 or pe.max() >= graph.num_edges):
                raise PartitionError("parallel edge id out of range")
            par[pe] = True
        parallel_eids_arr = np.flatnonzero(par).astype(np.int64)

        # ---- sorted (vertex, machine) pair table of one-edge placements --
        # key = vertex * P + machine over both endpoints of every
        # one-edge edge; the multiplicity of a pair is the vertex's
        # incident-edge count on that machine (the master score)
        P = np.int64(num_machines)
        one_ids = np.flatnonzero(~par).astype(np.int64)
        asg_one = assignment[one_ids]
        pair_keys, pair_score = unique_counts(
            np.concatenate([graph.src[one_ids], graph.dst[one_ids]]) * P
            + np.concatenate([asg_one, asg_one]),
            n * num_machines,
        )

        # ---- home machines for vertices untouched by one-edge edges ----
        # (edge-less vertices, or endpoints of only-parallel edges)
        hosted = np.zeros(n, dtype=bool)
        hosted[pair_keys // P] = True
        lonely = np.flatnonzero(~hosted)
        home_keys = lonely * P + np.array(
            [derive_seed(_HOME_SEED, str(v)) % num_machines
             for v in lonely.tolist()],
            dtype=np.int64,
        )

        # ---- parallel-edges dispatch fixpoint ---------------------------
        # the least fixpoint of "source absorbs the target's machines"
        # (both ways when bidirectional), so evaluation order is free:
        # run it over one bool row per endpoint of a parallel edge
        num_par = parallel_eids_arr.size
        ends, row = np.unique(
            np.concatenate(
                [graph.src[parallel_eids_arr], graph.dst[parallel_eids_arr]]
            ),
            return_inverse=True,
        )
        src_row, dst_row = row[:num_par], row[num_par:]
        row_of = np.full(n, -1, dtype=np.int64)
        row_of[ends] = np.arange(ends.size)
        base_keys = np.concatenate([pair_keys, home_keys])
        base_row = row_of[base_keys // P]
        on_end = base_row >= 0
        seeded = np.zeros((ends.size, num_machines), dtype=bool)
        seeded[base_row[on_end], base_keys[on_end] % P] = True
        # per parallel edge, row ``take`` absorbs row ``give``
        take, give = src_row, dst_row
        if bidirectional:
            take, give = (
                np.concatenate([src_row, dst_row]),
                np.concatenate([dst_row, src_row]),
            )
        by_taker = stable_argsort(take, ends.size)
        takers, per_taker = unique_counts(take, ends.size)
        first = _offsets(per_taker)[:-1]
        givers = give[by_taker]  # takers[i] absorbs givers[first[i]:first[i+1]]
        spans = seeded.copy()
        while True:
            held = spans[takers]
            grown = held | np.logical_or.reduceat(spans[givers], first, axis=0)
            if np.array_equal(grown, held):
                break
            spans[takers] = grown
        new_row, new_machine = np.nonzero(spans & ~seeded)

        # ---- the full replica table: one-edge + home + dispatched pairs --
        extra = np.sort(
            np.concatenate([home_keys, ends[new_row] * P + new_machine])
        )
        at = np.searchsorted(pair_keys, extra)
        keys = np.insert(pair_keys, at, extra)
        score = np.insert(pair_score, at, 0)
        rep_vertex = keys // P
        rep_machines = (keys % P).astype(np.int32)  # ascending per vertex
        counts = np.bincount(rep_vertex, minlength=n).astype(np.int64)
        rep_indptr = _offsets(counts)

        # ---- master selection: machine with most one-edge incident edges
        # (lowest machine id among ties; dispatched/home replicas score 0)
        top = np.repeat(np.maximum.reduceat(score, rep_indptr[:-1]), counts)
        slot = np.where(score == top, np.arange(keys.size), keys.size)
        master_of = rep_machines[np.minimum.reduceat(slot, rep_indptr[:-1])]

        # ---- per-machine vertex lists and local indices ------------------
        # a stable sort by machine keeps each machine's vertices ascending
        order = stable_argsort(rep_machines, num_machines)
        by_machine_verts = rep_vertex[order]
        starts = _offsets(np.bincount(rep_machines, minlength=num_machines))
        rep_local_idx = np.empty(keys.size, dtype=np.int64)
        rep_local_idx[order] = (
            np.arange(keys.size) - starts[rep_machines[order]]
        )

        # ---- per-machine arrays, laid out back to back -------------------
        # every MachineGraph field is a slice of one flat allocation in
        # machine order, so a block of consecutive machines slices the
        # same arrays (see _machine_span)
        weights = graph.edge_weights()
        # one-edge edges grouped by machine, ascending edge id within
        one_sorted = one_ids[stable_argsort(asg_one, num_machines)]
        one_starts = _offsets(np.bincount(asg_one, minlength=num_machines))
        # a parallel edge is copied wherever its target has a replica
        # (at the fixpoint the bidirectional span is the same row)
        copy_on = spans[dst_row]
        estarts = _offsets(np.diff(one_starts) + copy_on.sum(axis=0))
        num_local_edges = int(estarts[-1])
        eglobal = np.empty(num_local_edges, dtype=np.int64)
        esrc = np.empty(num_local_edges, dtype=np.int64)
        edst = np.empty(num_local_edges, dtype=np.int64)
        eparallel = np.zeros(num_local_edges, dtype=bool)
        local_of = np.empty(n, dtype=np.int64)  # global -> local, per machine
        for m in range(num_machines):
            verts = by_machine_verts[starts[m] : starts[m + 1]]
            local_of[verts] = np.arange(verts.size)
            e_one = one_sorted[one_starts[m] : one_starts[m + 1]]
            lo, hi = estarts[m], estarts[m + 1]
            eids = eglobal[lo:hi]
            eids[: e_one.size] = e_one
            eids[e_one.size :] = parallel_eids_arr[copy_on[:, m]]
            eparallel[lo + e_one.size : hi] = True
            esrc[lo:hi] = local_of[graph.src[eids]]
            edst[lo:hi] = local_of[graph.dst[eids]]
        flat = {
            "vstarts": starts,
            "estarts": estarts,
            "vertices": by_machine_verts,
            "is_master": master_of[by_machine_verts] == rep_machines[order],
            "out_deg_global": graph.out_degrees()[by_machine_verts],
            "num_replicas": counts[by_machine_verts],
            "esrc": esrc,
            "edst": edst,
            "eweight": weights[eglobal],
            "eparallel": eparallel,
            "eglobal": eglobal,
        }
        machines = [
            _machine_span(flat, m, m + 1) for m in range(num_machines)
        ]

        one_assign = assignment.astype(np.int32).copy()
        one_assign[par] = -1
        return PartitionedGraph(
            graph=graph,
            num_machines=num_machines,
            machines=machines,
            master_of=master_of,
            rep_indptr=rep_indptr,
            rep_machines=rep_machines,
            rep_local_idx=rep_local_idx,
            num_replicas=counts,
            parallel_eids=parallel_eids_arr,
            assignment=one_assign,
            _flat=flat,
        )

    # ------------------------------------------------------------------
    def memory_footprint(self) -> dict:
        """Estimated per-machine storage of the distributed layout.

        The paper's §3 motivation for keeping most edges in one-edge
        mode is memory: every parallel-edge copy and every extra replica
        costs space on each machine it lands on. Returns totals and the
        per-machine breakdown in bytes (8 B per vertex-array slot, 24 B
        per edge record: two endpoints + weight).
        """
        per_machine = []
        for mg in self.machines:
            vertex_bytes = 8 * 4 * mg.num_local_vertices  # data+msg+delta+flags
            edge_bytes = 24 * mg.num_local_edges
            per_machine.append(vertex_bytes + edge_bytes)
        total = float(sum(per_machine))
        return {
            "total_bytes": total,
            "max_machine_bytes": float(max(per_machine)),
            "mean_machine_bytes": total / self.num_machines,
            "per_machine_bytes": per_machine,
            "replica_slots": int(self.num_replicas.sum()),
            "edge_slots": int(sum(mg.num_local_edges for mg in self.machines)),
        }

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Internal consistency checks (used heavily by the test suite).

        Raises :class:`PartitionError` on any violation of the paper's
        placement invariants.
        """
        g, P = self.graph, self.num_machines
        # every vertex: >= 1 replica, exactly one master among replicas
        if np.any(self.num_replicas < 1):
            raise PartitionError("vertex with zero replicas")
        for v in range(g.num_vertices):
            reps = self.replicas_of(v)
            if self.master_of[v] not in reps:
                raise PartitionError(f"master of {v} not among its replicas")
        # every one-edge edge appears exactly once; parallel edges appear
        # on every machine hosting the target
        seen = np.zeros(g.num_edges, dtype=np.int64)
        for mg in self.machines:
            np.add.at(seen, mg.eglobal, 1)
            # local endpoints resolve to the right globals
            if mg.num_local_edges:
                if not np.array_equal(mg.vertices[mg.esrc], g.src[mg.eglobal]):
                    raise PartitionError("local esrc mismatch")
                if not np.array_equal(mg.vertices[mg.edst], g.dst[mg.eglobal]):
                    raise PartitionError("local edst mismatch")
        par_mask = np.zeros(g.num_edges, dtype=bool)
        par_mask[self.parallel_eids] = True
        if np.any(seen[~par_mask] != 1):
            raise PartitionError("a one-edge edge is not placed exactly once")
        for e in self.parallel_eids.tolist():
            t = int(g.dst[e])
            if seen[e] < self.num_replicas[t]:
                raise PartitionError(
                    f"parallel edge {e} missing from some replica machine of {t}"
                )
        # replica CSR and machine vertex lists agree
        total = sum(mg.num_local_vertices for mg in self.machines)
        if total != int(self.num_replicas.sum()):
            raise PartitionError("replica CSR and machine lists disagree")
        for v in range(g.num_vertices):
            lo, hi = self.rep_indptr[v], self.rep_indptr[v + 1]
            for mm, li in zip(
                self.rep_machines[lo:hi].tolist(), self.rep_local_idx[lo:hi].tolist()
            ):
                if self.machines[mm].vertices[li] != v:
                    raise PartitionError("rep_local_idx does not point at vertex")
