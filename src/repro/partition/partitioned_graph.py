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
:meth:`PartitionedGraph.build` is the constructor from a placement, so
it works on whole arrays:
the replica sets are a sorted table of ``vertex * P + machine`` keys
(one :func:`~repro.utils.keysort.unique_counts` over both endpoints of
every one-edge edge, whose counts double as the master scores), masters
and local indices come from segment reductions over that table and
width-sized stable sorts (:mod:`repro.utils.keysort`), and the only
per-vertex Python left is the home-machine hash of vertices no one-edge
edge touches.
``tests/unit/test_build_pins.py`` pins every output array, dtype
included. A build's traced peak is its own output: the pair keys are
built in place in one array, an all-one-edge cut gathers no id list, an
unweighted graph's weights are ``np.ones``, and the replica-table
locals are dropped before the per-edge arrays are allocated.

Splicing
--------
A mutation batch does not rebuild: :meth:`PartitionedGraph.splice`
carries a split-free partition across a graph patch and returns, array
for array, what ``build`` would. Only the batch's endpoints are
re-scored, and only their replicas are inserted or deleted; every
machine's vertex list changes by those few slots, so local ids move by
one shift table, and the flat arrays are each written by one gather
through a splice index (kept entries, placeholders where new ones go).
Removed edges drop out of their source's run and added edges join the
end of it, which is ``build``'s order: local source first, then
ascending edge id (kept ids keep their order, added ids come after).

Re-weighting
------------
A cut depends on the edge list only; weights are data carried on the
edges. :meth:`PartitionedGraph.reweighted` hands a graph with the same
edge list and other weights this partition with only ``eweight``
gathered again: every other array, every machine's view and every
merged block's renumbered ``esrc`` / ``edst`` are shared. Every array a
partition holds is read-only (``build``, ``splice`` and ``reweighted``
freeze them), which is what makes sharing them safe.

Local edge order
----------------
Each machine lays its local edges out by **ascending local source**;
within one source, one-edge edges come before parallel copies, each by
ascending global edge id (one radix ``stable_argsort`` per machine over
the placement order). That is the order a delta out-plan sorts into,
so every delta :class:`~repro.kernels.csr.CSRPlan` is a view of these
arrays and owns no per-edge array. A merged block shifts each
machine's local ids past the previous machine's, so its concatenation
is source-ordered too. :meth:`PartitionedGraph.validate` checks the
order and that no array is writeable.

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

from dataclasses import dataclass, field, fields, replace
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.partition.base import validate_assignment
from repro.utils.keysort import stable_argsort, unique_counts
from repro.utils.rng import derive_seed

if TYPE_CHECKING:
    from repro.graph.mutation import EdgeDiff

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

# the partition-wide tables, besides the flat per-machine arrays
_TABLE_FIELDS = (
    "master_of", "rep_indptr", "rep_machines", "rep_local_idx",
    "num_replicas", "parallel_eids", "assignment",
)


def _read_only(*arrays: np.ndarray) -> None:
    """Freeze ``arrays`` (a view taken later is read-only too)."""
    for arr in arrays:
        arr.flags.writeable = False


def _offsets(counts: np.ndarray) -> np.ndarray:
    """CSR offsets (``counts.size + 1``, int64) of back-to-back segments."""
    out = np.zeros(counts.size + 1, dtype=np.int64)
    np.cumsum(counts, out=out[1:])
    return out


def _home_machines(vertices: np.ndarray, num_machines: int) -> np.ndarray:
    """The machine hosting each vertex no one-edge edge touches."""
    return np.array(
        [derive_seed(_HOME_SEED, str(v)) % num_machines
         for v in vertices.tolist()],
        dtype=np.int64,
    )


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
    maps local → global. Edge arrays are aligned with each other; as
    :meth:`PartitionedGraph.build` lays them out they are in the local
    edge order (module docstring), and every array is read-only.

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
        _read_only(self.machine_offsets)

    @property
    def num_machines(self) -> int:
        """Machines laid out in this graph (1 unless it is a merged block)."""
        return int(self.machine_offsets.size) - 1

    @property
    def num_local_vertices(self) -> int:
        return int(self.vertices.size)

    @property
    def num_local_edges(self) -> int:
        return int(self.esrc.size)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MachineGraph(m={self.machine_id}, |V|={self.num_local_vertices}, "
            f"|E|={self.num_local_edges}, parallel={int(self.eparallel.sum())})"
        )


def _machine_span(
    flat: Dict[str, np.ndarray], lo: int, hi: int
) -> MachineGraph:
    """Machines ``[lo, hi)`` of a flat layout as one :class:`MachineGraph`.

    Every field is a view of the (frozen) flat arrays except a merged
    span's ``esrc`` / ``edst``, which are renumbered block-locally (each
    machine's local indices shifted by its offset in the block), and
    its ``machine_offsets``; those are frozen here.
    """
    vs, es = flat["vstarts"], flat["estarts"]
    v = slice(vs[lo], vs[hi])
    e = slice(es[lo], es[hi])
    esrc, edst = flat["esrc"][e], flat["edst"][e]
    if hi - lo > 1:
        shift = np.repeat(vs[lo:hi] - vs[lo], np.diff(es[lo : hi + 1]))
        esrc, edst = esrc + shift, edst + shift
        _read_only(esrc, edst)
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
    _read_only(span.machine_offsets)
    return span


def _distinct(keys: np.ndarray) -> np.ndarray:
    """The distinct values of ``keys``, ascending (sort plus a run cut)."""
    keys = np.sort(keys)
    return keys[np.append(True, keys[1:] != keys[:-1])] if keys.size else keys


def _member(ref: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """Whether each non-negative key is in the ascending ``ref``."""
    # the sentinel answers for insertion points past the last entry
    return np.append(ref, -1)[np.searchsorted(ref, keys)] == keys


def _steps(size: int, starts: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """``size`` entries, entry ``i`` the sum of the ``deltas`` whose
    ``starts`` are at most ``i`` (``deltas``' dtype): a step function,
    laid down by one ``repeat``, not by a ``size``-long running sum."""
    order = np.argsort(starts, kind="stable")
    levels = np.zeros(order.size + 1, dtype=deltas.dtype)
    np.cumsum(deltas[order], out=levels[1:])
    bounds = np.minimum(np.append(starts[order], size), size)
    return np.repeat(levels, np.diff(bounds, prepend=0))


def _splice_index(
    size: int, deleted: np.ndarray, at: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Where each entry of a spliced array comes from.

    The spliced array is an old one of ``size`` entries without those at
    the ascending positions ``deleted``, plus one new entry before old
    position ``at[j]`` for each ``j`` (``at`` ascending; new entries at
    one position keep their order). Returns ``(take, dest)``: kept entry
    ``i`` is ``old[take[i]]``, and the new entries sit at ``dest``, where
    ``take`` holds a placeholder in ``[-1, size)`` (gather with
    :func:`_gathered`, then overwrite them).
    """
    dest = at - np.searchsorted(deleted, at) + np.arange(at.size)
    # take[i] = i + (deleted entries passed) - (new entries so far): a
    # new entry repeats the index before it, and the entry after a
    # deleted one steps over it
    skip = (deleted + np.searchsorted(at, deleted, side="right")
            - np.arange(deleted.size))
    n_new = size - deleted.size + at.size
    take = _steps(
        n_new, np.concatenate([dest, skip]),
        np.concatenate([np.full(at.size, -1), np.ones(deleted.size, np.int64)]),
    )
    take += np.arange(n_new)
    return take, dest


def _splice_shift(
    size: int, deleted: np.ndarray, at: np.ndarray
) -> np.ndarray:
    """Spliced position of each old entry (:func:`_splice_index`'s
    splice; a deleted entry's is a placeholder)."""
    shift = _steps(
        size, np.concatenate([at, deleted + 1]),
        np.concatenate([np.ones(at.size, np.int64), np.full(deleted.size, -1)]),
    )
    shift += np.arange(size)
    return shift


def _gathered(arr: np.ndarray, take: np.ndarray) -> np.ndarray:
    """``arr[take]``; when ``arr`` is empty, every entry is a placeholder."""
    if arr.size == 0:
        return np.empty(take.size, dtype=arr.dtype)
    return arr.take(take)


def _source_ordered(mg: MachineGraph) -> bool:
    """Whether ``mg``'s local edges are in the local edge order: by
    local source, then one-edge before parallel, then by global edge id
    (strictly: no edge twice on one machine)."""
    d_src = np.diff(mg.esrc)
    d_par = np.diff(mg.eparallel.astype(np.int8))
    d_eid = np.diff(mg.eglobal)
    tie = d_src == 0
    return bool(np.all(
        (d_src > 0) | (tie & (d_par > 0)) | (tie & (d_par == 0) & (d_eid > 0))
    ))


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
        # incident-edge count on that machine (the master score). The
        # keys are built in one preallocated array, in place: this table
        # is the widest transient of a build (2 entries per edge)
        P = np.int64(num_machines)
        num_par = parallel_eids_arr.size
        # every edge one-edge (no split): no id list, no gathers
        one_ids: Optional[np.ndarray] = None
        src_one, dst_one, asg_one = graph.src, graph.dst, assignment
        if num_par:
            one_ids = np.flatnonzero(~par).astype(np.int64, copy=False)
            src_one, dst_one = graph.src[one_ids], graph.dst[one_ids]
            asg_one = assignment[one_ids]
        num_one = asg_one.size
        pair_keys = np.empty(2 * num_one, dtype=np.int64)
        ends_src, ends_dst = pair_keys[:num_one], pair_keys[num_one:]
        np.multiply(src_one, P, out=ends_src)
        np.multiply(dst_one, P, out=ends_dst)
        ends_src += asg_one
        ends_dst += asg_one
        del src_one, dst_one, ends_src, ends_dst, par
        pair_keys, pair_score = unique_counts(pair_keys, n * num_machines)

        # ---- home machines for vertices untouched by one-edge edges ----
        # (edge-less vertices, or endpoints of only-parallel edges)
        hosted = np.zeros(n, dtype=bool)
        hosted[pair_keys // P] = True
        lonely = np.flatnonzero(~hosted)
        home_keys = lonely * P + _home_machines(lonely, num_machines)

        # ---- parallel-edges dispatch fixpoint ---------------------------
        # the least fixpoint of "source absorbs the target's machines"
        # (both ways when bidirectional), so evaluation order is free:
        # run it over one bool row per endpoint of a parallel edge
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
        is_master = master_of[by_machine_verts] == rep_machines[order]

        # ---- per-machine arrays, laid out back to back -------------------
        # every MachineGraph field is a slice of one flat allocation in
        # machine order, so a block of consecutive machines slices the
        # same arrays (see _machine_span)
        # one-edge edges grouped by machine, ascending edge id within
        by_machine = stable_argsort(asg_one, num_machines)
        one_sorted = by_machine if one_ids is None else one_ids[by_machine]
        one_starts = _offsets(np.bincount(asg_one, minlength=num_machines))
        # a parallel edge is copied wherever its target has a replica
        # (at the fixpoint the bidirectional span is the same row)
        copy_on = spans[dst_row]
        estarts = _offsets(np.diff(one_starts) + copy_on.sum(axis=0))
        num_local_edges = int(estarts[-1])
        # the replica-table phase's locals, dropped before the edge
        # arrays exist: a build's peak is its own output plus these
        del (by_machine, one_ids, asg_one, pair_keys, pair_score, keys,
             score, rep_vertex, top, slot, spans, seeded, order,
             base_keys, base_row, on_end, row_of)
        eglobal = np.empty(num_local_edges, dtype=np.int64)
        esrc = np.empty(num_local_edges, dtype=np.int64)
        edst = np.empty(num_local_edges, dtype=np.int64)
        eparallel = np.empty(num_local_edges, dtype=bool)
        local_of = np.empty(n, dtype=np.int64)  # global -> local, per machine
        for m in range(num_machines):
            verts = by_machine_verts[starts[m] : starts[m + 1]]
            local_of[verts] = np.arange(verts.size)
            # placement order (one-edge, then parallel, each by ascending
            # edge id), then one stable sort by local source: the local
            # edge order (module docstring)
            e_one = one_sorted[one_starts[m] : one_starts[m + 1]]
            placed = np.concatenate([e_one, parallel_eids_arr[copy_on[:, m]]])
            src_local = local_of[graph.src[placed]]
            by_src = stable_argsort(src_local, verts.size)
            lo, hi = estarts[m], estarts[m + 1]
            np.take(placed, by_src, out=eglobal[lo:hi])
            np.take(src_local, by_src, out=esrc[lo:hi])
            np.take(local_of, graph.dst[eglobal[lo:hi]], out=edst[lo:hi])
            np.greater_equal(by_src, e_one.size, out=eparallel[lo:hi])
        # e_one is a view: it alone would keep one_sorted alive
        del one_sorted, e_one, placed, src_local, by_src, local_of
        flat = {
            "vstarts": starts,
            "estarts": estarts,
            "vertices": by_machine_verts,
            "is_master": is_master,
            "out_deg_global": graph.out_degrees()[by_machine_verts],
            "num_replicas": counts[by_machine_verts],
            "esrc": esrc,
            "edst": edst,
            # an unweighted graph's weights are ones: no E-sized
            # temporary to gather them from
            "eweight": (
                np.ones(num_local_edges) if graph.weights is None
                else graph.weights[eglobal]
            ),
            "eparallel": eparallel,
            "eglobal": eglobal,
        }
        # a plan over sorted keys is a view of these (CSRPlan), and a
        # re-weighted partition shares them: no one may write into them
        _read_only(*flat.values())
        machines = [
            _machine_span(flat, m, m + 1) for m in range(num_machines)
        ]

        one_assign = assignment.astype(np.int32)  # a copy: holes below
        one_assign[parallel_eids_arr] = -1
        _read_only(master_of, rep_indptr, rep_machines, rep_local_idx,
                   counts, parallel_eids_arr, one_assign)
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
    def splice(
        self, graph: DiGraph, diff: "EdgeDiff", placed: np.ndarray
    ) -> Tuple["PartitionedGraph", List[int]]:
        """This partition carried across a graph patch, without a build.

        ``graph`` is the patched graph ``diff`` describes (kept edges
        first, in order, then the added ones), and ``placed`` holds the
        added edges' machines; every kept edge stays where it is.
        Returns what :meth:`build` returns for ``graph`` and the
        carried ++ placed assignment, array for array, plus the
        machines whose ``vertices`` / ``esrc`` / ``edst`` are unchanged.

        Only the batch's endpoints are re-scored (their old scores come
        off the machines' local edges) and only their replicas move:
        each machine's vertex list takes a few inserts and deletes and
        its local ids shift by one table; removed edges drop out and
        added ones go to the end of their local source's run. Each flat
        array is written by one gather. A split partition is refused: a
        splice carries no dispatch fixpoint.
        """
        if self.parallel_eids.size:
            raise PartitionError(
                "a partition with parallel edges cannot be spliced"
            )
        P = self.num_machines
        Pk = np.int64(P)
        old, flat = self.graph, self._flat
        n_old, n = old.num_vertices, graph.num_vertices
        vs_old, es_old = flat["vstarts"], flat["estarts"]
        placed = np.asarray(placed, dtype=np.int64)
        removed = diff.removed_eids
        rem_m = self.assignment[removed].astype(np.int64)
        rem_src, rem_dst = old.src[removed], old.dst[removed]
        add_src, add_dst = diff.added_src, diff.added_dst

        # ---- re-score the batch's endpoints ------------------------------
        touched = _distinct(np.concatenate(
            [rem_src, rem_dst, add_src, add_dst, np.arange(n_old, n)]
        ))
        old_t = touched[touched < n_old]
        per_old = self.rep_indptr[old_t + 1] - self.rep_indptr[old_t]
        first_row = _offsets(per_old)[:-1]
        # their rows of the replica table (ascending: it is vertex-major)
        rows = (np.repeat(self.rep_indptr[old_t] - first_row, per_old)
                + np.arange(per_old.sum()))
        o_mach = self.rep_machines[rows].astype(np.int64)
        o_key = np.repeat(old_t, per_old) * Pk + o_mach
        o_slot = vs_old[o_mach] + self.rep_local_idx[rows]
        # a replica's score is its out-edges on the machine, one run of
        # the flat edge arrays (local edges are source-ordered), plus its
        # in-edges there
        run_lo = np.empty(rows.size, dtype=np.int64)
        run_hi = np.empty(rows.size, dtype=np.int64)
        o_score = np.empty(rows.size, dtype=np.int64)
        for m in _distinct(o_mach).tolist():
            on = np.flatnonzero(o_mach == m)
            local = o_slot[on] - vs_old[m]
            mg = self.machines[m]
            run_lo[on] = es_old[m] + np.searchsorted(mg.esrc, local)
            run_hi[on] = es_old[m] + np.searchsorted(
                mg.esrc, local, side="right"
            )
            o_score[on] = np.bincount(
                mg.edst, minlength=mg.vertices.size
            )[local]
        o_score += run_hi - run_lo
        keys, inverse = np.unique(np.concatenate([
            o_key, rem_src * Pk + rem_m, rem_dst * Pk + rem_m,
            add_src * Pk + placed, add_dst * Pk + placed,
        ]), return_inverse=True)
        score = np.zeros(keys.size, dtype=np.int64)
        np.add.at(score, inverse, np.concatenate([
            o_score, np.full(2 * removed.size, -1),
            np.ones(2 * placed.size, dtype=np.int64),
        ]))
        # the new replica sets: the scored pairs, else the home machine
        n_key, n_score = keys[score > 0], score[score > 0]
        lonely = touched[~_member(n_key // Pk, touched)]
        home = lonely * Pk + _home_machines(lonely, P)
        at = np.searchsorted(n_key, home)
        n_key, n_score = np.insert(n_key, at, home), np.insert(n_score, at, 0)
        n_vert, n_mach = n_key // Pk, n_key % Pk
        n_count = np.bincount(
            np.searchsorted(touched, n_vert), minlength=touched.size
        )
        first = _offsets(n_count)[:-1]
        top = np.repeat(np.maximum.reduceat(n_score, first), n_count)
        pick = np.where(n_score == top, np.arange(n_key.size), n_key.size)
        master_t = n_mach[np.minimum.reduceat(pick, first)]
        gone = ~_member(n_key, o_key)
        born = np.flatnonzero(~_member(o_key, n_key))

        # ---- slots: each machine's vertex list, by inserts and deletes ----
        born = born[np.lexsort((n_vert[born], n_mach[born]))]  # slot order
        ins_vert, ins_mach = n_vert[born], n_mach[born]
        ins_at = np.empty(born.size, dtype=np.int64)
        ins_run = np.empty(born.size, dtype=np.int64)  # its empty run
        for m in _distinct(ins_mach).tolist():
            on = np.flatnonzero(ins_mach == m)
            mg = self.machines[m]
            local = np.searchsorted(mg.vertices, ins_vert[on])
            ins_at[on] = vs_old[m] + local
            ins_run[on] = es_old[m] + np.searchsorted(mg.esrc, local)
        del_slot = np.sort(o_slot[gone])
        slots = int(vs_old[-1])
        take_v, dest_v = _splice_index(slots, del_slot, ins_at)
        shift_v = _splice_shift(slots, del_slot, ins_at)
        slot_gain = np.bincount(ins_mach, minlength=P)
        slot_loss = np.bincount(o_mach[gone], minlength=P)
        vs_new = _offsets(np.diff(vs_old) + slot_gain - slot_loss)
        # the new slot of every replica of a touched vertex, and where
        # its run ends in the old edge arrays
        n_slot = np.empty(n_key.size, dtype=np.int64)
        n_run_end = np.empty(n_key.size, dtype=np.int64)
        kept = np.ones(n_key.size, dtype=bool)
        kept[born] = False
        was = np.searchsorted(o_key, n_key[kept])
        n_slot[kept] = shift_v[o_slot[was]]
        n_run_end[kept] = run_hi[was]
        n_slot[born] = dest_v
        n_run_end[born] = ins_run
        out_deg_t = np.zeros(touched.size, dtype=np.int64)
        out_deg_t[: old_t.size] = flat["out_deg_global"][o_slot[first_row]]
        np.add.at(out_deg_t, np.searchsorted(touched, add_src), 1)
        np.add.at(out_deg_t, np.searchsorted(touched, rem_src), -1)
        vertices = _gathered(flat["vertices"], take_v)
        vertices[dest_v] = ins_vert
        is_master = _gathered(flat["is_master"], take_v)
        is_master[n_slot] = n_mach == np.repeat(master_t, n_count)
        out_deg_global = _gathered(flat["out_deg_global"], take_v)
        out_deg_global[n_slot] = np.repeat(out_deg_t, n_count)
        num_replicas = _gathered(flat["num_replicas"], take_v)
        num_replicas[n_slot] = np.repeat(n_count, n_count)

        # ---- the replica table: the touched vertices' rows replaced -------
        take_r, dest_r = _splice_index(
            self.rep_machines.size, rows,
            self.rep_indptr[np.minimum(n_vert, n_old)],
        )
        rep_machines = _gathered(self.rep_machines, take_r)
        rep_machines[dest_r] = n_mach
        rep_local_idx = _gathered(
            shift_v, _gathered(vs_old[self.rep_machines] + self.rep_local_idx,
                               take_r),
        )
        rep_local_idx -= vs_new[rep_machines]
        rep_local_idx[dest_r] = n_slot - vs_new[n_mach]
        counts = np.zeros(n, dtype=np.int64)
        counts[:n_old] = self.num_replicas
        counts[touched] = n_count
        master_of = np.zeros(n, dtype=self.master_of.dtype)
        master_of[:n_old] = self.master_of
        master_of[touched] = master_t

        # ---- edges: removed ones drop out, added ones end their run ------
        # a removed edge sits in its source's run: scan each such run once
        runs = _distinct(np.searchsorted(o_key, rem_src * Pk + rem_m))
        run = run_hi[runs] - run_lo[runs]
        in_run = (np.repeat(run_lo[runs] - _offsets(run)[:-1], run)
                  + np.arange(run.sum()))
        gone_e = np.zeros(old.num_edges, dtype=bool)
        gone_e[removed] = True
        del_pos = np.sort(in_run[gone_e[flat["eglobal"][in_run]]])
        # added edges, in their new order (by machine, source, edge id),
        # each at the end of its source's old run
        by_run = np.lexsort((add_src, placed))
        add_m, add_s = placed[by_run], add_src[by_run]
        add_at = n_run_end[np.searchsorted(n_key, add_s * Pk + add_m)]
        take_e, dest_e = _splice_index(old.num_edges, del_pos, add_at)
        edge_gain = np.bincount(placed, minlength=P)
        edge_loss = np.bincount(rem_m, minlength=P)
        es_new = _offsets(np.diff(es_old) + edge_gain - edge_loss)
        # kept ids renumbered: less the removed ids below them
        eglobal = _gathered(flat["eglobal"], take_e)
        eglobal -= _gathered(
            _steps(old.num_edges, removed + 1,
                   np.ones(removed.size, dtype=np.int32)),
            eglobal,
        )
        eglobal[dest_e] = diff.num_kept + by_run
        esrc = _gathered(flat["esrc"], take_e)
        edst = _gathered(flat["edst"], take_e)
        for m in np.flatnonzero(slot_gain + slot_loss).tolist():
            local = shift_v[vs_old[m] : vs_old[m + 1]] - vs_new[m]
            if local.size:  # else every edge here is an added one
                # a placeholder may hold a neighbour machine's local id
                e = slice(es_new[m], es_new[m + 1])
                esrc[e] = local.take(esrc[e], mode="clip")
                edst[e] = local.take(edst[e], mode="clip")

        def local_of(verts: np.ndarray) -> np.ndarray:
            at = np.searchsorted(n_key, verts * Pk + add_m)
            return n_slot[at] - vs_new[add_m]

        esrc[dest_e] = local_of(add_s)
        edst[dest_e] = local_of(add_dst[by_run])
        assignment = np.empty(graph.num_edges, dtype=np.int32)
        np.compress(~gone_e, self.assignment, out=assignment[: diff.num_kept])
        assignment[diff.num_kept :] = placed
        flat = {
            "vstarts": vs_new,
            "estarts": es_new,
            "vertices": vertices,
            "is_master": is_master,
            "out_deg_global": out_deg_global,
            "num_replicas": num_replicas,
            "esrc": esrc,
            "edst": edst,
            "eweight": (
                np.ones(esrc.size) if graph.weights is None
                else graph.weights[eglobal]
            ),
            "eparallel": np.zeros(esrc.size, dtype=bool),
            "eglobal": eglobal,
        }
        rep_indptr = _offsets(counts)
        _read_only(*flat.values(), master_of, rep_indptr, rep_machines,
                   rep_local_idx, counts, assignment)
        new = PartitionedGraph(
            graph=graph,
            num_machines=P,
            machines=[_machine_span(flat, m, m + 1) for m in range(P)],
            master_of=master_of,
            rep_indptr=rep_indptr,
            rep_machines=rep_machines,
            rep_local_idx=rep_local_idx,
            num_replicas=counts,
            parallel_eids=self.parallel_eids,  # empty, and read-only
            assignment=assignment,
            _flat=flat,
        )
        # a machine kept its local graph when no replica moved on it and
        # its edges, if any changed, came out equal
        unchanged = [
            m for m in range(P)
            if not slot_gain[m] + slot_loss[m] and (
                not edge_gain[m] + edge_loss[m] or (
                    np.array_equal(self.machines[m].esrc, new.machines[m].esrc)
                    and np.array_equal(self.machines[m].edst, new.machines[m].edst)
                )
            )
        ]
        return new, unchanged

    # ------------------------------------------------------------------
    def reweighted(self, graph: DiGraph) -> "PartitionedGraph":
        """This partition for ``graph``: the same edge list, other weights.

        Placement, replica table and local layout read the edge list
        only, so the result shares every array with this partition but
        ``eweight``, which is gathered from ``graph``'s weights (ones
        when it has none) as :meth:`build` gathers it. Each machine is
        its view with an ``eweight`` slice, and each merged block keeps
        this partition's block-local ``esrc`` / ``edst``. The caller
        vouches for the edge list (only its sizes are checked here); for
        this partition's own graph the result is this partition.
        """
        old = self.graph
        if graph is old:
            return self
        if (graph.num_vertices, graph.num_edges) != (
            old.num_vertices, old.num_edges
        ):
            raise PartitionError(
                "a re-weighted partition needs its graph's edge list"
            )
        flat = dict(self._flat)
        eglobal = flat["eglobal"]
        eweight = (np.ones(eglobal.size) if graph.weights is None
                   else graph.weights[eglobal])
        _read_only(eweight)
        flat["eweight"] = eweight
        es = flat["estarts"]

        def with_weights(mg: MachineGraph) -> MachineGraph:
            lo = es[mg.machine_id]
            span = replace(mg, eweight=eweight[lo : lo + mg.num_local_edges])
            span.machine_offsets = mg.machine_offsets
            return span

        machines = [with_weights(mg) for mg in self.machines]
        blocks = [
            machines[mg.machine_id] if mg.num_machines == 1
            else with_weights(mg)
            for mg in self.blocks
        ]
        return PartitionedGraph(
            graph=graph,
            num_machines=self.num_machines,
            machines=machines,
            master_of=self.master_of,
            rep_indptr=self.rep_indptr,
            rep_machines=self.rep_machines,
            rep_local_idx=self.rep_local_idx,
            num_replicas=self.num_replicas,
            parallel_eids=self.parallel_eids,
            assignment=self.assignment,
            _flat=flat,
            _blocks=blocks,
        )

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
        # the local edge layout, on every machine and every merged block
        # built so far (validating must not fix the block list)
        merged = [b for b in self._blocks or [] if b.num_machines > 1]
        for mg in self.machines + merged:
            if not _source_ordered(mg):
                raise PartitionError(
                    f"machine {mg.machine_id}: local edges are not in "
                    f"source order"
                )
            arrays = [mg.machine_offsets] + [
                getattr(mg, f.name) for f in fields(mg)
                if f.name != "machine_id"
            ]
            if any(a.flags.writeable for a in arrays):
                raise PartitionError(
                    f"machine {mg.machine_id}: an array is writeable"
                )
        tables = [getattr(self, name) for name in _TABLE_FIELDS]
        if any(a.flags.writeable for a in tables + list(self._flat.values())):
            raise PartitionError("a partition table is writeable")
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
