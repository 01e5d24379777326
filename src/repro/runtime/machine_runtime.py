"""Per-block runtime state and the vectorized graph operators.

This is the runtime half of the paper's §3.2 split: the engine-side
variables kept for every replica ``v`` on every machine —

* ``state`` (program arrays incl. ``vdata[v]``),
* ``msg`` / ``has_msg``      — ``message[v]``, the ⊕-accumulated inbox,
* ``delta_msg`` / ``has_delta`` — ``deltaMsg[v]``, the one-edge-received
  accumulation forwarded at coherency points (``delta_msg`` holds the
  ⊕-identity wherever ``has_delta`` is unset, and so does ``msg``
  wherever ``has_msg`` is: a fold that reaches a slot sets its flag, a
  padded sweep adds only the identity elsewhere, and ``take_ready`` /
  ``clear_deltas`` reset value and flag together; the exchange's
  deliveries and the dense sweep's flags rely on it),
* ``has_msg`` doubling as ``isActive[v]`` (a vertex with a pending
  message is exactly a vertex scheduled to run Apply)

— plus the two fused low-level operators ``Apply`` and
``ScatterGatherMsg`` as vectorized kernels. Messages to *local*
neighbours are direct writes into the target's ``msg`` (and, for
one-edge-mode edges only, ``deltaMsg``) exactly as the paper's
``ScatterGatherMsg`` specifies; parallel-edge messages skip ``deltaMsg``
so they are never re-sent at a coherency point.

Hot-path layout (the kernel layer)
----------------------------------
All CSR flatten structures — edge order, per-source slices, per-target
counts — are precomputed once at construction in a
:class:`~repro.kernels.csr.CSRPlan`. ``scatter`` is
*frontier-adaptive*: sparse frontiers expand per-vertex edge ranges,
dense frontiers sweep *every* local edge (the push/pull-style mode
switch) with no position compaction. Programs that declare an
:meth:`~repro.api.vertex_program.DeltaProgram.edge_transform` skip the
per-call edge-id gather and ``edge_message`` call: a per-edge operand is
hoisted into sorted edge order once, and a per-source one (PageRank's
``Δ / outDeg``) is applied to the |frontier| out-deltas *before* they
are expanded to edges. The parallel-edge mask is pre-inverted (and
skipped entirely when no parallel edges exist, the common case).

Identity padding
----------------
A dense sweep writes the frontier's transformed deltas into a per-source
payload filled with the ⊕-identity, gathers it along every edge and
folds it with one ``ufunc.at``: the frontier's complement contributes
the identity. That is bit-identical to folding the
frontier's edges alone, because of two facts:

* a SUM buffer starts at +0.0 and only ever receives ⊕-folds (resets go
  back to +0.0), and ``x + y`` is -0.0 only when both are -0.0 — so no
  ``msg`` / ``delta_msg`` slot ever holds -0.0, and ``x + 0.0`` returns
  ``x`` bit for bit (``min(x, +inf)`` / ``max(x, -inf)`` always do);
* padding is used only where the edge transform maps the identity to
  itself: SUM with ``identity`` / ``divide_source`` (the divide runs per
  frontier source, before padding), MIN / MAX with ``identity`` or with
  ``add`` over finite operands, on blocks without parallel edges,
  checked once per runtime. Every other program, every parallel-edge
  block, and ``mode="generic"``, sweeps sparse.

Flags come from the folded values (Maiter's "a vertex at the
⊕-identity has nothing pending"). Every caller drains the inbox before
it scatters, so ``msg`` starts at the identity everywhere; when no
frontier message can fold to the identity — SUM deltas non-zero and of
one sign, MIN ``max(delta) + max(operand) < +inf``, MAX the mirror —
a target was reached exactly where ``msg != identity`` after the fold.
A coherency-point sweep runs on a clean ``deltaMsg`` (the full exchange
just reset it), where the ``deltaMsg`` fold equals the ``msg`` fold:
it is one copy. A sweep that fails the drain or value test sweeps
sparse. A ``dense-full`` sweep reaches every target with an in-edge,
folds each target segment once and applies the aggregates to both
buffers (:meth:`MachineRuntime._fold_segments_once`).

The Apply half pads the same way. A pass whose inbox holds at least
``dense_sweep_fraction`` of the block's slots (lazy engines' passes, on
a program that declares ``block_apply``) drains densely: ``msg`` is
copied whole into the accum scratch and ``has_msg`` into the ready
flags, then both are filled, with no index gather or scatter. The
program's block form then runs over every slot, where an unflagged
slot's accum is the identity and changes nothing
(:mod:`repro.algorithms.apply_rules`: ``min(x, +inf) == x``; ``x + 0.0
== x`` since no ``vdata`` / ``pending`` slot holds -0.0), and
``fire &= flags`` keeps it from firing. The fired slots and out-deltas
reach ``scatter`` exactly as on the index path, so no sweep decision
moves. ``mode="generic"`` and programs without a block form (k-core,
user programs, the eager engines' apply leg) keep the index path.

All ⊕-folds are bit-identical to the historical per-call-flatten +
``ufunc.at`` spelling (``mode="generic"`` pins that baseline). Sweep
decisions are surfaced through the tracer (``sweep-mode`` instants on
change) and per-kernel host timings accumulate in :attr:`kernel_stats`.

Blocks
------
A runtime serves one *block* of consecutive machines
(:attr:`~repro.partition.partitioned_graph.PartitionedGraph.blocks`):
the machines' slots and edges sit back to back in one set of arrays, so
one ``take_ready → apply → scatter`` advances every machine of the
block. Slots of different machines are disjoint and concatenation keeps
each machine's edge order, so every slot folds its messages in the same
order as it would alone (the sweep modes' equivalence contract covers
the rest). What the cluster model charges per machine — edges
traversed, applies — is read back exactly from the sorted frontier and
``mg.machine_offsets`` (:meth:`MachineRuntime.work_by_machine`).

One pass of a lazy engine's inner loop is :meth:`MachineRuntime.apply_step`,
dispatched once per runtime. A step touches only its own runtime (and
the tracer, for ``sweep-mode`` instants); every model-time charge and
the pass's one ``machine-work`` trace record are written by the engine
(``BaseEngine._compute_pass``) from the rows the steps return, in
machine order.
"""

from __future__ import annotations

import time
from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.vertex_program import (
    EDGE_OPS, DeltaProgram, checked_edge_transform,
)
from repro.errors import AlgorithmError
from repro.kernels import CSRPlan, KernelStats, apply_segment_sums
from repro.kernels.config import get_config
from repro.kernels.csr import DENSE_FULL, SPARSE
from repro.kernels.segment_reduce import monoid_kind, scatter_reduce
from repro.obs.tracer import NULL_TRACER
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["MachineRuntime"]

# the ⊕-identities a dense sweep may pad with, per monoid kind
_PAD_IDENTITY = {
    "sum": np.float64(0.0), "min": np.float64(np.inf), "max": np.float64(-np.inf),
}


class MachineRuntime:
    """One block's buffers + kernels for one program run."""

    def __init__(
        self, mg: MachineGraph, program: DeltaProgram, tracer=None, plan=None,
    ) -> None:
        self.mg = mg
        self.program = program
        self.algebra = program.algebra
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.state: Dict[str, np.ndarray] = program.make_state(mg)
        n = mg.num_local_vertices
        ident = self.algebra.identity
        self.msg = np.full(n, ident, dtype=np.float64)
        self.has_msg = np.zeros(n, dtype=bool)
        self.delta_msg = np.full(n, ident, dtype=np.float64)
        self.has_delta = np.zeros(n, dtype=bool)
        # the one staleness clock: supersteps each pending delta has
        # waited unshipped (tick_delta_age / reset_delta_age)
        self.delta_age = np.zeros(n, dtype=np.int64)
        # local out-CSR plan: edge order, per-source slices and
        # per-target counts — computed once, reused every scatter.
        # A caller-provided plan (a GraphSession's per-block cache, built
        # per partition) must describe this exact machine graph; a plan
        # holds no scratch and no run state, so reuse across sequential
        # runs is bit-identical to rebuilding.
        if plan is not None:
            if plan.num_slots != n or plan.num_edges != mg.esrc.size:
                raise AlgorithmError(
                    f"machine {mg.machine_id}: cached CSR plan does not "
                    f"match the machine graph "
                    f"({plan.num_slots}x{plan.num_edges} vs "
                    f"{n}x{mg.esrc.size})"
                )
            self.out_plan = plan
        else:
            self.out_plan = CSRPlan(mg.esrc, n, dst=mg.edst)
        # one-edge flags in sorted order, only where some edge is a
        # parallel copy (a split-free block reads the flag alone)
        self._all_one_edge = not bool(mg.eparallel.any())
        self._one_edge_sorted = (
            None if self._all_one_edge
            else ~self.out_plan.sorted_edges(mg.eparallel)
        )
        self._kind = monoid_kind(self.algebra)
        self._init_transform(program, mg)
        self._pad_bound = self._padding_bound()
        # the targets a dense-full sweep reaches: every one with an in-edge
        self._has_in_edge = self.out_plan.dst_counts_full > 0
        # reusable scratch: take_ready accums and ready flags, the dense
        # sweep's identity-padded per-source payload and the per-target
        # segment aggregates of the empty-complement min/max fold
        self._accum_scratch = np.empty(n, dtype=np.float64)
        self._ready_scratch = np.empty(n, dtype=bool)
        self._delta_scratch = np.empty(n, dtype=np.float64)
        self._seg_scratch = np.empty(n, dtype=np.float64)
        self.kernel_stats = KernelStats()
        self._last_sweep_mode: str = ""

    def _init_transform(self, program: DeltaProgram, mg: MachineGraph) -> None:
        """Hoist the program's declarative edge transform, if any.

        Per-edge array operands are re-ordered into the plan's sorted
        edge order once, so ``scatter`` applies the transform
        positionally with no per-call edge-id gather. A per-source
        (``divide_source``) operand stays in slot order; slots without
        local edges never have their quotient read, so their divisor is
        stored as 1 — a bootstrap that fires a dangling vertex divides
        by a real number instead of raising on 0.

        A program that declares no transform must override
        :meth:`~repro.api.vertex_program.DeltaProgram.edge_message`;
        one that does not fails here, not at its first scatter.
        """
        tf = checked_edge_transform(program, mg)
        self._tf_op: Optional[str] = None
        self._tf_ufunc: Optional[np.ufunc] = None
        self._tf_operand = None
        self._src_divisor: Optional[np.ndarray] = None
        if tf is None:
            if type(program).edge_message is DeltaProgram.edge_message:
                raise AlgorithmError(
                    f"{program.name}: edge_transform declares no op, so "
                    f"the program must override edge_message"
                )
            return
        op, operand = tf
        self._tf_op = op
        self._tf_ufunc = EDGE_OPS[op]
        if op == "divide_source":
            self._src_divisor = np.where(self.out_plan.counts > 0, operand, 1)
        elif np.ndim(operand):
            self._tf_operand = self.out_plan.sorted_edges(operand)
        else:
            self._tf_operand = operand

    def _padding_bound(self) -> Optional[float]:
        """The operand extremum a dense sweep's MIN / MAX guard adds to
        the deltas' (:meth:`_may_pad`; 0 without an operand), or None
        when the edge transform does not map the ⊕-identity to itself
        and dense sweeps may not pad the frontier's complement with it.

        SUM with ``identity`` / ``divide_source`` (the divide runs per
        frontier source, before padding); MIN / MAX with ``identity``, or
        with ``add`` over finite operands (``±inf + w == ±inf``). The
        identity itself must be the canonical one (+0.0, not -0.0), and
        the block must have no parallel edges (their messages skip
        ``deltaMsg``, so one fold could not serve both buffers).
        """
        kind = self._kind
        ident = _PAD_IDENTITY.get(kind)
        if ident is None or self._tf_op is None or not self._all_one_edge:
            return None
        if np.float64(self.algebra.identity).tobytes() != ident.tobytes():
            return None
        if self._tf_op == "identity" or (
            kind == "sum" and self._tf_op == "divide_source"
        ):
            return 0.0
        x = self._tf_operand
        if kind == "sum" or x is None or not np.isfinite(x).all():
            return None
        # max for MIN, min for MAX; initial= covers an edgeless block
        return float(np.max(x, initial=-np.inf) if kind == "min"
                     else np.min(x, initial=np.inf))

    # ------------------------------------------------------------------
    @property
    def num_active(self) -> int:
        """Vertices scheduled for Apply (pending messages)."""
        return int(np.count_nonzero(self.has_msg))

    def work_by_machine(
        self, applied: np.ndarray, fired: np.ndarray, edges: int
    ) -> np.ndarray:
        """Exact per-machine work of one pass: ``int64[2, k]``.

        Row 0 is the edges each of the block's ``k`` machines traversed
        scattering ``fired``, row 1 its share of the ``applied``
        vertices. Both index arrays must be sorted ascending; machine
        boundaries are then one ``searchsorted`` each, O(frontier).
        ``edges`` is the block total :meth:`scatter` returned.
        """
        offsets = self.mg.machine_offsets
        if offsets.size == 2:
            return np.array([[edges], [applied.size]], dtype=np.int64)
        work = np.empty((2, offsets.size - 1), dtype=np.int64)
        running = np.empty(fired.size + 1, dtype=np.int64)
        running[0] = 0
        np.cumsum(self.out_plan.counts[fired], out=running[1:])
        cuts = running[fired.searchsorted(offsets)]
        np.subtract(cuts[1:], cuts[:-1], out=work[0])
        cuts = applied.searchsorted(offsets)
        np.subtract(cuts[1:], cuts[:-1], out=work[1])
        return work

    def bootstrap(self, track_delta: bool) -> np.ndarray:
        """Run the program's initial activation.

        Returns per-machine ``(edges, applies)`` rows
        (:meth:`work_by_machine`).
        """
        init_delta, active = self.program.initial_scatter(self.mg, self.state)
        idx = np.flatnonzero(active)
        if init_delta is None:
            # activation without a message: Apply runs with identity accum
            self.has_msg[idx] = True
            fired, edges = idx[:0], 0
        else:
            fired, edges = idx, self.scatter(idx, init_delta[idx], track_delta)
        work = self.work_by_machine(idx, fired, edges)
        # warm starts pre-stage replica-consistent inbox messages (a no-op
        # for ordinary programs); injected vertices are charged as applies
        work[1] += self.inject_initial_messages()
        return work

    def inject_initial_messages(self) -> np.ndarray:
        """Fold the program's pre-staged inbox messages (warm starts).

        Replica-consistent injections go straight into ``msg``/``has_msg``
        and never into ``deltaMsg`` — every replica stages the same
        value locally, so forwarding it at a coherency point would
        double-count. Returns the number of injected vertices on each
        of the block's machines.
        """
        offsets = self.mg.machine_offsets
        inj = self.program.initial_messages(self.mg, self.state)
        if inj is None:
            return np.zeros(offsets.size - 1, dtype=np.int64)
        idx, accum = inj
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size:
            scatter_reduce(
                self.algebra, self.msg, idx,
                np.asarray(accum, dtype=np.float64),
            )
            self.has_msg[idx] = True
        # the hook does not promise sorted indices
        return np.bincount(
            np.searchsorted(offsets, idx, side="right") - 1,
            minlength=offsets.size - 1,
        )

    # ------------------------------------------------------------------
    def _edge_messages(
        self, pos: Optional[np.ndarray], delta_per_edge: np.ndarray
    ) -> np.ndarray:
        """Per-edge message values for the selected positions.

        Uses the hoisted transform when the program declared one (no
        edge-id gather); falls back to ``edge_message`` otherwise.
        ``pos`` of ``None`` means "every local edge in sorted order".
        A per-source transform was already applied by :meth:`scatter`.
        """
        op = self._tf_op
        if op is None or get_config().mode == "generic":
            e_sel = self.out_plan.edge_ids(pos)
            return self.program.edge_message(self.mg, e_sel, delta_per_edge)
        if op == "identity" or op == "divide_source":
            return delta_per_edge
        x = self._tf_operand
        if isinstance(x, np.ndarray) and pos is not None:
            x = x[pos]
        return self._tf_ufunc(delta_per_edge, x)

    def scatter(
        self, idx: np.ndarray, delta_out: np.ndarray, track_delta: bool
    ) -> int:
        """Push out-deltas of the vertices ``idx`` along local out-edges.

        Local writes only — remote delivery is the coherency machinery's
        job. One-edge-mode messages are folded into the targets'
        ``deltaMsg`` when ``track_delta`` (lazy engines); parallel-edge
        messages never are. Returns the number of edges traversed.

        ``idx`` must be sorted ascending (engine frontiers are — they
        come from ``np.flatnonzero``); the frontier-adaptive sweep
        relies on it so that sparse and dense modes emit messages in
        the same order (bit-identical ⊕-folds).
        """
        if idx.size == 0:
            return 0
        plan = self.out_plan
        t0 = time.perf_counter()
        mode, pos, counts, total = plan.select(idx)
        if total == 0:
            return 0
        divisor = self._src_divisor
        if divisor is not None and get_config().mode != "generic":
            # one divide per frontier vertex instead of per edge: the same
            # operands through the same IEEE op, so bit-identical
            delta_out = self._tf_ufunc(delta_out, divisor[idx])
        if pos is None and not self._may_pad(mode, delta_out):
            pos, counts = plan.flatten(idx)
            mode = SPARSE
        if mode != self._last_sweep_mode:
            self._last_sweep_mode = mode
            self.tracer.instant(
                "sweep-mode",
                machine=self.mg.machine_id,
                machines=self.mg.num_machines,
                mode=mode,
                frontier_edges=total,
                local_edges=plan.num_edges,
            )
        if pos is None:
            kernel = self._padded_sweep(idx, delta_out, total, track_delta)
        else:
            kernel = self._sparse_sweep(pos, counts, delta_out, track_delta)
        self.kernel_stats.add(f"scatter/{mode}/{kernel}", time.perf_counter() - t0)
        return total

    def _may_pad(self, mode: str, delta_out: np.ndarray) -> bool:
        """Whether a dense selection may sweep padded, else sparse.

        ``dense-full`` needs exact padding only. A ``dense`` sweep reads
        its flags off the values, so it also needs a drained inbox and
        no frontier message that folds to the identity (the module
        docstring); a NaN delta fails every test.
        """
        bound = self._pad_bound
        if bound is None:
            return False
        if mode == DENSE_FULL:
            return True
        if self.has_msg.any():
            return False
        if self._kind == "sum":
            return bool(delta_out.min() > 0 or delta_out.max() < 0)
        # Python floats: an overflow is ±inf, with no warning
        if self._kind == "min":
            return float(delta_out.max()) + bound < np.inf
        return float(delta_out.min()) + bound > -np.inf

    def _sparse_sweep(
        self, pos: np.ndarray, counts: np.ndarray, delta_out: np.ndarray,
        track_delta: bool,
    ) -> str:
        """Fold the frontier's own edges (``pos``, sorted positions)."""
        msgv = self._edge_messages(pos, np.repeat(delta_out, counts))
        tgt = self.out_plan.dst_sorted[pos]
        kernel = scatter_reduce(self.algebra, self.msg, tgt, msgv)
        self.has_msg[tgt] = True
        if track_delta:
            if self._all_one_edge:
                t1, m1 = tgt, msgv
            else:
                k = np.flatnonzero(self._one_edge_sorted[pos])
                t1, m1 = tgt[k], msgv[k]
            if t1.size:
                scatter_reduce(self.algebra, self.delta_msg, t1, m1)
                self.has_delta[t1] = True
        return kernel

    def _padded_sweep(
        self, idx: np.ndarray, delta_out: np.ndarray, total: int,
        track_delta: bool,
    ) -> str:
        """Fold every local edge, the frontier's complement padded with
        the ⊕-identity; flags come off the values, and a clean
        ``deltaMsg`` copies the ``msg`` fold (the module docstring).
        """
        plan = self.out_plan
        alg = self.algebra
        payload = self._delta_scratch
        payload.fill(alg.identity)
        payload[idx] = delta_out
        msgv = self._edge_messages(None, payload[plan.key_sorted])
        if total == plan.num_edges:
            kernel = self._fold_segments_once(msgv, track_delta)
            self.has_msg |= self._has_in_edge
            if track_delta:
                self.has_delta |= self._has_in_edge
            return kernel
        tgt = plan.dst_sorted
        kernel = scatter_reduce(alg, self.msg, tgt, msgv)
        np.not_equal(self.msg, alg.identity, out=self.has_msg)
        if track_delta:
            if self.has_delta.any():
                scatter_reduce(alg, self.delta_msg, tgt, msgv)
                self.has_delta |= self.has_msg
            else:
                np.copyto(self.delta_msg, self.msg)
                np.copyto(self.has_delta, self.has_msg)
        return kernel

    def _fold_segments_once(self, msgv: np.ndarray, delta_too: bool) -> str:
        """The empty-complement fold: each target segment is reduced
        **once**, and the aggregates are applied to ``msg`` and, with
        ``delta_too``, to ``delta_msg`` — both bit-identical to the
        per-edge ``ufunc.at`` fold (:mod:`repro.kernels.segment_reduce`;
        min/max are exact under regrouping, and a slot no edge reaches
        holds the identity in the per-slot scratch).
        """
        plan = self.out_plan
        alg = self.algebra
        tgt = plan.dst_sorted
        if self._kind == "sum":
            sums = np.bincount(tgt, weights=msgv, minlength=plan.num_slots)
            cnts = plan.dst_counts_full
            apply_segment_sums(self.msg, sums, cnts, tgt, msgv)
            if delta_too:
                apply_segment_sums(self.delta_msg, sums, cnts, tgt, msgv)
            return "bincount_shared"
        seg = self._seg_scratch
        seg.fill(alg.identity)
        alg.ufunc.at(seg, tgt, msgv)
        alg.ufunc(self.msg, seg, out=self.msg)
        if delta_too:
            alg.ufunc(self.delta_msg, seg, out=self.delta_msg)
        return "minmax_shared"

    def take_ready(
        self, block: bool = False
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Drain the inbox: ``(idx, accum, flags)``; inbox cleared.

        ``idx`` are the ready slots, sorted. On the index path ``accum``
        is aligned with ``idx`` and ``flags`` is None. With ``block``
        (a program with a block form), a drain that finds at least
        ``dense_sweep_fraction`` of the block's slots ready is *dense*:
        ``accum`` is a copy of the whole inbox — the ⊕-identity where
        nothing was ready — and ``flags`` the ready mask, with no index
        gather or scatter (the module docstring). ``mode="generic"``
        pins the index path.

        ``accum`` and ``flags`` are per-block scratch, valid until the
        next ``take_ready`` on this runtime — every engine consumes them
        immediately (Apply reads them within the same round).
        """
        idx = np.flatnonzero(self.has_msg)
        if block and idx.size:
            cfg = get_config()
            if (idx.size >= cfg.dense_sweep_fraction * self.msg.size
                    and cfg.mode != "generic"):
                accum, flags = self._accum_scratch, self._ready_scratch
                np.copyto(accum, self.msg)
                np.copyto(flags, self.has_msg)
                self.msg.fill(self.algebra.identity)
                self.has_msg.fill(False)
                return idx, accum, flags
        accum = self._accum_scratch[: idx.size]
        np.take(self.msg, idx, out=accum)
        self.msg[idx] = self.algebra.identity
        self.has_msg[idx] = False
        return idx, accum, None

    def apply_and_scatter(
        self, idx: np.ndarray, accum: np.ndarray, track_delta: bool,
        flags: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Apply accums to ``idx`` (sorted), then scatter the fired deltas.

        With ``flags`` (a dense :meth:`take_ready`), Apply runs in the
        program's block form over every slot: ``accum`` is per slot and
        ``flags`` (the ready mask) stands in for ``idx``.

        Returns per-machine ``(edges, applies)`` rows
        (:meth:`work_by_machine`).
        """
        if idx.size == 0:
            return self.work_by_machine(idx, idx, 0)
        delta_out, fire = self.program.apply(
            self.mg, self.state, idx if flags is None else flags, accum
        )
        # delta_out is read only where fire (the DeltaProgram.apply contract)
        k = np.flatnonzero(fire)
        fired = idx[k] if flags is None else k
        edges = self.scatter(fired, delta_out[k], track_delta)
        return self.work_by_machine(idx, fired, edges)

    def apply_step(self) -> np.ndarray:
        """Drain the inbox and apply+scatter: one pass of a lazy engine's
        inner loop (one-edge messages fold into ``deltaMsg``); a mostly
        full inbox drains and applies densely (:meth:`take_ready`).

        Returns per-machine ``(edges, applies)`` rows
        (:meth:`work_by_machine`); the engine charges and traces the
        pass (``BaseEngine._compute_pass``).
        """
        idx, accum, flags = self.take_ready(self.program.block_apply)
        return self.apply_and_scatter(idx, accum, True, flags)

    def clear_deltas(self, idx: Optional[np.ndarray]) -> None:
        """Reset ``deltaMsg`` after a coherency exchange: at ``idx``, or
        everywhere (``None``, what a full exchange ends with)."""
        if idx is None:
            self.delta_msg.fill(self.algebra.identity)
            self.has_delta.fill(False)
            return
        self.delta_msg[idx] = self.algebra.identity
        self.has_delta[idx] = False

    def tick_delta_age(self) -> None:
        """Age the pending deltas by one superstep, after its local work;
        a slot without a delta reads 0."""
        # unmasked ufuncs: a bool-mask assignment is several times slower
        self.delta_age += self.has_delta
        self.delta_age *= self.has_delta

    def reset_delta_age(self) -> None:
        """After an exchange that shipped something: zero every slot it
        left without a delta.

        Not after an empty exchange, and not in ``clear_deltas``: a delta
        the subsumption filter drops while nothing ships keeps its age,
        and a delta arriving there before the next tick inherits it —
        LazyVertexAsync's ``staleness_max`` signal depends on that.
        """
        self.delta_age *= self.has_delta

    def values(self) -> np.ndarray:
        """Program result values for this block's local vertices."""
        return self.program.values(self.mg, self.state)
