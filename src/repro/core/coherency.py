"""Delta exchange at data coherency points (paper §3.2 + §4.2.2).

At a coherency point every participating replica contributes the
``deltaMsg`` it accumulated from one-edge-mode messages since the last
point; every replica of an exchanged vertex then folds *the other
replicas' deltas* into its inbox and replays Apply — restoring a shared
global view by computation.

Two wire protocols carry the same information (paper Fig 5):

* **all-to-all** — each replica with a delta sends it to every other
  replica: ``Σ_v N_v^hasDelta · (Num_v − 1)`` messages;
* **mirrors-to-master** — mirrors send deltas to the master, the master
  combines and broadcasts one total; each replica removes its own
  contribution with the algebra's ``Inverse`` (or relies on idempotency):
  ``Σ_v (N_v^hasDelta + Num_v − 2)`` messages.

Both are implemented over the same vectorized staging (results are
bit-identical — a tested invariant); they differ in the traffic charged
and the time model used. The ``dynamic`` policy evaluates both volumes
with the fitted time curves and picks the cheaper (§4.2.2).

Every exchange is *full* — both lazy engines run only this kind: it
stages every replicated delta, so it always ends with every
``has_delta`` down and every ``deltaMsg`` at the identity, and it clears
with two ``fill`` calls per runtime. A superstep that defers its
exchange (LazyVertexAsync) calls :meth:`CoherencyExchanger.sweep`
instead, which ships nothing but drops what no exchange would ship:
unreplicated deltas, and under an idempotent ⊕ subsumed ones. Over a
SUM algebra a full exchange delivers
by streaming each runtime's slots — ``msg += total[v] − deltaMsg`` and
``has_msg |= count[v] > has_delta`` — instead of gathering the
receivers: where no other replica contributed the added term is
exactly +0.0 (``0 − 0``, or ``t − t`` for the slot's own finite delta),
and a SUM buffer never holds -0.0, so ``msg`` keeps its bits
(:mod:`repro.runtime.machine_runtime`, "Identity padding").
Unreplicated slots are zeroed first. A batch with a non-finite staged
delta (``inf − inf`` is NaN) and idempotent algebras deliver to the
gathered receivers only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.api.vertex_program import DeltaProgram
from repro.cluster.network import CommMode, NetworkModel
from repro.comms import (
    DELTA_A2A,
    DELTA_M2M,
    Delivery,
    ExchangePlane,
    delta_schema,
)
from repro.errors import EngineError
from repro.kernels.segment_reduce import monoid_kind, scatter_reduce
from repro.obs.lens import NULL_LENS
from repro.obs.tracer import NULL_TRACER
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.machine_runtime import MachineRuntime

__all__ = ["CoherencyExchanger", "ExchangeReport"]

_POS_ZERO = np.float64(0.0).tobytes()


@dataclass(frozen=True)
class ExchangeReport:
    """What one coherency exchange moved and how it was priced."""

    mode: CommMode
    volume_bytes: float
    messages: int
    volume_a2a_bytes: float
    volume_m2m_bytes: float
    vertices_exchanged: int

    @property
    def empty(self) -> bool:
        return self.vertices_exchanged == 0


_EMPTY = ExchangeReport(CommMode.ALL_TO_ALL, 0.0, 0, 0.0, 0.0, 0)


class CoherencyExchanger:
    """Executes delta exchanges over a partitioned graph's replicas."""

    def __init__(
        self,
        pgraph: PartitionedGraph,
        program: DeltaProgram,
        runtimes: List[MachineRuntime],
        mode: str = "dynamic",
        network: Optional[NetworkModel] = None,
        tracer=None,
        plane: Optional[ExchangePlane] = None,
        delivery: Delivery = Delivery.BSP,
        lens=None,
    ) -> None:
        if mode not in ("dynamic", "a2a", "m2m"):
            raise EngineError(f"unknown coherency mode {mode!r}")
        if mode in ("dynamic", "m2m") and not program.algebra.supports_mirrors_to_master:
            raise EngineError(
                f"algebra {program.algebra.name!r} supports neither Inverse "
                f"nor idempotency; only mode='a2a' is sound"
            )
        self.pgraph = pgraph
        self.program = program
        self.runtimes = runtimes
        self.mode = mode
        self.network = network or NetworkModel()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.lens = lens if lens is not None else NULL_LENS
        # channel plan: both wire protocols get their own typed channel;
        # deliver() picks per exchange, matching the dynamic switching.
        # Without a plane the exchanger only stages (unit-test mode).
        self.a2a_ch = self.m2m_ch = None
        if plane is not None:
            schema = delta_schema(program)
            self.a2a_ch = plane.open(
                DELTA_A2A, schema, delivery, comm_mode=CommMode.ALL_TO_ALL
            )
            self.m2m_ch = plane.open(
                DELTA_M2M, schema, delivery, comm_mode=CommMode.MIRRORS_TO_MASTER
            )
        self._total = np.empty(pgraph.graph.num_vertices, dtype=np.float64)
        self._switches = 0
        self._last_mode: Optional[CommMode] = None
        # Subsumption filter (idempotent ⊕ only): the shared view as of
        # the last coherency point, per replica. A delta that does not
        # strictly improve on it is implied by already-exchanged data
        # (every past improvement travelled through some earlier delta),
        # so shipping it again is pure redundancy — this is what keeps
        # lazy label-correction traffic below the eager baseline's.
        self._shared: Optional[List[np.ndarray]] = None
        if program.algebra.idempotent:
            # initial shared view = the initial vdata (identical on every
            # replica by the DeltaProgram.make_state contract)
            self._shared = [rt.values().astype(np.float64).copy() for rt in runtimes]
        # fixed per partition: which slots have peers to inform, and the
        # (solo) slots that have none — a sweep clears their deltas, and
        # the streaming delivery zeroes them, by index
        self._replicated = [rt.mg.num_replicas > 1 for rt in runtimes]
        self._solo_idx = [np.flatnonzero(~rep) for rep in self._replicated]
        # a full exchange over a SUM algebra delivers by streaming every
        # slot (_deliver_streaming)
        alg = program.algebra
        self._stream = (
            self._shared is None
            and monoid_kind(alg) == "sum"
            and alg.inverse_ufunc is np.subtract
            and np.float64(alg.identity).tobytes() == _POS_ZERO
        )

    @property
    def mode_switches(self) -> int:
        """How many times the dynamic policy changed wire protocol."""
        return self._switches

    def _channel_for(self, report: "ExchangeReport"):
        return self.a2a_ch if report.mode is CommMode.ALL_TO_ALL else self.m2m_ch

    def deliver(self, report: "ExchangeReport") -> float:
        """Move one exchange's traffic over its wire-protocol channel.

        BSP channels run the coherency point's single round + barrier
        (even an empty exchange pays the barrier — LazyBlockAsync's one
        global synchronization per superstep) and return ``0.0``; async
        channels skip empty exchanges entirely and return the modeled
        transfer latency for the engine to pipeline behind local work.
        """
        ch = self._channel_for(report)
        if ch.delivery is Delivery.BSP:
            ch.transfer(report.volume_bytes, report.messages)
            if not report.empty:
                ch.round(report.volume_bytes)
            ch.barrier()  # the single global synchronization
            return 0.0
        if report.empty:
            return 0.0
        ch.transfer(report.volume_bytes, report.messages)
        return ch.round(report.volume_bytes)

    # ------------------------------------------------------------------
    def _stage(self, mi: int, rt: MachineRuntime) -> Tuple[np.ndarray, np.ndarray]:
        """``rt``'s replicated pending deltas: ``(local idx, deltas)``.

        Under an idempotent ⊕ a delta that does not strictly improve the
        last shared view carries no new information: it is cleared here
        and not staged.
        """
        idx = np.flatnonzero(rt.has_delta & self._replicated[mi])
        deltas = rt.delta_msg[idx]
        if self._shared is not None and idx.size:
            seen = self._shared[mi][idx]
            improves = self.program.algebra.combine(deltas, seen) != seen
            keep = np.flatnonzero(improves)
            if keep.size < idx.size:
                rt.clear_deltas(idx[np.flatnonzero(~improves)])
                idx, deltas = idx[keep], deltas[keep]
        return idx, deltas

    def sweep(self) -> ExchangeReport:
        """A deferred exchange: ship nothing, keep every replicated
        pending delta, but drop what no exchange would ship — unreplicated
        deltas (no peer to inform; their messages were applied locally)
        and subsumed ones. Returns the empty report."""
        for mi, rt in enumerate(self.runtimes):
            self._stage(mi, rt)
            rt.clear_deltas(self._solo_idx[mi])
        return _EMPTY

    def exchange(self) -> ExchangeReport:
        """Run one full coherency exchange; returns the traffic report.

        Every replica with a pending delta contributes it, and every
        ``has_delta`` is down afterwards.
        """
        alg = self.program.algebra

        # ---- collect every replicated delta ---------------------------
        # Stage per-runtime (gids, deltas) then fold once: runtimes are
        # blocks of consecutive machines in machine order with each
        # machine's slots contiguous, so the concatenation lists every
        # gid's contributions in machine order and the single kernel
        # pass is bit-identical to a per-machine ufunc.at loop. Index
        # plumbing stays on NumPy's fast paths: bool flatnonzero plus
        # gathers, never an int flatnonzero or a mask compress
        # (docs/performance.md, "NumPy fast paths").
        part_idx, part_deltas = zip(*(
            self._stage(mi, rt) for mi, rt in enumerate(self.runtimes)
        ))
        all_gids = np.concatenate(
            [rt.mg.vertices[idx] for rt, idx in zip(self.runtimes, part_idx)]
        )
        if all_gids.size == 0:
            # still clear deltas of unreplicated vertices
            for rt in self.runtimes:
                rt.clear_deltas(None)
            return _EMPTY
        all_deltas = np.concatenate(part_deltas)
        total = self._total
        total.fill(alg.identity)
        scatter_reduce(alg, total, all_gids, all_deltas)
        # replica counts are pure integer sums — no ⊕ semantics needed
        cnt = np.bincount(all_gids, minlength=total.size)
        if self.lens.enabled:
            # delta mass this exchange ships (monoid-measured)
            self.lens.on_staged(alg.magnitude(all_deltas))
        exchanged = np.flatnonzero(cnt > 0)

        # ---- price both wire protocols (paper's volume equations) -----
        nrep = self.pgraph.num_replicas[exchanged]
        nhas = cnt[exchanged]
        b = float(self.program.delta_bytes)
        msgs_a2a = int((nhas * (nrep - 1)).sum())
        msgs_m2m = int((nhas + nrep - 2).sum())
        vol_a2a = msgs_a2a * b
        vol_m2m = msgs_m2m * b
        if self.mode == "a2a":
            mode = CommMode.ALL_TO_ALL
        elif self.mode == "m2m":
            mode = CommMode.MIRRORS_TO_MASTER
        else:
            mode = self.network.pick_mode(
                vol_a2a, vol_m2m, self.pgraph.num_machines
            )
        if self._last_mode is not None and mode is not self._last_mode:
            self._switches += 1
            self.tracer.instant(
                "mode-switch", to=mode.value, switches=self._switches
            )
        self._last_mode = mode
        volume = vol_a2a if mode is CommMode.ALL_TO_ALL else vol_m2m
        messages = msgs_a2a if mode is CommMode.ALL_TO_ALL else msgs_m2m
        self.tracer.instant(
            "coherency-exchange",
            mode=mode.value,
            volume_a2a_bytes=vol_a2a,
            volume_m2m_bytes=vol_m2m,
            messages=messages,
            vertices=int(exchanged.size),
        )

        # ---- deliver: every replica folds the others' combined delta --
        # a non-finite staged delta makes the sum non-finite (so may an
        # overflowing finite batch: it takes the index path too)
        if self._stream and np.isfinite(all_deltas.sum()):
            self._deliver_streaming(total, cnt)
        else:
            self._deliver_indexed(total, cnt, part_idx)
        # every replicated delta was staged and delivered, and
        # unreplicated ones have no peers to inform
        for rt in self.runtimes:
            rt.clear_deltas(None)

        return ExchangeReport(
            mode=mode,
            volume_bytes=volume,
            messages=messages,
            volume_a2a_bytes=vol_a2a,
            volume_m2m_bytes=vol_m2m,
            vertices_exchanged=int(exchanged.size),
        )

    def _deliver_streaming(self, total: np.ndarray, cnt: np.ndarray) -> None:
        """Full SUM delivery over every slot, no receiver index.

        A replica receives when more replicas contributed than itself,
        and folds ``total − own`` with ``own`` its ``deltaMsg``. Where no
        other replica contributed that term is exactly +0.0 — ``0 − 0``,
        or ``t − t`` for its own finite delta ``t`` — and adding +0.0
        leaves ``msg`` bit for bit (a SUM buffer never holds -0.0;
        ``repro.runtime.machine_runtime``). Receivers get the very
        ``total − own`` and ``+`` of the index path. Unreplicated slots
        are zeroed first: no peer contributes to them.
        """
        ident = self.program.algebra.identity
        for rt, solo in zip(self.runtimes, self._solo_idx):
            gids = rt.mg.vertices
            rt.has_msg |= cnt[gids] > rt.has_delta
            rt.delta_msg[solo] = ident
            incoming = total[gids]
            incoming -= rt.delta_msg
            rt.msg += incoming

    def _deliver_indexed(
        self, total: np.ndarray, cnt: np.ndarray, part_idx: Sequence[np.ndarray],
    ) -> None:
        """Deliver to the gathered receivers only: idempotent algebras
        and non-finite staged deltas."""
        alg = self.program.algebra
        for mi, (rt, idx) in enumerate(zip(self.runtimes, part_idx)):
            gids_all = rt.mg.vertices
            c = cnt[gids_all]
            if self._shared is None:
                # a replica receives when another replica contributed,
                # and removes its own contribution from the total: its
                # deltaMsg (identity wherever has_delta is unset)
                c[idx] -= 1
                recv = np.flatnonzero(c > 0)
                incoming = alg.inverse(total[gids_all[recv]], rt.delta_msg[recv])
            else:
                # advance this replica's shared-view snapshot with
                # everything exchanged for its vertices
                touched = np.flatnonzero(c > 0)
                exchanged_here = total[gids_all[touched]]
                shared = self._shared[mi]
                shared[touched] = alg.combine(shared[touched], exchanged_here)
                # a contributor does not receive from itself — though
                # with idempotent ⊕ re-folding its own delta is a no-op
                c[idx] -= 1
                others = np.flatnonzero(c[touched] > 0)
                recv, incoming = touched[others], exchanged_here[others]
            rt.msg[recv] = alg.combine(rt.msg[recv], incoming)
            rt.has_msg[recv] = True
