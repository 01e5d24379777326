"""Classic full-gather GAS Sync engine (the native PowerGraph loop).

Each superstep, every replica of an active vertex *pulls* over its local
in-edges, mirrors ship partial accumulators to the master, every replica
applies the combined accumulator (eager coherency), and changed vertices
activate their out-neighbours. Exactly the eager cost structure of §2.2:
two communication rounds and three global synchronizations per
superstep — but unlike the delta engines, the gather recomputes the full
neighbour aggregate every time a vertex activates, which is why standard
GAS PageRank does strictly more edge work than PageRank-Delta (measured
in ``benchmarks/bench_gas_baseline.py``).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.comms import BROADCAST, GATHER, Delivery, value_schema
from repro.kernels import CSRPlan, KernelStats, scatter_reduce
from repro.partition.partitioned_graph import MachineGraph
from repro.powergraph.gas import GASProgram
from repro.runtime.base_engine import BaseEngine

__all__ = ["PowerGraphGASSyncEngine", "gas_plans"]


def gas_plans(mg: MachineGraph) -> Tuple[CSRPlan, CSRPlan]:
    """The pull engine's ``(in_plan, out_plan)`` over ``mg``.

    The in-plan sorts by target; its ties keep placement order —
    one-edge before parallel, each by ascending global edge id — not the
    source-ordered local layout, so a target's gather folds its in-edges
    in an order that does not depend on how sources are numbered.
    """
    n = mg.num_local_vertices
    placement = np.lexsort((mg.eglobal, mg.eparallel))
    return CSRPlan(mg.edst, n, tiebreak=placement), CSRPlan(mg.esrc, n)


class _GASMachine:
    """Per-machine state for the pull engine: data + cached CSR plans.

    Both local CSRs (in-edges for gather, out-edges for activation) are
    :class:`~repro.kernels.csr.CSRPlan` instances, so the flatten
    structures and scratch are built once and every per-superstep edge
    selection is frontier-adaptive (sparse range expansion vs a dense
    full-CSR sweep). :meth:`gather_step` / :meth:`apply_step` are the
    two per-superstep passes the engine dispatches as compute passes
    (``BaseEngine._compute_pass``).
    """

    def __init__(self, mg: MachineGraph, program: GASProgram, plans=None) -> None:
        self.mg = mg
        self.program = program
        self.state = program.make_state(mg)
        n = mg.num_local_vertices
        # plans: an optional cached (in_plan, out_plan) pair from a
        # GraphSession — must describe this exact machine graph
        self.in_plan, self.out_plan = (
            plans if plans is not None else gas_plans(mg)
        )
        self._acc_scratch = np.empty(n, dtype=np.float64)
        self.kernel_stats = KernelStats()  # the pull kernels are not timed

    def values(self) -> np.ndarray:
        """Local per-replica values (the generic result-collection view)."""
        return self.program.values(self.mg, self.state)

    @staticmethod
    def _positions(plan: CSRPlan, idx: np.ndarray) -> Optional[np.ndarray]:
        """Sorted positions of ``idx``'s edges (``None``: every edge).

        A dense selection carries no positions (the delta runtime sweeps
        every edge); the pull engine compacts its frontier's edges out
        of one boolean mask over the sorted keys instead.
        """
        mode, pos, _counts, total = plan.select(idx)
        if total == 0:
            return np.empty(0, dtype=np.int64)
        if mode == "dense":
            mask = np.zeros(plan.num_slots, dtype=bool)
            mask[idx] = True
            pos = np.flatnonzero(mask[plan.key_sorted])
        return pos

    def _edges_of(self, plan: CSRPlan, idx: np.ndarray) -> np.ndarray:
        # pos None: a dense-full sweep, every local edge
        return plan.edge_ids(self._positions(plan, idx))

    def gather(self, program: GASProgram, active_local: np.ndarray):
        """Pull over local in-edges of the active local vertices.

        Returns ``(local idx with in-edges, partial accums, edges pulled)``.
        The accums are copied out of the per-machine scratch (they
        outlive the next gather). The in-plan is keyed by target,
        so the fold targets are the sorted keys themselves; a dense-full
        sweep reuses the plan's precomputed touched set.
        """
        idx = np.flatnonzero(active_local)
        if idx.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), 0
        plan = self.in_plan
        pos = self._positions(plan, idx)
        if pos is not None and pos.size == 0:
            return np.empty(0, dtype=np.int64), np.empty(0), 0
        e_sel = plan.edge_ids(pos)
        if pos is None:  # dense-full: every local in-edge, sorted by target
            tgt = plan.key_sorted
            touched = plan.nonempty_slots
        else:
            tgt = plan.key_sorted[pos]  # == mg.edst[e_sel], no gather
            # tgt is ascending (positions are in sorted-key order), so
            # the touched set falls out of the segment boundaries
            bounds = np.flatnonzero(tgt[1:] != tgt[:-1]) + 1
            touched = tgt[np.concatenate(([0], bounds))]
        vals = program.gather_values(self.mg, self.state, e_sel)
        alg = program.algebra
        acc = self._acc_scratch
        acc.fill(alg.identity)
        scatter_reduce(alg, acc, tgt, vals)
        return touched, acc[touched], int(e_sel.size)

    def out_targets(self, idx: np.ndarray) -> np.ndarray:
        """Global ids reached by the out-edges of local vertices ``idx``."""
        e_sel = self._edges_of(self.out_plan, idx)
        if e_sel.size == 0:
            return np.empty(0, dtype=np.int64)
        return self.mg.vertices[self.mg.edst[e_sel]]

    def gather_step(self, active: np.ndarray):
        """The gather leg on this machine: pull over local in-edges.

        Returns ``(edges, gids, partial accums, mirror count)``; the
        engine folds the accums into the global accumulator in machine
        order.
        """
        mg = self.mg
        idx, acc, edges = self.gather(self.program, active[mg.vertices])
        mirrors = int(np.count_nonzero(~mg.is_master[idx]))
        return edges, mg.vertices[idx], acc, mirrors

    def apply_step(self, has: np.ndarray, total: np.ndarray):
        """The apply leg: combined accumulators onto every local replica.

        Returns ``(applies, global ids the changed vertices activate)``.
        """
        mg = self.mg
        idx = np.flatnonzero(has[mg.vertices])
        if idx.size == 0:
            return 0, idx
        changed = self.program.apply(
            mg, self.state, idx, total[mg.vertices[idx]]
        )
        return int(idx.size), self.out_targets(idx[changed])


class PowerGraphGASSyncEngine(BaseEngine):
    """Eager BSP engine for classic pull-style GAS programs.

    Shares the full :class:`BaseEngine` lifecycle (validation, simulator
    and tracer setup, exchange plane, result assembly) with the delta
    engines; only the runtime state (:class:`_GASMachine`) and the
    superstep loop are GAS-specific. Full vertex values travel on the
    ``gather`` / ``broadcast`` BSP channels, sized by the program's
    ``value_bytes`` (the delta engines ship ``delta_bytes`` records on
    the same-named channels — that size gap is the paper's Fig 9).
    """

    name = "powergraph-gas-sync"

    def _make_runtimes(self) -> List[_GASMachine]:
        machines = self.pgraph.machines
        return [
            _GASMachine(mg, self.program, plans=plans)
            for mg, plans in zip(machines, self._unit_plans(machines))
        ]

    # ------------------------------------------------------------------
    def _execute(self) -> bool:
        sim = self.sim
        prog = self.program
        alg = prog.algebra
        n = self.pgraph.graph.num_vertices
        schema = value_schema(prog)
        gather_ch = self.comms.open(GATHER, schema, Delivery.BSP)
        bcast_ch = self.comms.open(BROADCAST, schema, Delivery.BSP)

        # pull semantics: an "active" vertex re-gathers its in-edges, so
        # the initial frontier must also cover the out-neighbours of the
        # initially-active vertices (they are who can see the seed data).
        active = np.zeros(n, dtype=bool)
        for gm in self.runtimes:
            seed = prog.initially_active(gm.mg)
            active[gm.mg.vertices[seed]] = True
            active[gm.out_targets(np.flatnonzero(seed))] = True

        total = np.empty(n, dtype=np.float64)
        has = np.empty(n, dtype=bool)
        tracer = self.tracer
        for step in range(self.max_supersteps):
            if not active.any():
                return True
            with tracer.span("superstep", category="superstep", superstep=step) as ss:
                # ---- gather: pull on every replica, combine at master ---
                with tracer.span("gather", category="phase") as sp:
                    total.fill(alg.identity)
                    has.fill(False)
                    gathered: List[Tuple[np.ndarray, np.ndarray, int]] = []

                    def gather(gm):
                        edges, gids, acc, mirrors = gm.gather_step(active)
                        gathered.append((gids, acc, mirrors))
                        return np.array([[edges], [0]])

                    self._compute_pass(gather, step)
                    gather_msgs = 0
                    for gids, acc, mirrors in gathered:
                        if gids.size:
                            alg.combine_at(total, gids, acc)
                            has[gids] = True
                            gather_msgs += mirrors
                    vol1 = schema.bytes_for(gather_msgs)
                    sp.set(gather_msgs=gather_msgs, gather_bytes=vol1)
                    gather_ch.bsp_leg(vol1, gather_msgs)  # sync #1

                # active vertices with no in-edges anywhere still "apply"
                # the identity accumulator (e.g. the PR base-rank refresh)
                has |= active

                # ---- apply on every replica + broadcast -----------------
                with tracer.span("apply", category="phase") as sp:
                    applied = np.flatnonzero(has)
                    bcast = int((self.pgraph.num_replicas[applied] - 1).sum())
                    next_active = np.zeros(n, dtype=bool)

                    def apply(gm):
                        applies, out_gids = gm.apply_step(has, total)
                        next_active[out_gids] = True
                        return np.array([[0], [applies]])

                    self._compute_pass(apply, step)
                    vol2 = schema.bytes_for(bcast)
                    sp.set(bcast_msgs=bcast, bcast_bytes=vol2)
                    bcast_ch.bsp_leg(vol2, bcast)  # sync #2

                # ---- scatter/activation already folded in ---------------
                with tracer.span("scatter", category="phase"):
                    self.comms.control.barrier()  # sync #3
                sim.stats.supersteps += 1
                active[:] = next_active
                if tracer.enabled:
                    ss.set(active=int(active.sum()))
        return False
