"""Per-runtime compute operations: the bodies of the engines' inner loops.

Each engine's inner loop is a pure function of one runtime's state: take
the staged messages, apply, scatter, report how much work happened. This
module names those loops as *ops*;
:meth:`repro.runtime.backend.SerialBackend.dispatch` runs one op on
every runtime of an engine, in machine order. A delta engine's runtime
is a *block* of consecutive machines
(:class:`~repro.runtime.machine_runtime.MachineRuntime`); the GAS
engine's is one machine.

The contract handlers keep:

* A handler touches **only** its own runtime, the arrays handed to it in
  the payload, and the tracer — never the simulator or another runtime.
* Every model-time charge (``ClusterSim.add_compute_all``, channel
  ledgers) is folded by the *engine* from what the handlers return, in
  ascending machine order. The delta ops return per-machine
  ``(edges, applies)`` rows (``int64[2, k]``) for the ``k`` machines of
  their block; ``SerialBackend.dispatch_work`` concatenates them in
  block order, which is machine order.
* Per-machine work spans are written to ``ctx.tracer`` as the handler
  runs, so the record stream is in machine order within each pass.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np

__all__ = ["OpContext", "OP_HANDLERS", "eager_apply"]


@dataclass
class OpContext:
    """Everything a handler may touch besides its own runtime."""

    tracer: Any  # the run's Tracer (NULL_TRACER when tracing is off)
    net: Any  # NetworkModel (for deterministic busy_s attributes)


# ----------------------------------------------------------------------
# handlers


def _op_bootstrap(rt, ctx: OpContext, payload: Dict[str, Any]) -> np.ndarray:
    """Initial scatter: stage the seed deltas (BaseEngine._bootstrap body)."""
    return rt.bootstrap(payload["track_delta"])


def _op_apply_step(rt, ctx: OpContext, payload: Dict[str, Any]) -> np.ndarray:
    """Drain the mailbox and apply+scatter (the delta engines' inner loop).

    ``span=True`` reports the pass as one ``apply-machine`` span per
    covered machine (the lazy engines' instrumented passes;
    zero-work machines included, all carrying the block call's host
    interval); ``span=False`` is the bare micro-iteration used inside
    lazy-block local stages.
    """
    t0 = time.perf_counter()
    idx, accum = rt.take_ready()
    work = rt.apply_and_scatter(idx, accum, track_delta=payload["track_delta"])
    if payload.get("span") and ctx.tracer.enabled:
        t1 = time.perf_counter()
        edges, applies = work.tolist()
        busy = ctx.net.compute_time(work[0], work[1]).tolist()
        for j, machine in enumerate(rt.mg.machine_ids):
            ctx.tracer.emit_closed_span(
                "apply-machine", "machine", t0, t1,
                {"machine": machine, "superstep": payload["superstep"],
                 "edges": edges[j], "applies": applies[j],
                 "busy_s": busy[j]},
            )
    return work


def eager_apply(
    rt, has: np.ndarray, total: np.ndarray, track_delta: bool
) -> np.ndarray:
    """Replay Apply+Scatter of the globally staged accums on one runtime."""
    gids = rt.mg.vertices
    idx = np.flatnonzero(has[gids])
    return rt.apply_and_scatter(idx, total[gids[idx]], track_delta)


def _op_eager_apply(rt, ctx: OpContext, payload: Dict[str, Any]) -> np.ndarray:
    """Apply the eagerly-combined accumulators (EagerExchange.apply_all leg)."""
    return eager_apply(
        rt, payload["has"], payload["total"], payload["track_delta"]
    )


def _op_gas_gather(rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pull-gather over local in-edges (GAS engine gather leg).

    Returns the touched global ids and partial accumulators; the engine
    folds them into the global accumulator in machine order.
    """
    local_active = payload["active"][rt.mg.vertices]
    with ctx.tracer.span(
        "gather-machine", category="machine", machine=rt.mg.machine_id,
        superstep=payload["superstep"],
    ) as msp:
        idx, acc, edges = rt.gather(rt.program, local_active)
        msp.set(edges=edges, busy_s=ctx.net.compute_time(edges, 0))
    if idx.size:
        gids = rt.mg.vertices[idx]
        mirrors = int(np.count_nonzero(~rt.mg.is_master[idx]))
        acc = np.array(acc, dtype=np.float64, copy=True)  # scratch view
    else:
        gids = np.empty(0, dtype=np.int64)
        acc = np.empty(0, dtype=np.float64)
        mirrors = 0
    return {"edges": int(edges), "gids": gids, "acc": acc, "mirrors": mirrors}


def _op_gas_apply(rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Apply combined accumulators on every replica (GAS engine apply leg)."""
    total = payload["total"]
    sel = payload["has"][rt.mg.vertices]
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        return {"applies": 0, "out_gids": np.empty(0, dtype=np.int64)}
    with ctx.tracer.span(
        "apply-machine", category="machine", machine=rt.mg.machine_id,
        superstep=payload["superstep"],
    ) as msp:
        changed = rt.program.apply(
            rt.mg, rt.state, idx, total[rt.mg.vertices[idx]]
        )
        msp.set(applies=int(idx.size),
                busy_s=ctx.net.compute_time(0, int(idx.size)))
    fired = idx[changed]
    if fired.size:
        out_gids = rt.out_targets(fired)
    else:
        out_gids = np.empty(0, dtype=np.int64)
    return {"applies": int(idx.size), "out_gids": out_gids}


OP_HANDLERS: Dict[str, Callable[..., Any]] = {
    "bootstrap": _op_bootstrap,
    "apply_step": _op_apply_step,
    "eager_apply": _op_eager_apply,
    "gas_gather": _op_gas_gather,
    "gas_apply": _op_gas_apply,
}
