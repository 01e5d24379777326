"""Per-machine compute operations, shared by every execution backend.

Each engine's inner machine loop is a pure function of one machine's
runtime state: take the staged messages, apply, scatter, report how much
work happened. This module names those loops as *ops* so an
:class:`~repro.runtime.backend.ExecutionBackend` can run them anywhere —
inline on the engine thread (:class:`~repro.runtime.backend.SerialBackend`)
or inside a worker process that owns the machine's arrays in shared
memory (:class:`~repro.runtime.process_backend.ProcessBackend`).

The contract that keeps backends bit-identical:

* A handler may touch **only** its machine's runtime, the shared arrays
  in ``ctx.shared``, and its machine's :class:`MachineCollector` — never
  the tracer, the simulator, or another machine.
* Every model-time charge (``ClusterSim.add_compute``, channel ledgers)
  is folded by the *engine*, parent-side, from the handler's returned
  dict, in ascending machine order — exactly the legacy loop order.
* Observability events are emitted through ``ctx.collector`` with the
  same names/attributes the legacy inline loops used, so the
  ``(epoch, machine, seq)`` merge reproduces the serial record stream.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict

import numpy as np

__all__ = ["OpContext", "run_op", "OP_HANDLERS", "runtime_shared_arrays",
           "set_runtime_array"]


@dataclass
class OpContext:
    """Everything a handler may touch besides its own runtime."""

    machine_id: int
    collector: Any  # MachineCollector (engine-side or worker-local)
    net: Any  # NetworkModel (for deterministic busy_s attributes)
    shared: Dict[str, np.ndarray]  # backend-managed cross-machine arrays


# ----------------------------------------------------------------------
# shared-memory backing: which runtime arrays must be visible to both
# the parent (exchange plane, lens, coherency) and the worker (compute)

def runtime_shared_arrays(rt) -> Dict[str, np.ndarray]:
    """Enumerate the per-machine arrays both sides must see.

    Delta runtimes expose their mailbox arrays plus all state arrays;
    GAS runtimes only carry state (their mailboxes are the engine-level
    ``gas.*`` shared arrays).
    """
    out: Dict[str, np.ndarray] = {}
    for name in ("msg", "has_msg", "delta_msg", "has_delta"):
        arr = getattr(rt, name, None)
        if isinstance(arr, np.ndarray):
            out[name] = arr
    state = getattr(rt, "state", None)
    if isinstance(state, dict):
        for key, arr in state.items():
            if isinstance(arr, np.ndarray):
                out[f"state.{key}"] = arr
    return out


def set_runtime_array(rt, key: str, arr: np.ndarray) -> None:
    """Re-point one runtime array at a (shared-memory) replacement."""
    if key.startswith("state."):
        rt.state[key[len("state."):]] = arr
    else:
        setattr(rt, key, arr)


# ----------------------------------------------------------------------
# handlers


def _op_bootstrap(rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Initial scatter: stage the seed deltas (BaseEngine._bootstrap body)."""
    edges, applies = rt.bootstrap(payload["track_delta"])
    return {"edges": edges, "applies": applies}


def _op_apply_step(rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Drain the mailbox and apply+scatter (the delta engines' inner loop).

    ``span=True`` wraps the work in an ``apply-machine`` collector span
    (the lazy engines' instrumented passes); ``span=False`` is the bare
    micro-iteration used inside lazy-block local stages.
    """
    track = payload["track_delta"]
    idx, accum = rt.take_ready()
    if payload.get("span"):
        with ctx.collector.span(
            "apply-machine", machine=ctx.machine_id,
            superstep=payload["superstep"],
        ) as msp:
            edges, _ = rt.apply_and_scatter(idx, accum, track_delta=track)
            msp.set(edges=edges, applies=int(idx.size),
                    busy_s=ctx.net.compute_time(edges, int(idx.size)))
    else:
        edges, _ = rt.apply_and_scatter(idx, accum, track_delta=track)
    return {
        "edges": int(edges),
        "applies": int(idx.size),
        "busy_s": ctx.net.compute_time(edges, int(idx.size)),
    }


def _op_eager_apply(rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Apply the eagerly-combined accumulators (EagerExchange.apply_all leg)."""
    has = ctx.shared["eager.has"]
    total = ctx.shared["eager.total"]
    sel = has[rt.mg.vertices]
    idx = np.flatnonzero(sel)
    if idx.size:
        accum = total[rt.mg.vertices[idx]]
        edges, _ = rt.apply_and_scatter(
            idx, accum, track_delta=payload["track_delta"]
        )
    else:
        edges = 0
    return {"edges": int(edges), "applies": int(idx.size)}


def _op_gas_gather(rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Pull-gather over local in-edges (GAS engine gather leg).

    Returns the touched global ids and partial accumulators; the engine
    folds them into the global accumulator parent-side, in machine order.
    """
    active = ctx.shared["gas.active"]
    local_active = active[rt.mg.vertices]
    with ctx.collector.span(
        "gather-machine", machine=ctx.machine_id,
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
    has = ctx.shared["gas.has"]
    total = ctx.shared["gas.total"]
    sel = has[rt.mg.vertices]
    idx = np.flatnonzero(sel)
    if idx.size == 0:
        return {"applies": 0, "out_gids": np.empty(0, dtype=np.int64)}
    with ctx.collector.span(
        "apply-machine", machine=ctx.machine_id,
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


OP_HANDLERS: Dict[str, Callable[..., Dict[str, Any]]] = {
    "bootstrap": _op_bootstrap,
    "apply_step": _op_apply_step,
    "eager_apply": _op_eager_apply,
    "gas_gather": _op_gas_gather,
    "gas_apply": _op_gas_apply,
}


def run_op(op: str, rt, ctx: OpContext, payload: Dict[str, Any]) -> Dict[str, Any]:
    """Run one named op against one machine runtime."""
    return OP_HANDLERS[op](rt, ctx, payload or {})
