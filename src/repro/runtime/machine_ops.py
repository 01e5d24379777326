"""Per-runtime compute operations, shared by every execution backend.

Each engine's inner loop is a pure function of one runtime's state: take
the staged messages, apply, scatter, report how much work happened. This
module names those loops as *ops* so an
:class:`~repro.runtime.backend.ExecutionBackend` can run them anywhere —
inline on the engine thread (:class:`~repro.runtime.backend.SerialBackend`)
or inside a worker process that owns the runtime's arrays in shared
memory (:class:`~repro.runtime.process_backend.ProcessBackend`). A delta
engine's runtime is a *block* of consecutive machines
(:class:`~repro.runtime.machine_runtime.MachineRuntime`); the GAS
engine's is one machine.

The contract that keeps backends bit-identical:

* A handler may touch **only** its own runtime, the shared arrays in
  ``ctx.shared``, and the :class:`MachineCollector` of each machine it
  covers — never the tracer, the simulator, or another runtime.
* Every model-time charge (``ClusterSim.add_compute_all``, channel
  ledgers) is folded by the *engine*, parent-side, from what the
  handlers return, in ascending machine order. The delta ops return
  per-machine ``(edges, applies)`` rows (``int64[2, k]``) for the ``k``
  machines of their block; backends concatenate them in block order,
  which is machine order (``ExecutionBackend.dispatch_work``).
* Observability events are emitted through ``ctx.collectors`` with the
  same names/attributes the per-machine loops used, so the
  ``(epoch, machine, seq)`` merge reproduces the serial record stream.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List

import numpy as np

__all__ = ["OpContext", "run_op", "OP_HANDLERS", "runtime_shared_arrays",
           "set_runtime_array", "eager_apply"]


@dataclass
class OpContext:
    """Everything a handler may touch besides its own runtime."""

    machine_id: int  # first machine the runtime covers
    # one MachineCollector (engine-side or worker-local) per covered machine
    collectors: List[Any]
    net: Any  # NetworkModel (for deterministic busy_s attributes)
    shared: Dict[str, np.ndarray]  # backend-managed cross-machine arrays

    @property
    def collector(self) -> Any:
        """The first (for a single-machine runtime: the) collector."""
        return self.collectors[0]


# ----------------------------------------------------------------------
# shared-memory backing: which runtime arrays must be visible to both
# the parent (exchange plane, lens, coherency) and the worker (compute)

def runtime_shared_arrays(rt) -> Dict[str, np.ndarray]:
    """Enumerate the per-runtime arrays both sides must see.

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


def _op_bootstrap(rt, ctx: OpContext, payload: Dict[str, Any]) -> np.ndarray:
    """Initial scatter: stage the seed deltas (BaseEngine._bootstrap body)."""
    return rt.bootstrap(payload["track_delta"])


def _op_apply_step(rt, ctx: OpContext, payload: Dict[str, Any]) -> np.ndarray:
    """Drain the mailbox and apply+scatter (the delta engines' inner loop).

    ``span=True`` reports the pass as one ``apply-machine`` collector
    span per covered machine (the lazy engines' instrumented passes;
    zero-work machines included, all carrying the block call's host
    interval); ``span=False`` is the bare micro-iteration used inside
    lazy-block local stages.
    """
    t0 = time.perf_counter()
    idx, accum = rt.take_ready()
    work = rt.apply_and_scatter(idx, accum, track_delta=payload["track_delta"])
    if payload.get("span") and ctx.collector.tracer.enabled:
        t1 = time.perf_counter()
        edges, applies = work.tolist()
        busy = ctx.net.compute_time(work[0], work[1]).tolist()
        for j, (machine, collector) in enumerate(
            zip(rt.mg.machine_ids, ctx.collectors)
        ):
            collector.closed_span(
                "apply-machine", t0, t1,
                machine=machine, superstep=payload["superstep"],
                edges=edges[j], applies=applies[j], busy_s=busy[j],
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
        rt, ctx.shared["eager.has"], ctx.shared["eager.total"],
        payload["track_delta"],
    )


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


OP_HANDLERS: Dict[str, Callable[..., Any]] = {
    "bootstrap": _op_bootstrap,
    "apply_step": _op_apply_step,
    "eager_apply": _op_eager_apply,
    "gas_gather": _op_gas_gather,
    "gas_apply": _op_gas_apply,
}


def run_op(op: str, rt, ctx: OpContext, payload: Dict[str, Any]) -> Any:
    """Run one named op against one runtime (a block, or a GAS machine)."""
    return OP_HANDLERS[op](rt, ctx, payload or {})
