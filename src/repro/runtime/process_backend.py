"""Process-parallel execution backend: spawn workers + shared memory.

Topology
--------
``ProcessBackend.bind(engine)`` re-backs every runtime array (message
mailboxes and program state; see
:func:`~repro.runtime.machine_ops.runtime_shared_arrays`) with a
``multiprocessing.shared_memory`` segment, then binds a persistent pool
of worker processes (spawn context, so everything shipped at bind must
be picklable). The unit of ownership is the engine's runtime — a block
of consecutive machines for the delta engines, one machine for GAS —
assigned round-robin: worker ``r`` owns every runtime ``u`` with
``u % workers == r`` and builds its own :class:`MachineRuntime` /
``_GASMachine`` facades over the *same* segments (which are therefore
per block). The parent keeps its runtime facades too — the exchange
plane, coherency exchanger, lens, and signal taps all keep reading and
writing the exact arrays the workers compute on, which is why every
cross-machine code path stays byte-for-byte the serial code path.

Protocol
--------
One duplex pipe per worker. A freshly spawned worker idles until it
receives ``("bind", init)`` — the per-run payload (bind rank, run seed,
owned runtime units and their machine graphs, program, kernel config,
shared-memory specs) that used to travel as spawn arguments. Binding
re-seeds the worker RNG from the run seed
(`derive_seed(seed, "backend-worker-r")`, exactly what spawn-time
seeding did — no RNG is consumed between spawn and bind, so warm-pool
runs stay bit-identical to cold spawns), builds the runtimes, attaches
the segments, and acks ``("ready", None)``.

``dispatch(op, payload)`` advances the shard epoch, broadcasts
``("op", op, epoch, payload, announcements)`` (where announcements carry
lazily-attached engine-level shared arrays such as the GAS frontier) to
every worker that owns a runtime, and waits for each one's reply. A
worker runs the op on each owned runtime in ascending order with the
collector clocks of the machines it covers set to ``(epoch, seq=0)``,
and replies with the per-runtime results plus the raw per-machine
:class:`MachineCollector` event tuples, which the parent appends to its
own collectors — so the engine's next ``ShardedObs.merge()`` interleaves
them in exactly the serial ``(epoch, machine, seq)`` order.
Strict request/reply sequencing means a worker is always quiescent
between dispatches: the parent-side exchange legs that run between
dispatches never race worker writes.

``("unbind",)`` tears the per-run state down (runtimes dropped, segments
closed) and acks ``("unbound", None)``; the worker then idles, ready for
the next bind. That handshake is what makes workers *reusable*: a
:class:`WorkerPool` keeps unbound workers alive across runs, so a
long-lived :class:`~repro.session.GraphSession` pays the spawn cost once
and every subsequent ``backend="process"`` run only pays the (cheap)
bind.

Failure handling: any worker death, protocol error, or timeout raises
:class:`~repro.errors.BackendError` after terminating the pool — a dead
worker can never hang the barrier. ``close()`` unbinds the workers
(returning healthy ones to a shared pool; terminating private or
unhealthy ones), copies runtime arrays back to private memory, and
unlinks every segment; ``BaseEngine.run`` calls it in a ``finally``.
Workers share the parent's ``resource_tracker`` process (the fd rides
along in the spawn preparation data) whose name cache is a set, so the
worker-side attach re-registration dedupes and the parent's unlink-time
unregister settles the books exactly once.
"""

from __future__ import annotations

import dataclasses
import multiprocessing as mp
import os
import time
import traceback
from multiprocessing import shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import BackendError, ConfigError
from repro.kernels.config import get_config, set_config
from repro.kernels.stats import KernelStats
from repro.obs.shards import MachineCollector
from repro.obs.tracer import NULL_TRACER
from repro.runtime.backend import ExecutionBackend, op_contexts
from repro.runtime.machine_ops import (
    run_op,
    runtime_shared_arrays,
    set_runtime_array,
)
from repro.utils.rng import derive_seed

__all__ = ["ProcessBackend", "WorkerPool"]

# (key, segment name or None when zero-sized, shape, dtype string)
_ArraySpec = Tuple[str, Optional[str], Tuple[int, ...], str]


def _attach_array(
    name: Optional[str], shape, dtype
) -> Tuple[np.ndarray, Optional[shared_memory.SharedMemory]]:
    """Map a parent-owned segment into this process (worker side)."""
    if name is None:  # zero-sized arrays are not shared
        return np.empty(shape, dtype=np.dtype(dtype)), None
    shm = shared_memory.SharedMemory(name=name)
    return np.ndarray(shape, dtype=np.dtype(dtype), buffer=shm.buf), shm


class _BufferTracer:
    """Minimal stand-in keeping worker collectors in buffered mode."""

    enabled = True


def _seed_worker(seed: int, rank: int) -> None:
    """Deterministic per-worker RNG state, derived from the run seed."""
    import random

    child = derive_seed(seed, f"backend-worker-{rank}")
    random.seed(child)
    np.random.seed(child % 2**32)


def _worker_bind(init: Dict[str, Any]) -> Dict[str, Any]:  # pragma: no cover
    """Build one run's worker-side state from a ``bind`` payload."""
    _seed_worker(init["seed"], init["rank"])
    set_config(**dataclasses.asdict(init["kernel_config"]))

    program = init["program"]
    tracer = _BufferTracer() if init["tracer_enabled"] else NULL_TRACER
    segments: List[shared_memory.SharedMemory] = []
    runtimes: List[Any] = []
    collectors: Dict[int, MachineCollector] = {}
    shared: Dict[str, np.ndarray] = {}
    for unit in init["units"]:
        mg = init["mgs"][unit]
        if init["runtime_kind"] == "gas":
            from repro.powergraph.engine_gas import _GASMachine

            rt = _GASMachine(mg, program)
        else:
            from repro.runtime.machine_runtime import MachineRuntime

            rt = MachineRuntime(mg, program)
        for key, name, shape, dtype in init["shm"][unit]:
            arr, shm = _attach_array(name, shape, dtype)
            if shm is not None:
                segments.append(shm)
            set_runtime_array(rt, key, arr)
        for mid in mg.machine_ids:
            collectors[mid] = MachineCollector(mid, tracer, buffered=True)
        if hasattr(rt, "obs"):
            rt.obs = collectors[mg.machine_id]
        runtimes.append(rt)
    return {
        "units": init["units"],
        "runtimes": runtimes,
        "collectors": collectors,
        "ctxs": op_contexts(runtimes, collectors, init["network"], shared),
        "shared": shared,
        "segments": segments,
    }


def _worker_unbind(state: Optional[Dict[str, Any]]) -> None:  # pragma: no cover
    """Drop one run's worker-side state and release its segment handles."""
    if state is None:
        return
    state["runtimes"].clear()
    state["ctxs"].clear()
    state["shared"].clear()
    for shm in state["segments"]:
        try:
            shm.close()
        except BufferError:
            pass
    state["segments"].clear()


def _worker_main(conn) -> None:  # pragma: no cover
    # covered by the equivalence matrix, but in a child process where
    # coverage tooling cannot see it
    state: Optional[Dict[str, Any]] = None
    try:
        while True:
            try:
                msg = conn.recv()
            except (EOFError, OSError):
                break
            kind = msg[0]
            if kind == "bind":
                try:
                    state = _worker_bind(msg[1])
                    conn.send(("ready", None))
                except Exception:
                    state = None
                    conn.send(("error", traceback.format_exc()))
            elif kind == "op":
                _, op, epoch, payload, announcements = msg
                try:
                    for key, name, shape, dtype in announcements:
                        arr, shm = _attach_array(name, shape, dtype)
                        if shm is not None:
                            state["segments"].append(shm)
                        state["shared"][key] = arr
                    for col in state["collectors"].values():
                        col.epoch = epoch
                        col._seq = 0
                    results = [
                        (unit, run_op(op, rt, ctx, payload))
                        for unit, rt, ctx in zip(
                            state["units"], state["runtimes"], state["ctxs"]
                        )
                    ]
                    events = []
                    for mid, col in state["collectors"].items():
                        if col.events:
                            events.append((mid, list(col.events)))
                            col.events.clear()
                    conn.send(("ok", (results, events)))
                except Exception:
                    conn.send(("error", traceback.format_exc()))
            elif kind == "finalize":
                stats = [
                    (unit, getattr(rt, "kernel_stats", None))
                    for unit, rt in zip(state["units"], state["runtimes"])
                ]
                conn.send(("stats", stats))
            elif kind == "unbind":
                _worker_unbind(state)
                state = None
                conn.send(("unbound", None))
            elif kind == "stop":
                break
    finally:
        _worker_unbind(state)
        conn.close()


# (process handle, parent end of its duplex pipe)
_PoolMember = Tuple[Any, Any]


class WorkerPool:
    """Reusable spawn-context worker processes, shared across backends.

    A fresh worker is protocol-idle until it receives a ``bind``; an
    unbound worker is indistinguishable from a fresh one (per-run RNG,
    kernel config, runtimes and segments all arrive at bind), so
    returning workers to the pool and re-binding them later is
    bit-identical to spawning anew — minus the spawn cost, which is the
    point. A :class:`~repro.session.GraphSession` keeps one pool warm
    for its lifetime; a standalone :class:`ProcessBackend` creates a
    private pool and closes it with the run.
    """

    def __init__(self) -> None:
        self._idle: List[_PoolMember] = []
        self._closed = False
        #: total processes ever spawned (observability/testing)
        self.spawned = 0
        #: liveness heartbeat for the service telemetry plane
        self.ops_dispatched = 0
        self.last_op_at: Optional[float] = None

    def note_op(self) -> None:
        """Stamp one dispatched op (called by backends using this pool)."""
        self.ops_dispatched += 1
        self.last_op_at = time.monotonic()

    def heartbeat(self) -> Dict[str, Any]:
        """Liveness snapshot: worker census + last-op age in seconds."""
        return {
            "spawned": self.spawned,
            "idle": self.idle_workers,
            "closed": self._closed,
            "ops_dispatched": self.ops_dispatched,
            "last_op_age_s": (
                time.monotonic() - self.last_op_at
                if self.last_op_at is not None else None
            ),
        }

    # ------------------------------------------------------------------
    def _spawn_one(self) -> _PoolMember:
        ctx = mp.get_context("spawn")
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        proc = ctx.Process(
            target=_worker_main, args=(child_conn,),
            daemon=True, name=f"repro-backend-{self.spawned}",
        )
        proc.start()
        child_conn.close()
        self.spawned += 1
        return (proc, parent_conn)

    @property
    def idle_workers(self) -> int:
        """Live workers currently parked in the pool."""
        return sum(1 for proc, _ in self._idle if proc.is_alive())

    def warm(self, count: int) -> None:
        """Pre-spawn workers so the first run does not pay the spawn."""
        while self.idle_workers < count:
            self._idle.append(self._spawn_one())

    def acquire(self, count: int) -> List[_PoolMember]:
        """Hand out ``count`` live workers (reused when possible)."""
        if self._closed:
            raise BackendError("worker pool is closed")
        out: List[_PoolMember] = []
        while self._idle and len(out) < count:
            proc, conn = self._idle.pop()
            if proc.is_alive():
                out.append((proc, conn))
            else:  # died while idle: drop silently, spawn a replacement
                try:
                    conn.close()
                except OSError:
                    pass
        while len(out) < count:
            out.append(self._spawn_one())
        return out

    def release(self, members: List[_PoolMember]) -> None:
        """Return quiescent (unbound, healthy) workers for reuse."""
        if self._closed:
            self.discard(members)
            return
        self._idle.extend(members)

    def discard(self, members: List[_PoolMember], graceful: bool = False) -> None:
        """Stop workers that will not be reused (dead, failed, or done)."""
        for proc, conn in members:
            if graceful and proc.is_alive():
                try:
                    conn.send(("stop",))
                except (OSError, ValueError):
                    pass
                proc.join(timeout=5)
            try:
                conn.close()
            except OSError:
                pass
            if proc.is_alive():
                proc.terminate()
        for proc, _ in members:
            proc.join(timeout=5)

    def close(self) -> None:
        """Stop every idle worker; further ``acquire`` calls fail."""
        if self._closed:
            return
        self._closed = True
        idle, self._idle = self._idle, []
        self.discard(idle, graceful=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


@dataclasses.dataclass
class _Worker:
    rank: int
    proc: Any
    conn: Any
    units: List[int]  # indices into engine.runtimes


class ProcessBackend(ExecutionBackend):
    """Persistent spawn-safe worker pool over shared-memory runtimes."""

    name = "process"

    def __init__(
        self,
        workers: Optional[int] = None,
        seed: int = 0,
        op_timeout: float = 300.0,
        start_timeout: float = 120.0,
        pool: Optional[WorkerPool] = None,
    ) -> None:
        super().__init__()
        if workers is not None and workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.seed = seed
        self.op_timeout = op_timeout
        self.start_timeout = start_timeout
        # shared pool (kept alive by its owner, e.g. a GraphSession) vs
        # a private pool created here and closed with this backend
        self._workers_pool = pool if pool is not None else WorkerPool()
        self._own_pool = pool is None
        self.shared: Dict[str, np.ndarray] = {}
        self._segments: List[shared_memory.SharedMemory] = []
        self._runtime_views: List[Tuple[Any, str, np.ndarray]] = []
        self._pending_ann: List[_ArraySpec] = []
        self._pool: List[_Worker] = []
        self._closed = False
        self._failed = False
        self.num_workers = 0
        self.startup_s = 0.0

    # ------------------------------------------------------------------
    def _new_segment(
        self, key: str, shape, dtype, init_from: Optional[np.ndarray] = None,
        fill=None,
    ) -> Tuple[np.ndarray, Optional[str]]:
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
        if nbytes == 0:
            arr = np.empty(shape, dtype=dtype)
            return arr, None
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        self._segments.append(shm)
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        if init_from is not None:
            arr[...] = init_from
        elif fill is not None:
            arr.fill(fill)
        return arr, shm.name

    def bind(self, engine) -> None:
        if self.engine is not None or self._closed:
            raise ConfigError("backend is already bound to an engine")
        self.engine = engine
        t0 = time.perf_counter()
        num_units = len(engine.runtimes)
        requested = self.workers or (os.cpu_count() or 1)
        # capped at the machine count, not the unit count: ``workers=W``
        # keeps meaning W pool members even when small machines merged
        # into fewer blocks (the surplus own nothing and sit out ops)
        self.num_workers = max(
            1, min(requested, engine.pgraph.num_machines)
        )

        # re-back every runtime array with a shared segment, in place:
        # the parent-side exchange/coherency/lens code keeps its views
        shm_specs: List[List[_ArraySpec]] = []
        for unit, rt in enumerate(engine.runtimes):
            specs: List[_ArraySpec] = []
            for key, arr in runtime_shared_arrays(rt).items():
                view, name = self._new_segment(
                    f"{unit}.{key}", arr.shape, arr.dtype, init_from=arr
                )
                set_runtime_array(rt, key, view)
                self._runtime_views.append((rt, key, view))
                specs.append((key, name, arr.shape, arr.dtype.str))
            shm_specs.append(specs)

        kind = getattr(engine, "worker_runtime", "delta")
        try:
            members = self._workers_pool.acquire(self.num_workers)
            for rank, (proc, conn) in enumerate(members):
                owned = list(range(rank, num_units, self.num_workers))
                init = {
                    "rank": rank,
                    "seed": self.seed,
                    "units": owned,
                    "mgs": {u: engine.runtimes[u].mg for u in owned},
                    "program": engine.program,
                    "runtime_kind": kind,
                    "network": engine.sim.network,
                    "kernel_config": get_config(),
                    "tracer_enabled": engine.tracer.enabled,
                    "shm": {u: shm_specs[u] for u in owned},
                }
                w = _Worker(rank, proc, conn, owned)
                self._pool.append(w)
                self._send(w, ("bind", init))
            for w in self._pool:
                self._recv(w, self.start_timeout)  # ("ready", None)
        except BaseException:
            self._failed = True
            self.close()
            raise
        self.startup_s = time.perf_counter() - t0

    # ------------------------------------------------------------------
    def _terminate(self) -> None:
        self._failed = True
        for w in self._pool:
            try:
                w.conn.close()
            except OSError:
                pass
            if w.proc.is_alive():
                w.proc.terminate()
        for w in self._pool:
            w.proc.join(timeout=5)
        self._pool = []

    def _fail(self, message: str) -> None:
        self._terminate()
        self.close()  # release segments now; nothing can use them again
        raise BackendError(message)

    def _recv(self, w: _Worker, timeout: float):
        deadline = time.monotonic() + timeout
        while not w.conn.poll(0.1):
            if not w.proc.is_alive() and not w.conn.poll(0.0):
                self._fail(
                    f"backend worker {w.rank} died "
                    f"(exit code {w.proc.exitcode})"
                )
            if time.monotonic() > deadline:
                self._fail(
                    f"backend worker {w.rank} timed out after {timeout:.0f}s"
                )
        try:
            msg = w.conn.recv()
        except (EOFError, OSError):
            self._fail(f"backend worker {w.rank} closed its pipe mid-reply")
        if msg[0] == "error":
            self._fail(f"backend worker {w.rank} failed:\n{msg[1]}")
        return msg

    def _send(self, w: _Worker, msg) -> None:
        try:
            w.conn.send(msg)
        except (OSError, ValueError):
            self._fail(f"backend worker {w.rank} is unreachable (dead pipe)")

    # ------------------------------------------------------------------
    def dispatch(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        if self._failed or self._closed:
            raise BackendError("process backend is closed or failed")
        self._workers_pool.note_op()
        eng = self.engine
        eng.shards.tick()
        epoch = eng.shards.collectors[0].epoch
        announcements = self._pending_ann
        self._pending_ann = []
        msg = ("op", op, epoch, payload or {}, announcements)
        owners = [w for w in self._pool if w.units]
        for w in owners:
            self._send(w, msg)
        results: Dict[int, Any] = {}
        for w in owners:
            _, (unit_results, machine_events) = self._recv(w, self.op_timeout)
            results.update(unit_results)
            for mid, events in machine_events:
                col = eng.shards.collectors[mid]
                col.events.extend(events)
                col._seq = max(col._seq, events[-1][1] + 1)
        return [results[u] for u in range(len(eng.runtimes))]

    def shared_array(self, key: str, shape, dtype, fill=None) -> np.ndarray:
        if key in self.shared:
            raise ConfigError(f"shared array {key!r} already allocated")
        arr, name = self._new_segment(key, tuple(shape), dtype, fill=fill)
        self.shared[key] = arr
        if name is not None:
            self._pending_ann.append(
                (key, name, tuple(shape), np.dtype(dtype).str)
            )
        return arr

    def kernel_stats(self) -> KernelStats:
        if self._failed or self._closed:
            raise BackendError("process backend is closed or failed")
        per_unit: Dict[int, KernelStats] = {}
        for w in self._pool:
            self._send(w, ("finalize",))
        for w in self._pool:
            _, stats = self._recv(w, self.op_timeout)
            for unit, ks in stats:
                if ks is not None:
                    per_unit[unit] = ks
        merged = KernelStats.merged(
            per_unit[u] for u in sorted(per_unit)
        )
        # parent facades run no kernels in process mode, but stay in the
        # fold so any parent-side staging cost is never silently dropped
        for rt in self.engine.runtimes:
            if hasattr(rt, "kernel_stats"):
                merged.merge(rt.kernel_stats)
        return merged

    # ------------------------------------------------------------------
    def _await_unbound(self, w: _Worker) -> bool:
        """Wait for a worker's unbind ack; False on any failure.

        Close-path variant of :meth:`_recv`: never raises (``close()``
        runs in ``BaseEngine.run``'s finally and must not mask results).
        """
        deadline = time.monotonic() + min(self.op_timeout, 30.0)
        try:
            while not w.conn.poll(0.1):
                if not w.proc.is_alive():
                    return False
                if time.monotonic() > deadline:
                    return False
            msg = w.conn.recv()
        except (EOFError, OSError):
            return False
        return bool(msg) and msg[0] == "unbound"

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if not self._failed and self._pool:
            # quiesce the workers: drop per-run state, detach segments,
            # then park the healthy ones back in the pool for reuse
            pending: List[_Worker] = []
            dead: List[_Worker] = []
            for w in self._pool:
                try:
                    w.conn.send(("unbind",))
                    pending.append(w)
                except (OSError, ValueError):
                    dead.append(w)
            healthy = []
            for w in pending:
                (healthy if self._await_unbound(w) else dead).append(w)
            self._workers_pool.release([(w.proc, w.conn) for w in healthy])
            self._workers_pool.discard(
                [(w.proc, w.conn) for w in dead], graceful=False
            )
            self._pool = []
        else:
            self._terminate()
        if self._own_pool:
            self._workers_pool.close()
        # copy runtime arrays back to private memory so results stay
        # valid (and poke-able by tests) after the segments are gone
        for rt, key, view in self._runtime_views:
            set_runtime_array(rt, key, np.array(view, copy=True))
        self._runtime_views.clear()
        self.shared.clear()
        self.engine = None  # a finished engine and its backend: no cycle
        for shm in self._segments:
            try:
                shm.close()
            except BufferError:  # a stray external view; unlink anyway
                pass
            try:
                shm.unlink()
            except FileNotFoundError:
                pass
        self._segments.clear()
