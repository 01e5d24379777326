"""Pluggable execution backends: where the runtimes' compute actually runs.

Engines drive their runtimes — blocks of consecutive machines for the
delta engines, single machines for GAS — through an
:class:`ExecutionBackend`:

* :class:`SerialBackend` — the default. Runs every op inline on the
  engine thread, runtime by runtime in ascending machine order.
* :class:`~repro.runtime.process_backend.ProcessBackend` — a persistent
  pool of spawn-safe worker processes. Each worker owns a group of
  runtimes whose arrays live in ``multiprocessing.shared_memory``, so
  the parent-side exchange plane / coherency / lens read and write the
  *same* data the workers compute on; only op commands, small results,
  and :class:`MachineCollector` event buffers cross the process
  boundary at barriers and coherency points.

The backend contract (see :mod:`repro.runtime.machine_ops`):

* ``dispatch(op, payload)`` advances the shard epoch, runs the op on
  every runtime, and returns the handlers' results in runtime order
  (= ascending machine order). ``dispatch_work`` is the delta engines'
  form: the blocks' per-machine ``(edges, applies)`` rows concatenated
  into ``int64[2, P]``. All model-time folds stay with the engine.
* ``shared_array(key, ...)`` allocates a cross-machine array both sides
  can see (plain NumPy for serial, shared memory for processes).
* Backends are single-use: ``bind()`` once to one engine, ``close()``
  when the run finishes (``BaseEngine.run`` does this in a finally).
  ``close()`` lets go of the engine, so a finished engine and its
  backend are not a reference cycle keeping the partition alive until
  the cyclic collector runs.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.errors import BackendError, ConfigError
from repro.kernels.stats import KernelStats
from repro.runtime.machine_ops import OpContext, run_op

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "resolve_backend",
    "BACKEND_NAMES",
]

BACKEND_NAMES: Tuple[str, ...] = ("serial", "process")


def op_contexts(runtimes, collectors, net, shared) -> List[OpContext]:
    """One :class:`OpContext` per runtime, over per-machine collectors.

    ``collectors`` maps machine id → collector (a list or a dict); each
    runtime gets the collectors of the machines its graph covers.
    """
    return [
        OpContext(
            machine_id=rt.mg.machine_id,
            collectors=[collectors[m] for m in rt.mg.machine_ids],
            net=net,
            shared=shared,
        )
        for rt in runtimes
    ]


class ExecutionBackend(abc.ABC):
    """Where an engine's per-runtime ops execute."""

    name: str = "abstract"

    def __init__(self) -> None:
        self.engine = None

    @abc.abstractmethod
    def bind(self, engine) -> None:
        """Attach to one engine (called once, from ``BaseEngine.__init__``)."""

    @abc.abstractmethod
    def dispatch(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        """Run ``op`` on every runtime; results in runtime order."""

    def dispatch_work(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> np.ndarray:
        """Run a delta op; per-machine ``(edges, applies)`` as ``int64[2, P]``.

        Block order is machine order, so concatenating the blocks' rows
        lines the columns up with machine ids.
        """
        return np.concatenate(self.dispatch(op, payload), axis=1)

    @abc.abstractmethod
    def shared_array(
        self, key: str, shape, dtype, fill=None
    ) -> np.ndarray:
        """Allocate a cross-machine array visible to engine and workers."""

    @abc.abstractmethod
    def kernel_stats(self) -> KernelStats:
        """Merged per-machine kernel stats, folded in global machine order."""

    @abc.abstractmethod
    def close(self) -> None:
        """Release workers/segments. Idempotent; safe after failures."""


class SerialBackend(ExecutionBackend):
    """Inline lockstep execution — the bit-exactness reference."""

    name = "serial"

    def __init__(self) -> None:
        super().__init__()
        self.shared: Dict[str, np.ndarray] = {}
        self._ctxs: List[OpContext] = []

    def bind(self, engine) -> None:
        if self.engine is not None:
            raise ConfigError("backend is already bound to an engine")
        self.engine = engine
        self._ctxs = op_contexts(
            engine.runtimes, engine.shards.collectors, engine.sim.network,
            self.shared,
        )

    def dispatch(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        eng = self.engine
        if eng is None:
            raise BackendError("serial backend is closed (or was never bound)")
        eng.shards.tick()
        payload = payload or {}
        return [
            run_op(op, rt, ctx, payload)
            for rt, ctx in zip(eng.runtimes, self._ctxs)
        ]

    def shared_array(self, key: str, shape, dtype, fill=None) -> np.ndarray:
        if key in self.shared:
            raise ConfigError(f"shared array {key!r} already allocated")
        arr = np.empty(shape, dtype=dtype)
        if fill is not None:
            arr.fill(fill)
        self.shared[key] = arr
        return arr

    def kernel_stats(self) -> KernelStats:
        return KernelStats.merged(
            rt.kernel_stats
            for rt in self.engine.runtimes
            if hasattr(rt, "kernel_stats")
        )

    def close(self) -> None:
        self.engine = None
        self._ctxs = []


def resolve_backend(
    value, workers: Optional[int] = None, seed: int = 0, pool=None
) -> ExecutionBackend:
    """Coerce a backend spec (name / instance / None) into a backend.

    ``None`` and ``"serial"`` give the inline lockstep backend;
    ``"process"`` gives a spawn-safe worker pool with ``workers``
    processes (defaults to the host CPU count, capped at the machine
    count). ``workers`` is only meaningful for the process backend.
    ``pool`` optionally hands a process backend a shared
    :class:`~repro.runtime.process_backend.WorkerPool` (kept warm by a
    :class:`~repro.session.GraphSession`) instead of a private one;
    it is ignored for serial and pre-built backends.
    """
    if isinstance(value, ExecutionBackend):
        return value
    if value is None or value == "serial":
        if workers is not None:
            raise ConfigError(
                "workers= requires the process backend (backend='process')"
            )
        return SerialBackend()
    if value == "process":
        from repro.runtime.process_backend import ProcessBackend

        return ProcessBackend(workers=workers, seed=seed, pool=pool)
    raise ConfigError(
        f"unknown backend {value!r}; expected one of {BACKEND_NAMES}"
    )
