"""Shared engine runtime: per-machine buffers, kernels, results.

Both engine families (eager :mod:`repro.powergraph` and lazy
:mod:`repro.core`) drive the same per-machine runtime —
:class:`MachineRuntime` holds the paper's runtime variables
(``vdata``, ``message[v]``, ``deltaMsg[v]``, ``isActive[v]``) and the
vectorized Apply/Scatter kernels; :class:`EngineResult` assembles global
results and exposes the replica-agreement check used to test the
paper's §3.5 correctness theorem; what is still *pending* between
replicas mid-run has one reader,
:class:`repro.runtime.result.ReplicaReader`. Engines advance their
runtimes one pass at a time: each pass is one
:meth:`repro.runtime.backend.SerialBackend.dispatch` of a runtime's own
step method.
"""

from repro.runtime.machine_runtime import MachineRuntime
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig
from repro.runtime.backend import SerialBackend
from repro.runtime.base_engine import BaseEngine
from repro.runtime.registry import (
    EngineSpec,
    engine_names,
    engine_specs,
    get_engine,
    register,
)

__all__ = [
    "MachineRuntime",
    "EngineResult",
    "RunConfig",
    "BaseEngine",
    "EngineSpec",
    "engine_names",
    "engine_specs",
    "get_engine",
    "register",
    "SerialBackend",
]
