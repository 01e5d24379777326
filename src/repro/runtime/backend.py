"""The op seam: how an engine advances all of its runtimes at once.

Engines never loop over their runtimes themselves — blocks of
consecutive machines for the delta engines, single machines for GAS.
Each pass of their inner loops is one :meth:`SerialBackend.dispatch` of
a named op (:mod:`repro.runtime.machine_ops`), which runs the op's
handler inline on the engine thread, runtime by runtime in ascending
machine order, and returns the handlers' results in that order. All
model-time folds stay with the engine. ``dispatch`` is also the
per-micro-iteration call the benchmark ledger counts
(``runtime.machine_calls``).

One backend serves one engine: ``BaseEngine.__init__`` builds it,
``BaseEngine.run`` closes it in a ``finally``. ``close()`` lets go of
the engine, so a finished engine and its backend are not a reference
cycle keeping the partition alive until the cyclic collector runs.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import BackendError
from repro.runtime.machine_ops import OP_HANDLERS, OpContext

__all__ = ["SerialBackend"]


class SerialBackend:
    """Inline lockstep execution of per-runtime ops."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self._ctx = OpContext(tracer=engine.tracer, net=engine.sim.network)

    def dispatch(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> List[Any]:
        """Run ``op`` on every runtime; results in runtime order."""
        eng = self.engine
        if eng is None:
            raise BackendError("serial backend is closed")
        handler = OP_HANDLERS[op]
        payload = payload or {}
        return [handler(rt, self._ctx, payload) for rt in eng.runtimes]

    def dispatch_work(
        self, op: str, payload: Optional[Dict[str, Any]] = None
    ) -> np.ndarray:
        """Run a delta op; per-machine ``(edges, applies)`` as ``int64[2, P]``.

        Block order is machine order, so concatenating the blocks' rows
        lines the columns up with machine ids.
        """
        return np.concatenate(self.dispatch(op, payload), axis=1)

    def close(self) -> None:
        """Drop the engine reference. Idempotent."""
        self.engine = None
