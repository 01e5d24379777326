"""One pass, one dispatch: how an engine advances all of its runtimes.

Engines never loop over their runtimes themselves — blocks of
consecutive machines for the delta engines, single machines for GAS.
Each pass of their inner loops is one :meth:`SerialBackend.dispatch` of
a per-runtime step (a bound method or closure), run inline on the
engine thread, runtime by runtime in ascending machine order, with the
steps' results returned in that order. All model-time folds stay with
the engine. ``dispatch`` is also the per-micro-iteration call the
benchmark ledger counts (``runtime.machine_calls``).

One backend serves one engine: ``BaseEngine.__init__`` builds it,
``BaseEngine.run`` closes it in a ``finally``. ``close()`` lets go of
the engine, so a finished engine and its backend are not a reference
cycle keeping the partition alive until the cyclic collector runs.
"""

from __future__ import annotations

from typing import Any, Callable, List

import numpy as np

from repro.errors import BackendError

__all__ = ["SerialBackend"]


class SerialBackend:
    """Inline lockstep execution of per-runtime steps."""

    def __init__(self, engine) -> None:
        self.engine = engine

    def dispatch(self, step: Callable[[Any], Any]) -> List[Any]:
        """Run ``step(rt)`` on every runtime; results in runtime order."""
        eng = self.engine
        if eng is None:
            raise BackendError("serial backend is closed")
        return [step(rt) for rt in eng.runtimes]

    def dispatch_work(self, step: Callable[[Any], np.ndarray]) -> np.ndarray:
        """Run a delta step; per-machine ``(edges, applies)`` as ``int64[2, P]``.

        Block order is machine order, so concatenating the blocks' rows
        lines the columns up with machine ids.
        """
        return np.concatenate(self.dispatch(step), axis=1)

    def close(self) -> None:
        """Drop the engine reference. Idempotent."""
        self.engine = None
