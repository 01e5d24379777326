"""Lightweight wall-clock timing helper used by the benchmark suite.

These measure *host* time (how long the simulator takes to run), which is
distinct from the *modeled* cluster time reported by
:class:`repro.cluster.stats.RunStats`.
"""

from __future__ import annotations

import time
from typing import Optional


class Timer:
    """Context-manager stopwatch.

    >>> with Timer() as t:
    ...     sum(range(1000))
    499500
    >>> t.elapsed >= 0.0
    True
    """

    def __init__(self) -> None:
        self._start: Optional[float] = None
        self.elapsed: float = 0.0

    def __enter__(self) -> "Timer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def start(self) -> None:
        self._start = time.perf_counter()

    def stop(self) -> float:
        if self._start is None:
            raise RuntimeError("Timer.stop() called before start()")
        self.elapsed = time.perf_counter() - self._start
        self._start = None
        return self.elapsed
