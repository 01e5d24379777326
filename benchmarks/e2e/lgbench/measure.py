"""Timing discipline: a host-speed reference and drift-corrected samples.

The recording host is a 2-vCPU VM whose effective speed changes by
30-80 % for a minute at a time (no steal time shows; a fixed kernel
simply runs slower). A raw wall-clock median of a 20 s run therefore
moves by more than any useful regression bound from one run to the
next. Every gated host time is *drift-corrected* instead: a fixed
reference kernel runs immediately before and after each timed sample
and the sample is divided by how much slower than nominal the
reference ran. On a quiet host the factor is 1 and a corrected second
is a wall second; recorded run-to-run spreads shrink 2-3x (README,
"Noise"). The reference blends the three costs the program is made of
— interpreter work, many small NumPy calls, large gathers + folds — and
its constants are part of the benchmark: changing them changes every
timing and needs a new baseline.
"""

from __future__ import annotations

import gc
import math
import resource
import statistics
import time
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "HostReference", "Sampler", "BLEND", "SMALL_CALLS", "median",
    "percentile", "peak_rss_mb",
]

#: quiet-host seconds of the three reference kernels on the recording
#: host (lower quartile over a 15 min recording)
_NOMINAL = {"py": 0.045, "small": 0.045, "gather": 0.042}


class HostReference:
    """Three fixed kernels; ``ratios()`` is host slowness vs nominal."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        v, e = 50_000, 650_000
        self._src = rng.integers(0, v, e)
        self._dst = rng.integers(0, v, e)
        self._val = rng.random(v)
        self._small = rng.random(500)
        self._mask = self._small > 0.5
        self.samples_ms: List[float] = []

    def _py(self) -> None:
        d: Dict[int, int] = {}
        s = 0
        for i in range(400_000):
            d[i & 1023] = i
            s += i * i

    def _small_calls(self) -> None:
        small, mask = self._small, self._mask
        for _ in range(5000):
            idx = np.flatnonzero(mask)
            np.cumsum(np.take(small, idx))
            np.repeat(idx, 2)

    def _gather(self) -> None:
        for _ in range(15):
            m = self._val[self._src]
            np.bincount(self._dst, weights=m, minlength=self._val.size)

    def ratios(self) -> Tuple[float, float, float]:
        """Each kernel's time over its nominal time: (py, small, gather)."""
        out = []
        total = 0.0
        for name, fn in (
            ("py", self._py), ("small", self._small_calls),
            ("gather", self._gather),
        ):
            t0 = time.perf_counter()
            fn()
            dt = time.perf_counter() - t0
            total += dt
            out.append(dt / _NOMINAL[name])
        self.samples_ms.append(total * 1e3)
        return tuple(out)

    @property
    def calib_ms(self) -> float:
        """Median wall of one reference pass (slow host => larger)."""
        return median(self.samples_ms) if self.samples_ms else 0.0


#: which kernels a sample kind's slow-down follows (weights on the log
#: of the py / small / gather ratios). Dense PageRank sweeps and
#: mutation batches (large-array rebuilds plus interpreter work) follow
#: the even blend; what is made of many small calls — set-up, sparse
#: SSSP steps, served queries — follows the small-call kernel alone
#: (README, "Noise", has the recordings).
BLEND = (1 / 3, 1 / 3, 1 / 3)
SMALL_CALLS = (0.0, 1.0, 0.0)


class Sampler:
    """Timed samples bracketed by reference passes.

    ``sample(kind, fn)`` runs ``gc.collect()``, times ``fn`` and stores
    raw and corrected seconds under ``kind``; the reference pass after
    one sample doubles as the pass before the next. ``mixes`` maps a
    sample kind to its kernel weights (default :data:`SMALL_CALLS`).
    """

    def __init__(self, ref: HostReference, mixes=None) -> None:
        self.ref = ref
        self.mixes = dict(mixes or {})
        self._last = (1.0, 1.0, 1.0)
        self._last_at: float = -1.0
        self.raw: Dict[str, List[float]] = {}
        self.corrected: Dict[str, List[float]] = {}

    def _before(self) -> Tuple[float, float, float]:
        # reuse the previous "after" pass when nothing ran in between
        if time.perf_counter() - self._last_at < 0.05:
            return self._last
        return self.ref.ratios()

    def _after(self) -> Tuple[float, float, float]:
        self._last = self.ref.ratios()
        self._last_at = time.perf_counter()
        return self._last

    def bracket(self, fn: Callable[[], object]):
        """Run ``fn`` between two reference passes.

        Returns ``(fn's result, wall seconds, host ratios)``; the ratios
        are the mean of the passes before and after.
        """
        r0 = self._before()
        gc.collect()
        t0 = time.perf_counter()
        out = fn()
        wall = time.perf_counter() - t0
        r1 = self._after()
        return out, wall, tuple(0.5 * (a + b) for a, b in zip(r0, r1))

    def sample(self, kind: str, fn: Callable[[], object]):
        out, wall, ratios = self.bracket(fn)
        self.add(kind, wall, ratios)
        return out

    def factor(self, kind: str, ratios) -> float:
        """How much slower than nominal the host ran, for this kind."""
        mix = self.mixes.get(kind, SMALL_CALLS)
        return math.exp(sum(w * math.log(r) for w, r in zip(mix, ratios)))

    def add(self, kind: str, wall: float, ratios) -> None:
        self.raw.setdefault(kind, []).append(wall)
        self.corrected.setdefault(kind, []).append(
            wall / self.factor(kind, ratios)
        )

    def median(self, kind: str) -> float:
        return median(self.corrected[kind])

    def mean(self, kind: str) -> float:
        return float(statistics.fmean(self.corrected[kind]))

    def raw_median(self, kind: str) -> float:
        return median(self.raw[kind])

    def count(self, kind: str) -> int:
        return len(self.raw.get(kind, ()))


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(values: Sequence[float], q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
