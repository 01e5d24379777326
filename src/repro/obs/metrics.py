"""Typed metrics primitives: Counter, Gauge, Histogram, and a registry.

:class:`~repro.cluster.stats.RunStats` owns a :class:`MetricsRegistry`
holding the coherency lens's histograms and drift gauge (a run's scalar
annotations are the plain ``RunStats.extra`` dict, not instruments);
the service keeps one for its counters and latency histogram.

Semantics follow the Prometheus conventions:

* :class:`Counter` — monotone accumulate (``inc``);
* :class:`Gauge` — last-write-wins sample (``set``);
* :class:`Histogram` — streaming distribution summary (count/sum/min/
  max) plus fixed-boundary bucket counts.
"""

from __future__ import annotations

import math
from typing import Any, Dict, List, Optional, Sequence, Type, TypeVar, Union

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "RestoredSummary",
    "MetricsRegistry",
    "nearest_rank",
]


def nearest_rank(sorted_values: Sequence[float], q: float) -> float:
    """The sample at rank ``int(q * n)`` of ``sorted_values`` (clamped).

    The one quantile over raw samples: the serve-trace analyzer and the
    telemetry windows both use it, so their quantiles agree byte for
    byte. An empty sample reads 0.0.
    """
    if not sorted_values:
        return 0.0
    idx = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[idx]


class Metric:
    """Common name/description plumbing for all instrument kinds."""

    kind = "metric"

    def __init__(self, name: str, description: str = "") -> None:
        if not name:
            raise ValueError("metric name must be non-empty")
        self.name = name
        self.description = description

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"{type(self).__name__}({self.name}={self.export()!r})"

    def export(self) -> Union[float, Dict[str, float]]:
        raise NotImplementedError


class Counter(Metric):
    """Monotonically-increasing accumulator."""

    kind = "counter"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self.value: float = 0.0

    def inc(self, amount: float = 1.0) -> float:
        """Add ``amount`` (must be >= 0); returns the new value."""
        if amount < 0:
            raise ValueError(
                f"counter {self.name!r} cannot decrease (inc by {amount})"
            )
        self.value += amount
        return self.value

    def export(self) -> float:
        return self.value


class Gauge(Metric):
    """Point-in-time sample; ``set`` overwrites."""

    kind = "gauge"

    def __init__(self, name: str, description: str = "") -> None:
        super().__init__(name, description)
        self.value: float = 0.0

    def set(self, value: float) -> float:
        self.value = float(value)
        return self.value

    def export(self) -> float:
        return self.value


class Histogram(Metric):
    """Streaming distribution: count/sum/min/max + optional buckets.

    ``buckets`` are upper boundaries (a final +inf bucket is implicit).
    ``observe`` is O(len(buckets)) with no stored samples, so it is safe
    on hot paths (per-superstep, per-exchange).
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> None:
        super().__init__(name, description)
        bounds = sorted(buckets) if buckets else []
        self.bounds: List[float] = [float(b) for b in bounds]
        self.bucket_counts: List[int] = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float, count: int = 1) -> None:
        """Record ``value`` seen ``count`` times (weighted observation).

        The weighted form keeps batch recording O(distinct values): the
        coherency lens folds thousands of identical per-replica
        staleness ages into one call per distinct age.
        """
        if count < 1:
            raise ValueError(
                f"histogram {self.name!r}: observation count must be >= 1"
            )
        value = float(value)
        self.count += count
        self.sum += value * count
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.bucket_counts[i] += count
                return
        self.bucket_counts[-1] += count

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Estimate the q-quantile (0 <= q <= 1) from the bucket counts.

        Prometheus-style linear interpolation inside the target bucket,
        with the observed ``min``/``max`` tightening the open-ended
        first/last buckets (so estimates never leave the observed
        range). Bucketless histograms degrade to interpolating between
        ``min`` and ``max`` — only the endpoints are exact there.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if self.count == 0:
            return 0.0
        if not self.bounds:
            if not (math.isfinite(self.min) and math.isfinite(self.max)):
                # ±inf endpoint: inf − inf would poison the interpolation
                return self.min if q < 0.5 else self.max
            return self.min + q * (self.max - self.min)
        target = q * self.count
        cum = 0
        for i, n in enumerate(self.bucket_counts):
            if n == 0:
                continue
            if cum + n >= target:
                lower = self.bounds[i - 1] if i > 0 else self.min
                upper = self.bounds[i] if i < len(self.bounds) else self.max
                lower = max(lower, self.min)
                upper = min(upper, self.max)
                if upper <= lower:
                    return lower
                # non-finite endpoints (±inf observations, or a single
                # count in an open-ended bucket) make the interpolation
                # NaN (inf − inf) — clamp to the finite side instead
                if not math.isfinite(lower):
                    return upper
                if not math.isfinite(upper):
                    return lower
                frac = (target - cum) / n
                return lower + frac * (upper - lower)
            cum += n
        return self.max

    def export(self) -> Dict[str, float]:
        out: Dict[str, float] = {
            "count": float(self.count),
            "sum": self.sum,
            "mean": self.mean,
            "min": self.min if self.count else 0.0,
            "max": self.max if self.count else 0.0,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
        }
        for bound, n in zip(self.bounds + [math.inf], self.bucket_counts):
            out[f"le_{bound:g}"] = float(n)
        return out


class RestoredSummary(Metric):
    """A deserialized histogram: the exported summary dict, verbatim.

    Histograms export a lossy summary (count/sum/quantile estimates and
    bucket tallies — not the raw observations), so a histogram restored
    from an export cannot accept new observations. Storing the exported
    dict as-is instead makes the round trip *exactly* stable:
    ``export() == the dict it was restored from``, including the
    ``le_*`` bucket keys, which is the property result serialization
    (:meth:`repro.runtime.result.EngineResult.to_dict`) relies on.
    """

    kind = "histogram"

    def __init__(
        self,
        name: str,
        description: str = "",
        summary: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__(name, description)
        self.summary: Dict[str, float] = dict(summary or {})

    def export(self) -> Dict[str, float]:
        return dict(self.summary)


M = TypeVar("M", bound=Metric)


class MetricsRegistry:
    """Get-or-create home for named instruments.

    Re-requesting a name returns the same instrument; requesting it as a
    different kind raises — a registry name means one thing for the whole
    run.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(
        self, cls: Type[M], name: str, description: str, **kwargs: Any
    ) -> M:
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, cls):
                raise ValueError(
                    f"metric {name!r} already registered as "
                    f"{existing.kind}, not {cls.kind}"
                )
            return existing
        metric = cls(name, description, **kwargs)
        self._metrics[name] = metric
        return metric

    def counter(self, name: str, description: str = "") -> Counter:
        return self._get_or_create(Counter, name, description)

    def gauge(self, name: str, description: str = "") -> Gauge:
        return self._get_or_create(Gauge, name, description)

    def histogram(
        self,
        name: str,
        description: str = "",
        buckets: Optional[Sequence[float]] = None,
    ) -> Histogram:
        return self._get_or_create(Histogram, name, description, buckets=buckets)

    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def export(self) -> Dict[str, Union[float, Dict[str, float]]]:
        """All instruments as plain JSON-serializable values."""
        return {name: m.export() for name, m in sorted(self._metrics.items())}

    @classmethod
    def from_export(
        cls, exported: Dict[str, Union[float, Dict[str, float]]]
    ) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`export` output.

        The export format erases the Counter/Gauge distinction (both
        export a bare float), so scalars come back as Gauges and summary
        dicts as :class:`RestoredSummary` snapshots. A restored registry
        is a read-only snapshot in spirit: it exports exactly what went
        in, but histogram instruments cannot record further
        observations.
        """
        reg = cls()
        for name, value in exported.items():
            if isinstance(value, dict):
                reg._metrics[name] = RestoredSummary(name, summary=value)
            else:
                reg.gauge(name).set(value)
        return reg
