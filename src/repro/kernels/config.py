"""Process-wide tunables for the frontier-adaptive sweep selection.

Every ⊕-fold is one ``ufunc.at``: NumPy ≥ 1.25 (the floor
``pyproject.toml`` pins) registers indexed inner loops for ``add``/
``minimum``/``maximum``, so that is already a single memory-bound pass
and nothing here selects a fold kernel. What is left to tune is *which
edges a scatter visits* — the sparse/dense sweep crossover, measured on
this class of host (numbers quoted in ``docs/performance.md``; the
``kernels.sweeps_*`` counters of the ``BENCHMARK.json`` traced run show
which side of it each workload lands on).

``mode="generic"`` pins every sweep decision to the pre-kernel behaviour
(per-call sparse flatten + ``edge_message``, ``np.add.at`` inside
``segment_sum``), which the property suite and the engine-equivalence
matrix use as the bit-identical baseline.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

from repro.errors import ConfigError

__all__ = ["KernelConfig", "get_config", "configured"]

_MODES = ("auto", "generic")


@dataclass(frozen=True)
class KernelConfig:
    """Sweep thresholds; one process-wide instance (see get_config).

    Attributes
    ----------
    mode:
        ``"auto"`` lets scatters pick dense sweeps and hoisted edge
        transforms; ``"generic"`` forces the per-call sparse flatten
        everywhere (baseline measurements).
    dense_sweep_fraction:
        :meth:`repro.kernels.csr.CSRPlan.select` switches from the
        frontier-driven flatten to the dense full-CSR sweep when the
        frontier covers at least this fraction of local edges.
    dense_min_edges:
        Dense sweeps need at least this many local edges to be worth
        the O(E) sweep.
    """

    mode: str = "auto"
    dense_sweep_fraction: float = 0.5
    dense_min_edges: int = 256

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigError(
                f"kernel mode must be one of {_MODES}, got {self.mode!r}"
            )
        if not 0.0 <= self.dense_sweep_fraction:
            raise ConfigError("dense_sweep_fraction must be >= 0")


_config = KernelConfig()


def get_config() -> KernelConfig:
    """The active kernel configuration."""
    return _config


@contextmanager
def configured(**overrides):
    """Temporarily override the active configuration.

    >>> with configured(mode="generic"):
    ...     pass  # every scatter inside takes the sparse-flatten baseline
    """
    global _config
    prev = _config
    _config = replace(prev, **overrides)
    try:
        yield _config
    finally:
        _config = prev
