"""Exception hierarchy for the :mod:`repro` package.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors (``TypeError`` etc. are still raised
directly for API misuse that indicates a bug in the caller).
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class GraphError(ReproError):
    """Raised for malformed or inconsistent graph data."""


class GraphFormatError(GraphError):
    """Raised when a graph file cannot be parsed."""


class PartitionError(ReproError):
    """Raised when a partitioning request is invalid or inconsistent."""


class EngineError(ReproError):
    """Raised when an engine is configured or driven incorrectly."""


class ConvergenceError(EngineError):
    """Raised when an algorithm fails to converge within its budget."""


class BackendError(EngineError):
    """Raised when an op is dispatched on a closed execution backend."""


class AlgorithmError(ReproError):
    """Raised for invalid vertex-program definitions or parameters."""


class DatasetError(ReproError):
    """Raised when a named dataset is unknown or cannot be built."""


class ConfigError(ReproError):
    """Raised when an experiment/benchmark configuration is invalid."""
