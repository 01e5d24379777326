"""Hot-path kernels for the simulator's NumPy core.

Every message fold in every engine is a *scatter-reduction*: combine
``values`` into ``buf`` at positions ``idx`` with the program's ⊕,
folding duplicate indices. :func:`scatter_reduce` spells that as one
``ufunc.at`` (an indexed inner loop on the pinned NumPy ≥ 1.25); the
only structured fold is the full sum sweep, where one ``np.bincount``
feeds several target buffers bit-identically
(:func:`apply_segment_sums`, see :mod:`repro.kernels.segment_reduce`
for the argument).

The bigger structural win lives in :class:`~repro.kernels.csr.CSRPlan`:
cached CSR flatten structures (edge order, per-source slices, per-slot
counts) and the frontier-adaptive sparse/dense sweep decision used by
:class:`~repro.runtime.machine_runtime.MachineRuntime` — a dense sweep
visits every edge, pads the frontier's complement with the ⊕-identity,
computes no positions at all and reads the targets it reached off the
folded values, so it never lists the skipped edges.

Sweep selection is governed by the process-wide :class:`KernelConfig`
(:func:`configured` temporarily overrides it; ``mode="generic"``
forces the old per-call-flatten path everywhere, which is how the
bench harness measures old-vs-new).
"""

from repro.kernels.config import KernelConfig, configured, get_config
from repro.kernels.csr import CSRPlan
from repro.kernels.segment_reduce import (
    apply_segment_sums,
    monoid_kind,
    scatter_reduce,
    segment_sum,
)
from repro.kernels.stats import KernelStats

__all__ = [
    "KernelConfig",
    "configured",
    "get_config",
    "CSRPlan",
    "scatter_reduce",
    "segment_sum",
    "apply_segment_sums",
    "monoid_kind",
    "KernelStats",
]
