"""The two Apply rules the built-in delta programs share.

* **min-relaxation** (BFS, MSBFS, CC, SSSP): a vertex keeps the least
  value it has heard and fires when an accum strictly improves it; its
  out-delta is the new value.
* **damped sum** (PageRank, PPR): a vertex adds ``damping · accum`` to
  its rank and to a pending change, and fires once the pending change
  exceeds the tolerance; its out-delta is that pending change, which is
  then reset to ``+0.0``.

Both follow the :meth:`~repro.api.vertex_program.DeltaProgram.apply`
contract (``delta_out`` is read only where ``fire``) and stay on
NumPy's fast paths: one gather per state array, one write-back, no
``np.where`` and no mask compress (``docs/performance.md``, "NumPy fast
paths"). ``idx`` is duplicate-free, so a gathered copy stands for the
state it was read from.

Both also take the block form (``idx`` a bool mask over every slot,
``accum`` per slot at the ⊕-identity where the mask is unset), which
runs unindexed over whole arrays and equals the index form bit for bit:

* min-relaxation: ``min(x, +inf) == x`` and ``+inf < x`` is never true,
  so an unflagged slot neither changes nor fires;
* damped sum: ``damping · (+0.0)`` is ``+0.0``, and ``x + 0.0 == x``
  for every ``x`` but ``-0.0``. No ``vdata`` / ``pending`` slot ever
  holds ``-0.0``: both start at a non-negative value, ``pending`` is
  reset to ``+0.0``, and every other write is ``+= change``, which is
  ``-0.0`` only when both terms are. ``fire &= flags`` keeps an
  unflagged slot from firing on a ``pending`` over the tolerance.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.api.vertex_program import DeltaProgram, MIN_ALGEBRA, SUM_ALGEBRA
from repro.errors import AlgorithmError
from repro.partition.partitioned_graph import MachineGraph

__all__ = ["min_relax", "damped_sum", "MinRelaxProgram", "DampedSumProgram"]


def min_relax(
    value: np.ndarray, idx: np.ndarray, accum: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """``value[idx] = min(value[idx], accum)``; fire where it improved."""
    if idx.dtype == bool:  # the block form: idx is the ready mask
        fire = accum < value
        np.minimum(value, accum, out=value)
        return value, fire
    new = value[idx]
    fire = accum < new
    np.minimum(new, accum, out=new)
    value[idx] = new
    return new, fire


def damped_sum(
    rank: np.ndarray,
    pending: np.ndarray,
    idx: np.ndarray,
    accum: np.ndarray,
    damping: float,
    tolerance: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """Fold ``damping · accum`` into ``rank`` and ``pending`` at ``idx``;
    fire where ``|pending| > tolerance`` and reset those to ``+0.0``."""
    change = damping * accum
    if idx.dtype == bool:  # the block form: idx is the ready mask
        rank += change
        pending += change
        fire = np.abs(pending) > tolerance
        fire &= idx
        delta_out = pending.copy()
        pending[np.flatnonzero(fire)] = 0.0
        return delta_out, fire
    rank[idx] += change
    delta_out = pending[idx]
    delta_out += change
    fire = np.abs(delta_out) > tolerance
    # the fired mass is handed to scatter; the rest stays pending
    kept = delta_out.copy()
    kept[np.flatnonzero(fire)] = 0.0
    pending[idx] = kept
    return delta_out, fire


class MinRelaxProgram(DeltaProgram):
    """Base of the (ℝ∪{∞}, min) programs: Apply is :func:`min_relax`
    over ``state["vdata"]``."""

    algebra = MIN_ALGEBRA
    supports_warm_start = True
    block_apply = True

    def apply(
        self,
        mg: MachineGraph,
        state: Dict[str, np.ndarray],
        idx: np.ndarray,
        accum: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return min_relax(state["vdata"], idx, accum)


class DampedSumProgram(DeltaProgram):
    """Base of the (ℝ, +) rank programs (PageRank, PPR).

    ``state`` holds ``vdata`` (the rank) and ``pending`` (the change not
    yet scattered); Apply is :func:`damped_sum`, and a scattered change
    is divided by the source's global out-degree.
    """

    algebra = SUM_ALGEBRA
    supports_warm_start = True
    block_apply = True

    def __init__(self, damping: float, tolerance: float) -> None:
        if not 0.0 < damping < 1.0:
            raise AlgorithmError(f"damping must be in (0, 1), got {damping}")
        if tolerance <= 0.0:
            raise AlgorithmError(f"tolerance must be > 0, got {tolerance}")
        self.damping = damping
        self.tolerance = tolerance

    def apply(
        self,
        mg: MachineGraph,
        state: Dict[str, np.ndarray],
        idx: np.ndarray,
        accum: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        return damped_sum(
            state["vdata"], state["pending"], idx, accum,
            self.damping, self.tolerance,
        )

    def edge_transform(
        self, mg: MachineGraph
    ) -> Optional[Tuple[str, Optional[np.ndarray]]]:
        return ("divide_source", mg.out_deg_global)
