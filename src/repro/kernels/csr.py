"""Cached CSR flatten structures and the frontier-adaptive sweep choice.

Both engine families repeatedly expand "the edges of these vertices"
from a grouped-by-key edge list. Doing that per call with
``np.repeat``/``np.cumsum``/``np.arange`` re-derives the same index
arithmetic and allocates fresh buffers every round; a :class:`CSRPlan`
precomputes everything that depends only on the graph — the stable edge
order, the per-key slices, the key/value arrays in sorted order, the
per-target counts of a full sweep — plus reusable slot-sized scratch,
at machine-runtime construction. Per edge a plan keeps exactly the
stable order, the sorted keys and (with ``dst``) the sorted targets: a
session holds its plans as long as the partition, so the sparse
flatten's ``arange`` is built per call rather than cached per edge.

:meth:`CSRPlan.select` is the push/pull-style mode switch: when the
frontier's edges cover enough of the local CSR (the
``dense_sweep_fraction`` tunable), expanding per-vertex ranges costs
more than sweeping the whole edge list with a boolean mask (or, for a
full frontier, no mask at all), so the plan returns the dense selection
instead of the sparse flatten. Positions are always returned in
sorted-key order restricted to the frontier — the same edge order the
sparse flatten produces for ascending ``idx`` — so downstream folds are
bit-identical across modes.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.kernels.config import get_config
from repro.utils.keysort import stable_argsort

__all__ = ["CSRPlan"]

SPARSE = "sparse"
DENSE = "dense"
DENSE_FULL = "dense-full"


class CSRPlan:
    """Grouped view of an edge list keyed by one endpoint.

    Parameters
    ----------
    key:
        Per-edge grouping key (local source index for out-CSRs, local
        target index for in-CSRs).
    n:
        Number of key slots (local vertices).
    dst:
        Optional per-edge companion array (the other endpoint); when
        given, ``dst_sorted`` and the full sweep's per-target counts
        and touched-target set are precomputed as well.
    """

    def __init__(
        self, key: np.ndarray, n: int, dst: Optional[np.ndarray] = None
    ) -> None:
        if key.size and (key.min() < 0 or key.max() >= n):
            raise GraphError(
                f"CSR keys must lie in [0, {n}), found range "
                f"[{key.min()}, {key.max()}]"
            )
        order = stable_argsort(key, n)
        self.eorder = order
        self.key_sorted = key[order]
        self.counts = np.bincount(key, minlength=n).astype(
            np.int64, copy=False
        )
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.indptr[1:])
        self.num_slots = n
        self.num_edges = int(order.size)
        # slots that own at least one edge — the full sweep's touched set
        self.nonempty_slots = np.flatnonzero(self.counts > 0)
        self._mask_scratch = np.zeros(n, dtype=bool)
        self.dst_sorted: Optional[np.ndarray] = None
        self.dst_counts_full: Optional[np.ndarray] = None
        self.dst_targets: Optional[np.ndarray] = None
        if dst is not None:
            ds = dst[order]
            self.dst_sorted = ds
            # per-target contribution counts of a full sweep, for the
            # fold-once/apply-twice sum path (apply_segment_sums)
            self.dst_counts_full = np.bincount(ds, minlength=n).astype(np.int64)
            # targets a full sweep touches, ascending (for has_msg flags)
            self.dst_targets = np.flatnonzero(self.dst_counts_full[:n] > 0)

    # ------------------------------------------------------------------
    def _expand(
        self, starts: np.ndarray, counts: np.ndarray, total: int
    ) -> np.ndarray:
        """Edge positions of the per-vertex ranges ``[starts, starts+counts)``."""
        if total == 0:
            return np.empty(0, dtype=np.int64)
        # an edge's position is its range's start plus its rank in the
        # range, i.e. (start - the range's first output slot) repeated,
        # plus the output slot: one repeat and one in-place add
        pos = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        pos += np.arange(total, dtype=np.int64)
        return pos

    def flatten(self, idx: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Sparse expansion: positions (into sorted order) of ``idx``'s
        edges, plus the per-vertex counts. Positions preserve the order
        of ``idx`` and, within a vertex, sorted-edge order."""
        starts = self.indptr[idx]
        counts = self.indptr[idx + 1] - starts
        return self._expand(starts, counts, int(counts.sum())), counts

    def select(
        self, idx: np.ndarray
    ) -> Tuple[str, Optional[np.ndarray], Optional[np.ndarray], int]:
        """Frontier-adaptive edge selection for the vertices ``idx``.

        Returns ``(mode, pos, counts, total)``:

        * ``mode == "sparse"`` — ``pos`` are the frontier's edge
          positions from :meth:`flatten`, ``counts`` the per-vertex
          edge counts (for ``np.repeat``-style payload expansion);
        * ``mode == "dense"`` — ``pos`` from one boolean sweep over the
          whole CSR (``counts`` is None; expand payloads via a full
          per-slot array instead);
        * ``mode == "dense-full"`` — the frontier covers every edge;
          ``pos`` is None meaning "all edges in sorted order".

        ``idx`` must be sorted ascending (every engine frontier is — it
        comes from ``np.flatnonzero``) so that all three modes emit
        edges in the same order.
        """
        cfg = get_config()
        counts = self.counts[idx]
        total = int(counts.sum())
        if total == 0:
            return SPARSE, np.empty(0, dtype=np.int64), counts, 0
        dense_ok = (
            cfg.mode != "generic"
            and self.num_edges >= cfg.dense_min_edges
            and total >= cfg.dense_sweep_fraction * self.num_edges
        )
        if not dense_ok:
            pos = self._expand(self.indptr[idx], counts, total)
            return SPARSE, pos, counts, total
        if total == self.num_edges:
            return DENSE_FULL, None, None, total
        mask = self._mask_scratch
        mask[:] = False
        mask[idx] = True
        pos = np.flatnonzero(mask[self.key_sorted])
        return DENSE, pos, None, total
