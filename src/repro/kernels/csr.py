"""Cached CSR flatten structures and the frontier-adaptive sweep choice.

Both engine families repeatedly expand "the edges of these vertices"
from a grouped-by-key edge list. Doing that per call with
``np.repeat``/``np.cumsum``/``np.arange`` re-derives the same index
arithmetic and allocates fresh buffers every round; a :class:`CSRPlan`
precomputes everything that depends only on the graph — the stable edge
order, the per-key slices, the key/value arrays in sorted order, the
per-target counts of a full sweep — at machine-runtime construction.
It holds no scratch and no run state. Per edge a plan keeps at most the
stable order, the sorted keys and (with ``dst``) the sorted targets,
and over keys that are already sorted — every delta out-plan, since a
partition lays local edges out by source — it keeps none of its own:
the keys and targets are the caller's arrays and the order is the
identity. A session holds its plans as long as the partition, so the
sparse flatten's ``arange`` is built per call rather than cached per
edge.

:meth:`CSRPlan.select` is the push/pull-style mode switch: when the
frontier's edges cover enough of the local CSR (the
``dense_sweep_fraction`` tunable), expanding per-vertex ranges costs
more than sweeping the whole edge list, so the plan returns a dense
selection — no positions at all — instead of the sparse flatten. A
dense sweep visits *every* edge in sorted order; the delta runtime pads
the skipped sources with the ⊕-identity and reads which targets the
frontier reached off the folded values, so nothing here lists the
skipped edges. Sparse positions are in sorted-key order restricted to
the frontier, the same edge order a dense sweep folds in, so downstream
folds are bit-identical across modes.
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
        are precomputed as well.
    tiebreak:
        Optional permutation of the edges: the order edges with equal
        keys keep (default: their order in ``key``).

    Keys that are already non-decreasing, with no ``tiebreak``, are in
    sorted order as given — a partition's local edges are laid out by
    source, so every delta out-plan is one: the order is the identity
    (``eorder`` is None) and ``key_sorted`` / ``dst_sorted`` are
    ``key`` / ``dst`` themselves, so the plan owns no per-edge array.
    Read the order through :meth:`edge_ids` / :meth:`sorted_edges`,
    never ``eorder``.
    """

    def __init__(
        self,
        key: np.ndarray,
        n: int,
        dst: Optional[np.ndarray] = None,
        tiebreak: Optional[np.ndarray] = None,
    ) -> None:
        if key.size and (key.min() < 0 or key.max() >= n):
            raise GraphError(
                f"CSR keys must lie in [0, {n}), found range "
                f"[{key.min()}, {key.max()}]"
            )
        self.eorder: Optional[np.ndarray] = None
        if tiebreak is None and bool(np.all(key[1:] >= key[:-1])):
            self.key_sorted = key
            ds = dst
        else:
            if tiebreak is None:
                order = stable_argsort(key, n)
            else:
                order = tiebreak[stable_argsort(key[tiebreak], n)]
            self.eorder = order
            self.key_sorted = key[order]
            ds = None if dst is None else dst[order]
        self.counts = np.bincount(key, minlength=n).astype(
            np.int64, copy=False
        )
        self.indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(self.counts, out=self.indptr[1:])
        self.num_slots = n
        self.num_edges = int(key.size)
        # slots that own at least one edge — the full sweep's touched set
        self.nonempty_slots = np.flatnonzero(self.counts > 0)
        self.dst_sorted: Optional[np.ndarray] = ds
        self.dst_counts_full: Optional[np.ndarray] = None
        if ds is not None:
            # per-target in-edge counts: the full sweep's segment sizes
            # and touched set
            self.dst_counts_full = np.bincount(ds, minlength=n).astype(np.int64)

    def edge_ids(self, pos: Optional[np.ndarray] = None) -> np.ndarray:
        """Edge ids (indices into ``key``) at the sorted positions
        ``pos``; ``None``: every edge, in sorted order."""
        if self.eorder is None:
            return np.arange(self.num_edges, dtype=np.int64) if pos is None else pos
        return self.eorder if pos is None else self.eorder[pos]

    def sorted_edges(self, values: np.ndarray) -> np.ndarray:
        """A per-edge array in sorted order: ``values`` itself when the
        order is the identity, else one gather."""
        return values if self.eorder is None else values[self.eorder]

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
        * ``mode == "dense"`` — the frontier covers at least
          ``dense_sweep_fraction`` of the edges: sweep every edge in
          sorted order (``pos`` and ``counts`` are None);
        * ``mode == "dense-full"`` — the dense case that skips no edge:
          the frontier covers every edge.

        ``idx`` must be sorted ascending (every engine frontier is — it
        comes from ``np.flatnonzero``) so that sparse positions follow
        sorted-edge order, the order a dense sweep folds in.
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
        mode = DENSE_FULL if total == self.num_edges else DENSE
        return mode, None, None, total
