"""Stable key sorts at the width of the key space.

Every grouping structure the set-up and mutation paths build — a
:class:`~repro.kernels.CSRPlan`, a graph's out-/in-CSR, the partition's
``vertex * P + machine`` pair table — sorts non-negative integer keys
whose upper bound is known: a local slot count, ``n``, ``n * P``.
NumPy's stable sort of ``int64`` is a timsort; of a 16-bit (or
narrower) integer it is a radix sort, an order of magnitude faster on
these sizes. A stable order is unique, so sorting the same keys at a
narrower width yields the identical permutation.

The width rule, one path per call, chosen from ``bound`` alone: one
``uint16`` radix pass when ``bound <= 2**16``, NumPy's own stable sort
of the keys as given above that.

:func:`unique_counts` counts with ``np.bincount`` when the key space is
no larger than the array (``bound <= keys.size``) and falls back to
``np.unique`` otherwise, so a sparse key space never allocates a
``bound``-sized count array.

:func:`isin_sorted` is ``np.isin`` against a table that is already
sorted: one binary search per key, where NumPy 2.4's ``np.isin`` would
hash both arrays through ``np.unique``.

The test oracles — ``algorithms/reference.py``'s k-core CSR and
``tests/greedy_cut_oracle.py`` — keep NumPy's own sorts on purpose: an
oracle must not share the code it checks.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["isin_sorted", "stable_argsort", "unique_counts"]

_ONE_PASS = 1 << 16


def stable_argsort(keys: np.ndarray, bound: int) -> np.ndarray:
    """``np.argsort(keys, kind="stable")`` as an ``int64`` permutation.

    ``keys`` are integers in ``[0, bound)``; the caller owns that
    contract (a key outside it sorts wrongly, it is not detected here).
    """
    keys = np.asarray(keys)
    if bound <= _ONE_PASS:
        order = np.argsort(keys.astype(np.uint16), kind="stable")
    else:
        order = np.argsort(keys, kind="stable")
    return order.astype(np.int64, copy=False)


def unique_counts(
    keys: np.ndarray, bound: int
) -> Tuple[np.ndarray, np.ndarray]:
    """``np.unique(keys, return_counts=True)`` for keys in ``[0, bound)``.

    The unique keys keep ``keys``' dtype; the counts are ``int64``.
    """
    keys = np.asarray(keys)
    if bound <= keys.size:
        counts = np.bincount(keys)
        uniq = np.flatnonzero(counts)
        return uniq.astype(keys.dtype, copy=False), counts[uniq].astype(
            np.int64, copy=False
        )
    uniq, counts = np.unique(keys, return_counts=True)
    return uniq, counts.astype(np.int64, copy=False)


def isin_sorted(keys: np.ndarray, table: np.ndarray) -> np.ndarray:
    """``np.isin(keys, table)`` for an ascending ``table``.

    The caller owns the order (an unsorted table answers wrongly, it is
    not detected here).
    """
    if table.size == 0:
        return np.zeros(np.shape(keys), dtype=bool)
    pos = np.searchsorted(table, keys)
    # a key above the last entry lands past the end; its clamped
    # neighbour is smaller, so the comparison below is False
    np.minimum(pos, table.size - 1, out=pos)
    return table[pos] == keys
