"""The ⊕ scatter-reduction (``buf[idx] ⊕= values``) and its sum helpers.

One fold
--------
:func:`scatter_reduce` is ``algebra.ufunc.at(buf, idx, values)``. On
NumPy ≥ 1.25 (the pinned floor) that runs an indexed inner loop — one
memory-bound pass that no per-call regrouping beats (bincount is
1.2–1.85× slower, sort+``reduceat`` 46×; ``docs/performance.md``), so
there is nothing to dispatch on. It returns a kernel label only because
:class:`~repro.kernels.stats.KernelStats` keys on it.

Fold once, apply twice
----------------------
The one structured path left is the *full* sum sweep (every local
source fires, ``dense-full``) feeding two buffers (``message`` and
``deltaMsg``): one ``np.bincount`` computes the per-slot sums, and
:func:`apply_segment_sums` adds them into each buffer. It no longer
wins: on a ``pagerank_powerlaw`` block two ``np.add.at`` are faster at
bootstrap state and about 5× faster on a mid-run buffer, where the
residual refold below dominates (``docs/performance.md``, "Fold once,
apply twice", has the numbers and why it stays). It must stay
**bit-identical** to ``np.add.at`` even though floating-point addition
does not reassociate. It leans on two facts:

* ``np.bincount`` accumulates each bin *sequentially in input order*,
  exactly the per-slot order ``np.add.at`` uses; and
* prepending the +0.0 identity to a fold is exact
  (``fold(+0.0, vs) == fold_bincount(vs)`` operation-for-operation),
  and appending a single value to a non-zero slot is exact
  (``buf + bincount([v]) == buf + v`` since ``x + ±0.0 == x``).

So a slot is *provably exact* under ``buf[slot] += binsum`` when the
slot holds +0.0 (the ⊕-identity every engine buffer is filled with) or
receives exactly one contribution. The rare remaining slots — an
already-accumulated slot hit by several duplicates in one call, e.g.
``deltaMsg`` across lazy micro-iterations — are re-folded through
``np.add.at`` on just their elements, preserving bit-identity at full
speed for the common case.

All helpers operate on float64 buffers (the engines' message dtype).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.config import get_config

__all__ = [
    "monoid_kind",
    "scatter_reduce",
    "segment_sum",
    "apply_segment_sums",
]

# kernel labels returned by scatter_reduce (stable API for stats/tests)
K_GENERIC = "ufunc_at"
K_NOOP = "noop"


def monoid_kind(algebra) -> str:
    """Classify an algebra's ⊕: sum | min | max | generic."""
    uf = algebra.ufunc
    if uf is np.add:
        return "sum"
    if uf is np.minimum:
        return "min"
    if uf is np.maximum:
        return "max"
    return "generic"


def scatter_reduce(algebra, buf: np.ndarray, idx: np.ndarray, values) -> str:
    """``buf[idx] ⊕= values`` with duplicates folded; returns kernel label."""
    if idx.size == 0:
        return K_NOOP
    algebra.ufunc.at(buf, idx, values)
    return K_GENERIC


def apply_segment_sums(
    buf: np.ndarray,
    sums: np.ndarray,
    counts: np.ndarray,
    idx: np.ndarray,
    values: np.ndarray,
) -> None:
    """Fold precomputed per-slot sums into ``buf``, bit-identically.

    ``sums``/``counts`` are the per-slot totals and contribution counts
    of the scatter ``(idx, values)`` (``np.bincount`` outputs, length ≥
    ``buf.size`` slots used). Slots where ``buf[slot] += sums[slot]`` is
    provably exact (see module docstring) take the O(n) vectorized add;
    the rest re-fold their elements through ``np.add.at``. Computing
    ``sums`` once and applying it to several buffers is the
    fold-once/apply-twice path the full (``dense-full``) sweep uses for
    ``message`` and ``deltaMsg``.
    """
    n = buf.size
    counts = counts[:n]
    touched = counts > 0
    # exact cases (see module docstring): slot at the +0.0 identity, or a
    # single contribution into a non-zero slot
    pos_zero = (buf == 0.0) & ~np.signbit(buf)
    safe = touched & (pos_zero | ((counts == 1) & (buf != 0.0)))
    np.add(buf, sums[:n], out=buf, where=safe)
    resid = touched & ~safe
    if resid.any():
        keep = resid[idx]
        np.add.at(buf, idx[keep], values[keep])


def segment_sum(idx: np.ndarray, values: np.ndarray, n: int) -> np.ndarray:
    """Per-slot sum of ``values`` grouped by ``idx`` (fresh identity buffer).

    Equivalent to ``np.add.at(np.zeros(n), idx, values)`` — including
    bit-for-bit, since bincount folds each bin in input order from the
    same +0.0 start, and including the ``IndexError`` for a slot ≥ ``n``
    — but one buffered pass. Used by the single-machine reference
    implementations' inner loops.
    """
    if idx.size == 0:
        return np.zeros(n, dtype=np.float64)
    if get_config().mode == "generic":
        folded = np.zeros(n, dtype=np.float64)
        np.add.at(folded, idx, values)
        return folded
    out = np.bincount(idx, weights=values, minlength=n)
    if out.size > n:
        raise IndexError(
            f"index {out.size - 1} is out of bounds for {n} slots"
        )
    return out
