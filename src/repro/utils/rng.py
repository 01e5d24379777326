"""Deterministic random-number management.

Everything random in this library (graph generation, random partitioning,
tie breaking) flows through a :class:`numpy.random.Generator` created here,
so that a single integer seed reproduces an entire experiment bit-for-bit.

Independent subsystems should not share one generator — drawing numbers in
one would perturb the other. :func:`derive_seed` derives stable child seeds
from a parent seed and a string label.
"""

from __future__ import annotations

import zlib
from typing import Union

import numpy as np

SeedLike = Union[int, np.random.Generator, None]

_DEFAULT_SEED = 0x5A2E_61AF


def derive_seed(parent_seed: int, label: str) -> int:
    """Derive a stable 63-bit child seed from ``parent_seed`` and ``label``.

    The derivation uses CRC32 over the label mixed with the parent seed via
    splitmix64-style avalanching, so distinct labels give well-separated
    child seeds and the mapping is stable across Python/NumPy versions
    (unlike ``hash()``, which is salted per process).
    """
    x = (parent_seed ^ (zlib.crc32(label.encode("utf-8")) * 0x9E3779B97F4A7C15)) & (
        2**64 - 1
    )
    # splitmix64 finalizer
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & (2**64 - 1)
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & (2**64 - 1)
    x = x ^ (x >> 31)
    return int(x & (2**63 - 1))


def make_rng(seed: SeedLike = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    ``None`` maps to a fixed library-wide default seed — this library is
    a reproduction harness, so *unseeded* still means *deterministic*.
    An existing ``Generator`` is passed through unchanged.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if seed is None:
        seed = _DEFAULT_SEED
    if not isinstance(seed, (int, np.integer)):
        raise TypeError(f"seed must be int, Generator or None, got {type(seed)!r}")
    return np.random.default_rng(int(seed))
