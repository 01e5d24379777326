"""Shared utilities: seeded RNG management, timers, key sorts."""

from repro.utils.rng import derive_seed, make_rng
from repro.utils.timer import Timer

__all__ = [
    "derive_seed",
    "make_rng",
    "Timer",
]
