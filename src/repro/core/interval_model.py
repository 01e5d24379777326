"""Adaptive interval between data coherency points (paper §4.2.1).

How long should replica coherency be delayed? The paper trains a
decision-tree classifier over two features and reports the learned rule;
we implement that rule directly (and keep the trainable machinery in
:func:`fit_interval_rule` for the ablation bench):

* **turnOnLazy()** — lazy mode turns on iff
  ``E/V <= 10  or  trend >= 0.07``, where
  ``trend = (cnt_{t-1} − cnt_t) / cnt_{t-1}`` is the relative decrease
  of the active-vertex count between coherency points. Intuition: poor
  locality (high E/V) in the *ascent* phase (growing frontier) needs
  frequent synchronization; descent phases and local graphs do not.
* **doLC()** — a local computation stage may run for at most
  ``3·T``, where ``T`` is the modeled time of the stage's first
  micro-iteration (measured online).

Alternative strategies used in Fig 8(a)'s comparison:

* :class:`SimpleIntervalModel` — lazy always on, every local stage runs
  to local quiescence;
* :class:`NeverLazyModel` — lazy never on (every superstep is a
  coherency point; isolates the 3-syncs→1-sync saving from laziness).
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.errors import ConfigError

__all__ = [
    "IntervalModel",
    "AdaptiveIntervalModel",
    "SimpleIntervalModel",
    "NeverLazyModel",
    "make_interval_model",
    "fit_interval_rule",
]


class IntervalModel(abc.ABC):
    """Strategy deciding lazy-mode activation and local-stage budgets."""

    name = "abstract"

    @abc.abstractmethod
    def turn_on_lazy(self, ev_ratio: float, trend: float) -> bool:
        """Should the next iteration run a local computation stage?"""

    @abc.abstractmethod
    def local_budget(self, first_iteration_time: float) -> float:
        """Max modeled seconds the local stage may run (∞ = to quiescence)."""


@dataclass(frozen=True)
class AdaptiveIntervalModel(IntervalModel):
    """The paper's learned input-behaviour-interval rule."""

    ev_threshold: float = 10.0
    trend_threshold: float = 0.07
    budget_multiplier: float = 3.0

    name = "adaptive"

    def turn_on_lazy(self, ev_ratio: float, trend: float) -> bool:
        return ev_ratio <= self.ev_threshold or trend >= self.trend_threshold

    def local_budget(self, first_iteration_time: float) -> float:
        return self.budget_multiplier * first_iteration_time


@dataclass(frozen=True)
class SimpleIntervalModel(IntervalModel):
    """Fig 8(a)'s strawman: always lazy, local stage runs to convergence."""

    name = "simple"

    def turn_on_lazy(self, ev_ratio: float, trend: float) -> bool:
        return True

    def local_budget(self, first_iteration_time: float) -> float:
        return math.inf


@dataclass(frozen=True)
class NeverLazyModel(IntervalModel):
    """Coherency at every superstep (no local stages at all)."""

    name = "never"

    def turn_on_lazy(self, ev_ratio: float, trend: float) -> bool:
        return False

    def local_budget(self, first_iteration_time: float) -> float:
        return 0.0


def make_interval_model(name: str, **kwargs) -> IntervalModel:
    """Build an interval model by name: adaptive | simple | never."""
    table = {
        "adaptive": AdaptiveIntervalModel,
        "simple": SimpleIntervalModel,
        "never": NeverLazyModel,
    }
    try:
        return table[name](**kwargs)
    except KeyError:
        raise ConfigError(
            f"unknown interval model {name!r}; known: {', '.join(sorted(table))}"
        ) from None


# ----------------------------------------------------------------------
# Trainable variant (decision stumps, as in the paper's methodology)
# ----------------------------------------------------------------------
def fit_interval_rule(
    samples: Sequence[Tuple[float, float, bool]],
    ev_candidates: Optional[Sequence[float]] = None,
    trend_candidates: Optional[Sequence[float]] = None,
) -> AdaptiveIntervalModel:
    """Learn (ev_threshold, trend_threshold) from labelled observations.

    ``samples`` are ``(ev_ratio, trend, lazy_was_beneficial)`` tuples —
    e.g. produced by running both interval settings over a grid of
    workloads. The rule family is the paper's disjunction
    ``E/V <= a or trend >= b``; we grid-search the (a, b) pair with the
    fewest misclassifications (ties: smallest a then largest b, i.e. the
    most conservative rule).
    """
    if not samples:
        raise ConfigError("fit_interval_rule needs at least one sample")
    evs = sorted({s[0] for s in samples})
    trends = sorted({s[1] for s in samples})
    ev_candidates = list(ev_candidates) if ev_candidates else evs
    trend_candidates = list(trend_candidates) if trend_candidates else trends
    best: Optional[Tuple[int, float, float]] = None
    for a in ev_candidates:
        for b in trend_candidates:
            errors = sum(
                1
                for ev, tr, label in samples
                if ((ev <= a) or (tr >= b)) != label
            )
            key = (errors, a, -b)
            if best is None or key < (best[0], best[1], -best[2]):
                best = (errors, a, b)
    assert best is not None
    return AdaptiveIntervalModel(ev_threshold=best[1], trend_threshold=best[2])
