"""The coherency decision: one controller per named policy (paper §4.2.1).

How long may replica coherency be delayed? The paper trains a
decision-tree classifier over two features and reports the learned rule;
:class:`CoherencyController` implements that rule directly (the
trainable machinery is :func:`fit_interval_rule`, for the ablation):

* **turnOnLazy()** — lazy mode turns on iff
  ``E/V <= 10  or  trend >= 0.07``, where
  ``trend = (cnt_{t-1} − cnt_t) / cnt_{t-1}`` is the relative decrease
  of the active-vertex count between coherency points. Intuition: poor
  locality (high E/V) in the *ascent* phase (growing frontier) needs
  frequent synchronization; descent phases and local graphs do not.
* **doLC()** — a local computation stage may run for at most
  ``3·T``, where ``T`` is the modeled time of the stage's first
  micro-iteration (measured online).

The paper leaves LazyVertexAsync's ``needDataCoherency`` schedule
(Algorithm 2) open; every controller answers it with one bounded-delay
rule (as in "Delayed Asynchronous Iterative Graph Algorithms"):

* **partial_exchange()** — defer while the *oldest* pending delta is
  younger than ``max_delta_age`` local rounds, then ship **every**
  pending delta in one full exchange. No delta waits longer than
  ``max_delta_age`` rounds, and deltas coming due on consecutive
  supersteps share one exchange.

Controllers are fed a per-superstep :class:`CoherencySignals` snapshot
of what the engine measured: the paper's two features and the active
count on LazyBlockAsync; E/V, the active count and the oldest pending
delta's age on LazyVertexAsync, the age read through the engine's
:class:`~repro.runtime.result.ReplicaReader` (so controllers work with
``lens=False``).

A policy name *is* a controller name; ``_CONTROLLERS`` is the whole
vocabulary:

* ``"paper"`` (the default) — :class:`CoherencyController`, the rules
  above;
* ``"simple"`` / ``"never"`` — Fig 8(a)'s strawmen: lazy always on with
  every local stage run to quiescence / lazy never on (isolates the
  3-syncs→1-sync saving from laziness). On LazyVertexAsync they keep
  the ``max_delta_age`` rule.

:class:`CoherencyPolicy` is the one value every entry point passes —
``repro.run(policy=...)``, the CLI's ``--policy`` / ``--policy-opt``,
the service's ``policy=`` and the lazy engines' ``policy=``: a
controller name, the exchange's wire mode, ``max_delta_age`` and the
controller's numeric options.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass, replace
from typing import (
    Any, Dict, Mapping, Optional, Sequence, Tuple, Type, Union,
)

from repro.errors import ConfigError

__all__ = [
    "CoherencySignals",
    "CoherencyController",
    "SimpleController",
    "NeverLazyController",
    "CoherencyPolicy",
    "controller_names",
    "named_policy",
    "resolve_policy",
    "fit_interval_rule",
]


# ----------------------------------------------------------------------
# Signals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencySignals:
    """One superstep's controller inputs.

    ``ev_ratio`` is always measured. The rest are None where the engine
    did not measure them: LazyBlockAsync measures ``trend`` and
    ``active``; LazyVertexAsync measures ``active`` and
    ``staleness_max`` — the age, in local rounds, of the oldest pending
    delta — and never ``trend``.
    """

    superstep: int
    ev_ratio: float
    trend: Optional[float] = None
    active: Optional[int] = None
    staleness_max: Optional[int] = None

    def as_inputs(self) -> Dict[str, float]:
        """Flat snapshot for the lens decision audit log: the measured
        inputs only."""
        inputs = {"ev_ratio": float(self.ev_ratio)}
        if self.trend is not None:
            inputs["trend"] = float(self.trend)
        if self.active is not None:
            inputs["active"] = int(self.active)
        if self.staleness_max is not None:
            inputs["staleness_max"] = int(self.staleness_max)
        return inputs


# ----------------------------------------------------------------------
# Controllers
# ----------------------------------------------------------------------
class CoherencyController:
    """The paper's coherency rule — the ``"paper"`` policy.

    LazyBlockAsync asks :meth:`turn_on_lazy` (``E/V <= ev_threshold or
    trend >= trend_threshold``) and :meth:`local_budget`
    (``budget_multiplier`` × the stage's first micro-iteration);
    LazyVertexAsync asks :meth:`partial_exchange` (exchange once the
    oldest pending delta is ``max_delta_age`` rounds old). Other policies are
    subclasses overriding what they change. One instance lives for one
    engine run; an engine builds its own through
    :meth:`CoherencyPolicy.make_controller`.
    """

    name = "paper"
    #: label used in the decision audit log's ``rule`` field
    rule_name = "adaptive"

    def __init__(
        self,
        ev_threshold: float = 10.0,
        trend_threshold: float = 0.07,
        budget_multiplier: float = 3.0,
    ) -> None:
        self.ev_threshold = ev_threshold
        self.trend_threshold = trend_threshold
        self.budget_multiplier = budget_multiplier

    # ---- LazyBlockAsync hooks ----------------------------------------
    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        """Should the next superstep run a local computation stage?"""
        assert signals.trend is not None, "LazyBlockAsync measures the trend"
        return (
            signals.ev_ratio <= self.ev_threshold
            or signals.trend >= self.trend_threshold
        )

    def local_budget(self, first_iteration_time: float) -> float:
        """Max modeled seconds a local stage may run (∞ = quiescence)."""
        return self.budget_multiplier * first_iteration_time

    # ---- LazyVertexAsync hook ----------------------------------------
    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> bool:
        """Exchange this superstep (``True``), or defer and let the
        pending deltas keep coalescing: exchange once the oldest pending
        delta is ``max_delta_age`` local rounds old."""
        assert signals.staleness_max is not None, (
            "LazyVertexAsync measures the age"
        )
        return signals.staleness_max >= max_delta_age


class SimpleController(CoherencyController):
    """Fig 8(a)'s strawman: always lazy, local stages run to quiescence."""

    name = rule_name = "simple"

    def __init__(self) -> None:  # reads neither feature: no options
        pass

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        return True

    def local_budget(self, first_iteration_time: float) -> float:
        return math.inf


class NeverLazyController(CoherencyController):
    """Coherency at every superstep (no local stages at all)."""

    name = rule_name = "never"

    def __init__(self) -> None:  # reads neither feature: no options
        pass

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        return False

    def local_budget(self, first_iteration_time: float) -> float:
        return 0.0


_CONTROLLERS: Dict[str, Type[CoherencyController]] = {
    cls.name: cls
    for cls in (
        CoherencyController, SimpleController, NeverLazyController,
    )
}


def controller_names() -> Tuple[str, ...]:
    """Every policy name (= controller name), sorted."""
    return tuple(sorted(_CONTROLLERS))


# ----------------------------------------------------------------------
# The policy value
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencyPolicy:
    """Every coherency knob in one typed, hashable value.

    ``controller`` names the decision rule (one of
    :func:`controller_names`), ``mode`` the exchange's wire mode
    (``"dynamic"``, ``"a2a"`` or ``"m2m"``), ``max_delta_age`` the age
    of the oldest pending delta that triggers a LazyVertexAsync
    exchange, and ``options`` the controller's numeric
    constructor arguments — their names and types are checked here, so a
    bad option fails when the policy is built rather than when a run
    starts.
    """

    controller: str = "paper"
    mode: str = "dynamic"
    max_delta_age: int = 3
    options: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        cls = _CONTROLLERS.get(self.controller)
        if cls is None:
            raise ConfigError(
                f"unknown coherency policy {self.controller!r}; known "
                f"controllers: {', '.join(controller_names())}"
            )
        valid = list(inspect.signature(cls).parameters)
        unknown = sorted(set(dict(self.options)) - set(valid))
        if unknown:
            raise ConfigError(
                f"coherency policy {self.controller!r} has no option "
                f"{', '.join(unknown)}; its options: "
                f"{', '.join(valid) or 'none'} (policy fields: controller, "
                f"mode, max_delta_age)"
            )
        for key, value in self.options:
            if not isinstance(value, (int, float)):
                raise ConfigError(
                    f"policy option {key!r} must be numeric, got {value!r}"
                )
        if self.mode not in ("dynamic", "a2a", "m2m"):
            raise ConfigError(
                f"unknown coherency mode {self.mode!r}; known: dynamic, a2a, m2m"
            )
        if self.max_delta_age < 1:
            raise ConfigError(
                f"max_delta_age must be >= 1, got {self.max_delta_age}"
            )

    def make_controller(self) -> CoherencyController:
        """A fresh (per-run) controller configured by this policy."""
        return _CONTROLLERS[self.controller](**dict(self.options))

    def apply_opts(self, opts: Mapping[str, Any]) -> "CoherencyPolicy":
        """Overlay ``--policy-opt``-style key=value overrides.

        The policy's own fields (``controller``, ``mode``,
        ``max_delta_age``) are recognized by name; anything else becomes
        a numeric controller option.
        """
        changed: Dict[str, Any] = {}
        options: Dict[str, Any] = dict(self.options)
        for key, value in opts.items():
            if key in ("controller", "mode"):
                changed[key] = str(value)
            elif key == "max_delta_age":
                changed[key] = int(value)
            else:
                try:
                    options[key] = float(value)
                except (TypeError, ValueError):
                    options[key] = value  # rejected by name or type on build
        return replace(self, options=tuple(sorted(options.items())), **changed)


def named_policy(
    name: Optional[str], opts: Mapping[str, Any]
) -> Optional[CoherencyPolicy]:
    """A flat ``name`` + ``opts`` pair (``--policy`` / ``--policy-opt``)
    as one policy.

    Options alone overlay the ``"paper"`` policy; neither means "no
    explicit policy" (``None``), which eager engines accept.
    """
    if not name and not opts:
        return None
    return CoherencyPolicy(controller=name or "paper").apply_opts(opts)


def resolve_policy(
    policy: Union[str, CoherencyPolicy, None] = None,
) -> CoherencyPolicy:
    """A ``policy`` value (name / instance / None) as a policy; ``None``
    is the paper rule."""
    if isinstance(policy, CoherencyPolicy):
        return policy
    return CoherencyPolicy(controller=policy or "paper")


# ----------------------------------------------------------------------
# Trainable variant (decision stumps, as in the paper's methodology)
# ----------------------------------------------------------------------
def fit_interval_rule(
    samples: Sequence[Tuple[float, float, bool]],
    ev_candidates: Optional[Sequence[float]] = None,
    trend_candidates: Optional[Sequence[float]] = None,
) -> CoherencyPolicy:
    """Learn (ev_threshold, trend_threshold) from labelled observations.

    ``samples`` are ``(ev_ratio, trend, lazy_was_beneficial)`` tuples —
    e.g. produced by running both interval settings over a grid of
    workloads. The rule family is the paper's disjunction
    ``E/V <= a or trend >= b``; we grid-search the (a, b) pair with the
    fewest misclassifications (ties: smallest a then largest b, i.e. the
    most conservative rule). Returns the ``"paper"`` policy with the
    fitted thresholds as options.
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
    return CoherencyPolicy(
        options=(("ev_threshold", best[1]), ("trend_threshold", best[2]))
    )
