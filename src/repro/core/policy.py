"""The coherency decision: one rule, three named settings (paper §4.2.1).

How long may replica coherency be delayed? The paper trains a
decision-tree classifier over two features and reports the learned rule
with three numbers (:data:`PAPER_INTERVAL_RULE`);
:class:`CoherencyPolicy` applies that rule directly (the trainable
machinery is :func:`fit_interval_rule`, for the ablation):

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
(Algorithm 2) open; every policy answers it with one bounded-delay
rule (as in "Delayed Asynchronous Iterative Graph Algorithms"):

* **partial_exchange()** — defer while the *oldest* pending delta is
  younger than ``max_delta_age`` local rounds, then ship **every**
  pending delta in one full exchange. No delta waits longer than
  ``max_delta_age`` rounds, and deltas coming due on consecutive
  supersteps share one exchange.

The policy is fed a per-superstep :class:`CoherencySignals` snapshot
of what the engine measured: the paper's two features and the active
count on LazyBlockAsync; E/V, the active count and the oldest pending
delta's age on LazyVertexAsync, the age read through the engine's
:class:`~repro.runtime.result.ReplicaReader` (so the rule works with
``lens=False``).

A policy name is one row of ``_RULES``, the whole vocabulary, each row a
setting of the same rule:

* ``"paper"`` (the default) — the rule above, its three numbers
  tunable as options;
* ``"simple"`` / ``"never"`` — Fig 8(a)'s strawmen: lazy always on with
  every local stage run to quiescence / lazy never on (isolates the
  3-syncs→1-sync saving from laziness). On LazyVertexAsync they keep
  the ``max_delta_age`` rule.

:class:`CoherencyPolicy` is the one value every entry point passes —
``repro.run(policy=...)``, the CLI's ``--policy`` / ``--policy-opt``,
the service's ``policy=`` and the lazy engines' ``policy=``: a policy
name, the exchange's wire mode, ``max_delta_age`` and the rule's
numeric options.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Mapping, Optional, Sequence, Tuple, Union

from repro.errors import ConfigError

__all__ = [
    "CoherencySignals",
    "CoherencyPolicy",
    "PAPER_INTERVAL_RULE",
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
    """One superstep's decision inputs.

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
# The rule table
# ----------------------------------------------------------------------
#: The paper's learned rule (§4.2.1): the ``"paper"`` policy's tunable
#: options and their defaults.
PAPER_INTERVAL_RULE: Dict[str, float] = {
    "ev_threshold": 10.0,
    "trend_threshold": 0.07,
    "budget_multiplier": 3.0,
}

#: One row per policy name: the rule label the decision log records,
#: the rule's parameter values, and the option names callers may tune.
#: The strawmen are settings of the paper rule: ``E/V <= inf`` is always
#: true, ``E/V <= -inf or trend >= inf`` never; an infinite budget
#: multiplier runs every stage to quiescence, a zero one stops it after
#: its first micro-iteration (``never`` runs no stage at all).
_RULES: Dict[str, Tuple[str, Mapping[str, float], Tuple[str, ...]]] = {
    "paper": ("adaptive", PAPER_INTERVAL_RULE, tuple(PAPER_INTERVAL_RULE)),
    "simple": ("simple", {"ev_threshold": math.inf,
                          "trend_threshold": -math.inf,
                          "budget_multiplier": math.inf}, ()),
    "never": ("never", {"ev_threshold": -math.inf,
                        "trend_threshold": math.inf,
                        "budget_multiplier": 0.0}, ()),
}


def controller_names() -> Tuple[str, ...]:
    """Every policy name, sorted."""
    return tuple(sorted(_RULES))


# ----------------------------------------------------------------------
# The policy value
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencyPolicy:
    """Every coherency knob in one typed, hashable value, and the rule
    it names.

    ``controller`` names the decision rule (one of
    :func:`controller_names`), ``mode`` the exchange's wire mode
    (``"dynamic"``, ``"a2a"`` or ``"m2m"``), ``max_delta_age`` the age
    of the oldest pending delta that triggers a LazyVertexAsync
    exchange, and ``options`` the rule's tunable numeric parameters —
    their names and types are checked here, so a bad option fails when
    the policy is built rather than when a run starts.

    The rule's parameters are resolved once, here, into the plain
    attributes ``rule_name`` (the decision log's ``rule`` label),
    ``ev_threshold``, ``trend_threshold`` and ``budget_multiplier``;
    they are not fields, so ``repr``, ``==`` and ``hash`` read the four
    fields alone.
    """

    controller: str = "paper"
    mode: str = "dynamic"
    max_delta_age: int = 3
    options: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        row = _RULES.get(self.controller)
        if row is None:
            raise ConfigError(
                f"unknown coherency policy {self.controller!r}; known "
                f"controllers: {', '.join(controller_names())}"
            )
        rule_name, params, valid = row
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
        object.__setattr__(self, "rule_name", rule_name)
        for key, value in {**params, **dict(self.options)}.items():
            object.__setattr__(self, key, value)

    # ---- LazyBlockAsync: turnOnLazy() and doLC() -----------------------
    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        """Should the next superstep run a local computation stage?"""
        assert signals.trend is not None, "LazyBlockAsync measures the trend"
        return (
            signals.ev_ratio <= self.ev_threshold
            or signals.trend >= self.trend_threshold
        )

    def local_budget(self, first_iteration_s: float) -> float:
        """Max modeled seconds a local stage may run: ``budget_multiplier``
        × the stage's first micro-iteration (∞ = quiescence, whatever
        the first micro-iteration took)."""
        if self.budget_multiplier == math.inf:
            return math.inf
        return self.budget_multiplier * first_iteration_s

    # ---- LazyVertexAsync: needDataCoherency() --------------------------
    def partial_exchange(self, signals: CoherencySignals) -> bool:
        """Exchange this superstep (``True``), or defer and let the
        pending deltas keep coalescing: exchange once the oldest pending
        delta is ``max_delta_age`` local rounds old."""
        assert signals.staleness_max is not None, (
            "LazyVertexAsync measures the age"
        )
        return signals.staleness_max >= self.max_delta_age

    def apply_opts(self, opts: Mapping[str, Any]) -> "CoherencyPolicy":
        """Overlay ``--policy-opt``-style key=value overrides.

        The policy's own fields (``controller``, ``mode``,
        ``max_delta_age``) are recognized by name; anything else becomes
        a numeric rule option.
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
