"""The coherency-controller layer: pluggable coherency-point policies.

The paper's adaptive rule (§4.2.1) decides coherency points from two
features only — ``E/V`` and the active-count trend. The coherency lens
(PR 4) showed that laziness actually trades away *measurable* quantities
the rule never sees: pending ``deltaMsg`` mass, replica staleness age,
and master↔mirror drift. This module generalizes the interval model
into a :class:`CoherencyController` protocol fed a per-superstep
:class:`CoherencySignals` snapshot carrying all five signals, measured
through the engine's :class:`~repro.runtime.result.ReplicaReader` — the
reader the lens probes use too, built without a lens when only a
controller asks (so controllers work with ``lens=False``).

Shipped controllers:

* :class:`PaperRuleController` (``"paper"``, the default) — wraps an
  :class:`~repro.core.interval_model.IntervalModel` and reproduces the
  paper's behaviour bit-identically (it never requests the extended
  signals, so the default hot path computes nothing new);
* :class:`StalenessController` (``"staleness"``) — accumulated-delta-
  magnitude driven (cf. *Maiter* / *Delayed Asynchronous Iterative
  Graph Algorithms*): on LazyVertexAsync it delays partial exchanges
  while the pending mass decays below a fraction of its running peak
  (shipping dribbles of mass is what inflates the sync count), bounded
  by a hard staleness-age cap; on LazyBlockAsync it keeps lazy mode on
  through the decay phase for the same reason;
* :class:`BatchedController` (``"batched"``) — LazyVertexAsync
  partial-exchange batching: instead of letting each replica trigger
  its own exchange as it comes due, coalesce — wait until the *oldest*
  pending delta reaches ``max_delta_age``, then ship **everything**
  pending in one partial exchange. No delta waits longer than the same
  ``max_delta_age`` bound, but exchanges fire ~``max_delta_age``×
  less often.

The user-facing knob is :class:`CoherencyPolicy`: one typed dataclass
collapsing the previously scattered coherency arguments (``interval``,
``coherency_mode``, ``max_delta_age``) plus the controller choice and
its options. Policies are registered by name (:func:`register_policy` /
:func:`get_policy`) so ``repro.run(policy="staleness")``, the CLI's
``--policy`` and an experiment file's ``"policy"`` key all share one
vocabulary.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass, replace
from typing import Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.core.interval_model import (
    AdaptiveIntervalModel,
    IntervalModel,
    make_interval_model,
)
from repro.errors import ConfigError

__all__ = [
    "CoherencySignals",
    "extended_signals",
    "ExchangeDirective",
    "CoherencyController",
    "PaperRuleController",
    "StalenessController",
    "BatchedController",
    "CoherencyPolicy",
    "make_controller",
    "controller_names",
    "register_policy",
    "get_policy",
    "named_policy",
    "policy_names",
    "resolve_policy",
]


# ----------------------------------------------------------------------
# Signals
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencySignals:
    """One superstep's controller inputs.

    ``ev_ratio``/``trend``/``active`` are the paper's features (free to
    compute); ``pending_mass``/``pending_replicas``/``staleness_max``/
    ``drift_sample`` are the lens-grade extended signals, filled in only
    when the active controller sets ``needs_signals`` (they cost one
    pass over the pending deltas plus a small drift sample).
    """

    superstep: int
    ev_ratio: float
    trend: float
    active: int
    pending_mass: float = 0.0
    pending_replicas: int = 0
    staleness_max: int = 0
    drift_sample: float = 0.0

    def as_inputs(self) -> Dict[str, float]:
        """Flat snapshot for the lens decision audit log."""
        return {
            "ev_ratio": float(self.ev_ratio),
            "trend": float(self.trend),
            "active": int(self.active),
            "pending_mass": float(self.pending_mass),
            "pending_replicas": int(self.pending_replicas),
            "staleness_max": int(self.staleness_max),
            "drift_sample": float(self.drift_sample),
        }


def extended_signals(reader, ages: Optional[List[np.ndarray]] = None) -> Dict:
    """The lens-grade :class:`CoherencySignals` fields, measured now.

    ``reader`` is the engine's ``ReplicaReader``, ``ages`` its
    per-runtime staleness clocks. The pending mass is the reader's
    per-machine masses folded in machine order — regrouping the float
    sum would move controllers' decisions in the last bits.
    """
    masses, counts = reader.pending()
    return {
        "pending_mass": float(sum(masses)),
        "pending_replicas": sum(counts),
        "staleness_max": 0 if ages is None else reader.staleness_max(ages),
        "drift_sample": reader.sample_drift(),
    }


# ----------------------------------------------------------------------
# Controllers
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ExchangeDirective:
    """One superstep's partial-exchange decision (LazyVertexAsync).

    ``execute=False`` defers: no replica participates this superstep
    (unreplicated and subsumed deltas are still swept). ``min_age``
    selects the participants of an executed exchange — every replica
    whose pending delta is at least that many local rounds old.
    """

    execute: bool
    min_age: int
    rule: str


class CoherencyController(abc.ABC):
    """Strategy deciding both engines' coherency points.

    One controller instance lives for one engine run (controllers may
    keep cross-superstep state such as running peaks); build a fresh one
    per run via :meth:`CoherencyPolicy.make_controller`.
    """

    name = "abstract"
    #: Request the extended (mass/staleness/drift) signals. The default
    #: controller leaves this off so the paper path stays bit-identical
    #: *and* computation-identical.
    needs_signals = False

    @property
    def rule_name(self) -> str:
        """Label used in the decision audit log's ``rule`` field."""
        return self.name

    # ---- LazyBlockAsync hooks ----------------------------------------
    @abc.abstractmethod
    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        """Should the next superstep run a local computation stage?"""

    @abc.abstractmethod
    def local_budget(self, first_iteration_time: float) -> float:
        """Max modeled seconds a local stage may run (∞ = quiescence)."""

    # ---- LazyVertexAsync hook ----------------------------------------
    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> ExchangeDirective:
        """Decide this superstep's partial exchange (default: paper rule —
        replicas due at ``max_delta_age`` trigger their own exchange)."""
        return ExchangeDirective(True, max_delta_age, "max-delta-age")


class PaperRuleController(CoherencyController):
    """The paper's behaviour behind the controller protocol (default).

    Wraps an :class:`IntervalModel` (adaptive by default) for the
    LazyBlockAsync decisions and keeps LazyVertexAsync's per-replica
    ``max_delta_age`` trigger. Bit-identical to the pre-controller
    engines — the golden-number pins hold under this controller.
    """

    name = "paper"

    def __init__(self, interval_model: Optional[IntervalModel] = None) -> None:
        self.interval_model = interval_model or AdaptiveIntervalModel()

    @property
    def rule_name(self) -> str:
        return self.interval_model.name

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        return self.interval_model.turn_on_lazy(signals.ev_ratio, signals.trend)

    def local_budget(self, first_iteration_time: float) -> float:
        return self.interval_model.local_budget(first_iteration_time)


class StalenessController(CoherencyController):
    """Delay exchanges while the pending delta mass decays.

    Tracks the running peak of the pending ``deltaMsg`` mass. Once the
    run enters its decay phase (pending mass below ``mass_floor`` × the
    peak) the accumulated magnitude no longer pays for a sync every
    superstep, so due replicas are *deferred* and their deltas keep
    coalescing — until either the mass climbs back over the floor or
    the oldest pending delta hits the hard age cap
    (``age_cap_factor × max_delta_age`` local rounds). On LazyBlockAsync
    the same signal keeps lazy mode on through the decay phase.
    """

    name = "staleness"
    needs_signals = True

    def __init__(
        self,
        interval_model: Optional[IntervalModel] = None,
        mass_floor: float = 0.5,
        age_cap_factor: float = 2.0,
    ) -> None:
        if not 0.0 < mass_floor <= 1.0:
            raise ConfigError(
                f"staleness controller: mass_floor must be in (0, 1], "
                f"got {mass_floor}"
            )
        if age_cap_factor < 1.0:
            raise ConfigError(
                f"staleness controller: age_cap_factor must be >= 1, "
                f"got {age_cap_factor}"
            )
        self.interval_model = interval_model or AdaptiveIntervalModel()
        self.mass_floor = float(mass_floor)
        self.age_cap_factor = float(age_cap_factor)
        self._peak_mass = 0.0

    def _decaying(self, pending_mass: float) -> bool:
        self._peak_mass = max(self._peak_mass, pending_mass)
        return 0.0 < pending_mass < self.mass_floor * self._peak_mass

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        base = self.interval_model.turn_on_lazy(signals.ev_ratio, signals.trend)
        return base or self._decaying(signals.pending_mass)

    def local_budget(self, first_iteration_time: float) -> float:
        return self.interval_model.local_budget(first_iteration_time)

    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> ExchangeDirective:
        cap = max(max_delta_age + 1, int(math.ceil(
            self.age_cap_factor * max_delta_age
        )))
        decaying = self._decaying(signals.pending_mass)
        if signals.staleness_max >= cap:
            # the backlog hit the hard staleness bound: coalesce — ship
            # everything pending, not just the replicas that came due
            return ExchangeDirective(True, 1, "staleness-cap")
        if decaying:
            return ExchangeDirective(False, 0, "mass-decaying")
        return ExchangeDirective(True, max_delta_age, "mass-due")


class BatchedController(CoherencyController):
    """Coalesce LazyVertexAsync partial exchanges under ``max_delta_age``.

    The per-replica age trigger spreads many tiny partial exchanges over
    consecutive supersteps (replicas come due one superstep apart). This
    controller batches them: defer while the oldest pending delta is
    younger than ``max_delta_age``, then ship *every* pending delta in
    one exchange. The staleness bound is unchanged — no delta ever waits
    more than ``max_delta_age`` local rounds — but the exchange count
    drops by roughly that factor. On LazyBlockAsync it falls back to the
    paper rule (there is nothing to batch: Algorithm 1 already runs one
    full exchange per superstep).
    """

    name = "batched"
    needs_signals = True

    def __init__(self, interval_model: Optional[IntervalModel] = None) -> None:
        self.interval_model = interval_model or AdaptiveIntervalModel()

    def turn_on_lazy(self, signals: CoherencySignals) -> bool:
        return self.interval_model.turn_on_lazy(signals.ev_ratio, signals.trend)

    def local_budget(self, first_iteration_time: float) -> float:
        return self.interval_model.local_budget(first_iteration_time)

    def partial_exchange(
        self, signals: CoherencySignals, max_delta_age: int
    ) -> ExchangeDirective:
        if signals.staleness_max >= max_delta_age:
            return ExchangeDirective(True, 1, "batched-coalesce")
        return ExchangeDirective(False, 0, "batch-accumulate")


_CONTROLLERS: Dict[str, type] = {
    "paper": PaperRuleController,
    "staleness": StalenessController,
    "batched": BatchedController,
}


def controller_names() -> Tuple[str, ...]:
    """All known controller names, sorted."""
    return tuple(sorted(_CONTROLLERS))


def make_controller(
    name: str,
    interval_model: Optional[IntervalModel] = None,
    **options,
) -> CoherencyController:
    """Build a fresh controller by name (controllers are stateful)."""
    try:
        cls = _CONTROLLERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown coherency controller {name!r}; known: "
            f"{', '.join(controller_names())}"
        ) from None
    try:
        return cls(interval_model=interval_model, **options)
    except TypeError as exc:
        raise ConfigError(
            f"controller {name!r} rejected options {sorted(options)}: {exc}"
        ) from None


# ----------------------------------------------------------------------
# The unified policy knob
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CoherencyPolicy:
    """Every coherency knob in one typed, hashable value.

    Collapses the previously scattered arguments — ``run()``'s
    ``interval``/``coherency_mode`` and the engines' ``max_delta_age`` —
    plus the controller choice and its numeric options. Accepted by
    :func:`repro.run` (``policy=``), the CLI (``--policy`` /
    ``--policy-opt k=v``) and experiment files (``"policy"`` /
    ``"policy_opts"``).
    """

    controller: str = "paper"
    interval: Union[str, IntervalModel] = "adaptive"
    mode: str = "dynamic"
    max_delta_age: int = 3
    options: Tuple[Tuple[str, float], ...] = ()

    def __post_init__(self) -> None:
        if self.controller not in _CONTROLLERS:
            raise ConfigError(
                f"unknown coherency controller {self.controller!r}; known: "
                f"{', '.join(controller_names())}"
            )
        if self.mode not in ("dynamic", "a2a", "m2m"):
            raise ConfigError(
                f"unknown coherency mode {self.mode!r}; known: dynamic, a2a, m2m"
            )
        if self.max_delta_age < 1:
            raise ConfigError(
                f"max_delta_age must be >= 1, got {self.max_delta_age}"
            )

    # ------------------------------------------------------------------
    def make_interval_model(self) -> IntervalModel:
        if isinstance(self.interval, IntervalModel):
            return self.interval
        return make_interval_model(self.interval)

    def make_controller(self) -> CoherencyController:
        """A fresh (per-run) controller configured by this policy."""
        return make_controller(
            self.controller,
            interval_model=self.make_interval_model(),
            **dict(self.options),
        )

    def apply_opts(self, opts: Mapping[str, object]) -> "CoherencyPolicy":
        """Overlay ``--policy-opt``-style key=value overrides.

        The policy's own fields (``controller``, ``interval``, ``mode``,
        ``max_delta_age``) are recognized by name; anything else becomes
        a numeric controller option.
        """
        pol = self
        for key, value in opts.items():
            if key == "controller":
                pol = replace(pol, controller=str(value))
            elif key == "interval":
                pol = replace(pol, interval=str(value))
            elif key == "mode":
                pol = replace(pol, mode=str(value))
            elif key == "max_delta_age":
                pol = replace(pol, max_delta_age=int(value))
            else:
                try:
                    numeric = float(value)
                except (TypeError, ValueError):
                    raise ConfigError(
                        f"policy option {key!r} must be numeric, got {value!r}"
                    ) from None
                merged = dict(pol.options)
                merged[key] = numeric
                pol = replace(pol, options=tuple(sorted(merged.items())))
        return pol

    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable form (bench outputs, experiment reports)."""
        interval = (
            self.interval.name
            if isinstance(self.interval, IntervalModel)
            else self.interval
        )
        return {
            "controller": self.controller,
            "interval": interval,
            "mode": self.mode,
            "max_delta_age": self.max_delta_age,
            "options": dict(self.options),
        }


_POLICIES: Dict[str, CoherencyPolicy] = {}


def register_policy(name: str, policy: CoherencyPolicy) -> CoherencyPolicy:
    """Add a named policy to the registry (name must be unused)."""
    if name in _POLICIES:
        raise ConfigError(f"policy {name!r} is already registered")
    if not isinstance(policy, CoherencyPolicy):
        raise ConfigError(
            f"policy {name!r} must be a CoherencyPolicy, got "
            f"{type(policy).__name__}"
        )
    _POLICIES[name] = policy
    return policy


def get_policy(name: str) -> CoherencyPolicy:
    """Look a policy up by name (:class:`ConfigError` if unknown)."""
    try:
        return _POLICIES[name]
    except KeyError:
        raise ConfigError(
            f"unknown coherency policy {name!r}; known: "
            f"{', '.join(policy_names())}"
        ) from None


def named_policy(
    name: Optional[str], opts: Mapping[str, object]
) -> Optional[CoherencyPolicy]:
    """A flat ``name`` + ``opts`` pair (``--policy`` / ``--policy-opt``,
    an experiment file's ``policy`` / ``policy_opts``) as one policy.

    Options alone overlay the ``"paper"`` policy; neither means "no
    explicit policy" (``None``), which eager engines accept.
    """
    if not name and not opts:
        return None
    return get_policy(name or "paper").apply_opts(opts)


def policy_names() -> Tuple[str, ...]:
    """All registered policy names, sorted."""
    return tuple(sorted(_POLICIES))


# Builtin vocabulary: the paper rule and its Fig 8(a) strawmen, plus the
# two signal-driven controllers this layer introduces.
register_policy("paper", CoherencyPolicy())
register_policy("simple", CoherencyPolicy(interval="simple"))
register_policy("never", CoherencyPolicy(interval="never"))
register_policy("staleness", CoherencyPolicy(controller="staleness"))
register_policy("batched", CoherencyPolicy(controller="batched"))


# ----------------------------------------------------------------------
# Policy resolution (the run()/harness path)
# ----------------------------------------------------------------------
def resolve_policy(
    policy: Union[str, CoherencyPolicy, None] = None,
) -> Tuple[CoherencyPolicy, bool]:
    """Resolve a ``policy`` value (name / instance / None) to a policy.

    Returns ``(policy, explicit)`` where ``explicit`` is True when the
    caller named a policy — the knob that is an error on engines without
    a coherency-controller layer.
    """
    explicit = policy is not None
    if isinstance(policy, str):
        policy = get_policy(policy)
    pol = policy if policy is not None else get_policy("paper")
    return pol, explicit
