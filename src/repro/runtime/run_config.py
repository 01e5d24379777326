"""One declarative run configuration shared by every entry point.

``repro.run(...)`` grew ~20 keyword arguments, and every entry point
used to re-implement the same kwarg-assembly dance (policy resolution,
lens gating). :class:`RunConfig` is the one place that logic lives:
:meth:`RunConfig.engine_kwargs` is the single resolve path from a
config to an engine constructor's keyword arguments, and
:meth:`repro.session.GraphSession.run` is its only caller — ``run()``,
the serving layer, the CLI and the bench harness
(:class:`~repro.bench.configs.ExperimentConfig` carries a ``RunConfig``)
all run through a session.

The pre-PR-10 ``interval=`` / ``coherency_mode=`` shim fields were
removed after their deprecation cycle; the coherency policy is the one
knob (:class:`~repro.core.policy.CoherencyPolicy` or a policy name).
Every removed knob — those, the process backend's selectors,
the lens's options — is one row of ``_REMOVED_KNOBS``, the only place
that knows their migration messages. Dynamic-graph knobs (``incremental``)
live here too, so the session, serving layer and CLI share one config
object.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.errors import ConfigError

__all__ = ["RunConfig"]

_DEFAULT_MAX_SUPERSTEPS = 100_000

#: removed knob -> the one-line hint naming what replaced it
_BACKEND_REMOVED = (
    "{knob}= was removed with the process backend; every run "
    "executes inline, drop the argument"
)
_REMOVED_KNOBS = {
    "backend": _BACKEND_REMOVED,
    "workers": _BACKEND_REMOVED,
    "interval": 'run(interval=...) was removed; use policy="simple" '
                '(or "never" / "paper") or --policy simple',
    "coherency_mode": "run(coherency_mode=...) was removed; use "
                      "policy=CoherencyPolicy(mode=...) or --policy-opt mode=...",
    "max_delta_age": "max_delta_age= was removed; use "
                     "policy=CoherencyPolicy(max_delta_age=...) or "
                     "--policy-opt max_delta_age=...",
    "lens_opts": "lens_opts= was removed: the lens has no options; "
                 "pass lens=True",
}


def _reject_removed_knobs(kwargs: Dict[str, Any]) -> None:
    """Fail loudly on removed knobs, naming what replaced them.

    Without this check a stray ``interval="simple"`` or
    ``backend="process"`` would silently fall through to ``params`` and
    surface as an algorithm-constructor TypeError far from the actual
    mistake.
    """
    for knob, hint in _REMOVED_KNOBS.items():
        if kwargs.get(knob) is not None:
            raise ConfigError(hint.format(knob=knob))


@dataclass
class RunConfig:
    """Everything that varies per engine run (nothing graph/partition-level).

    Graph-level choices — the graph itself, machine count, partitioner,
    edge split, seed — live on the :class:`~repro.session.GraphSession`;
    a ``RunConfig`` can be re-run against any session.

    Attributes mirror the historical ``repro.run`` keyword arguments;
    see its docstring for per-field semantics. ``params`` holds the
    algorithm constructor parameters (``k=10``, ``source=7``, …) that
    ``run`` accepted as ``**algorithm_params``.
    """

    engine: str = "lazy-block"
    policy: Any = None  # name | CoherencyPolicy | None
    network: Any = None  # Optional[NetworkModel]
    max_supersteps: int = _DEFAULT_MAX_SUPERSTEPS
    trace: bool = False
    trace_out: Optional[str] = None
    trace_format: str = "jsonl"
    tracer: Any = None  # Optional[Tracer]
    lens: bool = False
    #: warm-start from the session's previous fixpoint for this program
    #: and inject per-mutation correction deltas (delta engines on a
    #: :class:`~repro.session.GraphSession`; falls back to a cold run
    #: when no fixpoint has been recorded yet)
    incremental: bool = False
    params: Dict[str, Any] = field(default_factory=dict)

    @classmethod
    def field_names(cls) -> Tuple[str, ...]:
        return tuple(f.name for f in fields(cls))

    @classmethod
    def from_kwargs(cls, **kwargs: Any) -> "RunConfig":
        """Split a mixed kwarg dict into config fields + algorithm params.

        Keys naming a :class:`RunConfig` field set that field; everything
        else lands in ``params`` (the algorithm constructor). This is the
        ergonomic path ``GraphSession.run("pagerank", tolerance=1e-3)``
        uses.
        """
        _reject_removed_knobs(kwargs)
        known = set(cls.field_names())
        config_kv = {k: v for k, v in kwargs.items() if k in known}
        params = {k: v for k, v in kwargs.items() if k not in known}
        if params:
            config_kv.setdefault("params", {}).update(params)
        return cls(**config_kv)

    def with_overrides(self, **kwargs: Any) -> "RunConfig":
        """A copy with config fields replaced / extra params overlaid."""
        _reject_removed_knobs(kwargs)
        known = set(self.field_names())
        config_kv = {k: v for k, v in kwargs.items() if k in known}
        params = {k: v for k, v in kwargs.items() if k not in known}
        out = replace(self, **config_kv)
        if params:
            out.params = {**out.params, **params}
        return out

    # ------------------------------------------------------------------
    def engine_kwargs(self, spec: Any, tracer: Any = None) -> Dict[str, Any]:
        """The engine constructor kwargs this config resolves to.

        * the coherency policy is resolved from ``policy`` and passed
          through; engines without one raise :class:`ConfigError` on an
          explicit policy;
        * the lens request is gated on the engine's declared options.

        ``tracer`` overrides ``self.tracer`` (sessions create a fresh
        tracer per run).
        """
        from repro.core.policy import resolve_policy

        kwargs: Dict[str, Any] = {
            "network": self.network,
            "max_supersteps": self.max_supersteps,
            "trace": self.trace,
        }
        tracer = tracer if tracer is not None else self.tracer
        if tracer is not None:
            kwargs["tracer"] = tracer
        if "policy" in spec.options:
            kwargs["policy"] = resolve_policy(self.policy)
        elif self.policy is not None:
            raise ConfigError(
                f"engine {spec.name!r} does not take a coherency policy "
                f"(replicas are eagerly coherent)"
            )
        if "lens" in spec.options:
            kwargs["lens"] = self.lens
        elif self.lens:
            raise ConfigError(
                f"engine {spec.name!r} has no coherency lens (only the lazy "
                f"engines defer replica coherency)"
            )
        return kwargs
