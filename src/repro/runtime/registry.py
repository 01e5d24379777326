"""The engine registry: one authoritative table of runnable engines.

``run_api``, the CLI, the bench harness, and the engine-equivalence /
trace-parity test matrices all enumerate this registry instead of
keeping hand-rolled dicts — registering an engine here makes it
reachable from ``repro.run(...)``, ``python -m repro.cli run``, the
benchmark configs, and the cross-engine test sweeps at once.

Builtin registration is lazy (:func:`_ensure_builtin` imports the engine
modules on first access) so importing :mod:`repro.runtime` does not drag
in every engine family and their import cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

from repro.errors import ConfigError

__all__ = ["EngineSpec", "register", "get_engine", "engine_names", "engine_specs"]


@dataclass(frozen=True)
class EngineSpec:
    """One registered engine: its class plus how to drive it.

    Attributes
    ----------
    name:
        Public engine name (``"lazy-block"``, ``"powergraph-gas-sync"``).
    cls:
        Engine class; constructor ``(pgraph, program, network=...,
        max_supersteps=..., trace=..., tracer=...)`` plus ``options``.
    family:
        ``"eager"`` (replicas coherent every update/superstep) or
        ``"lazy"`` (coherency deferred to coherency points).
    program_api:
        ``"delta"`` for push-style :class:`DeltaProgram` engines,
        ``"gas"`` for the classic pull-style :class:`GASProgram` engine.
    options:
        Extra constructor keyword names this engine accepts beyond the
        common ones (drives run_api/CLI kwarg filtering).
    description:
        One line for ``--help`` and docs.
    """

    name: str
    cls: type
    family: str
    program_api: str = "delta"
    options: Tuple[str, ...] = ()
    description: str = ""

    def make_program(self, algorithm: str, **params):
        """Build this engine's program flavour from an algorithm name."""
        if self.program_api == "gas":
            from repro.powergraph.gas import make_gas_program

            return make_gas_program(algorithm, **params)
        from repro.algorithms import make_program

        return make_program(algorithm, **params)


_REGISTRY: Dict[str, EngineSpec] = {}
_builtin_loaded = False


def register(spec: EngineSpec) -> EngineSpec:
    """Add an engine to the registry (name must be unused)."""
    if spec.name in _REGISTRY:
        raise ConfigError(f"engine {spec.name!r} is already registered")
    if spec.family not in ("eager", "lazy"):
        raise ConfigError(
            f"engine {spec.name!r}: family must be 'eager' or 'lazy', "
            f"got {spec.family!r}"
        )
    if spec.program_api not in ("delta", "gas"):
        raise ConfigError(
            f"engine {spec.name!r}: program_api must be 'delta' or 'gas', "
            f"got {spec.program_api!r}"
        )
    _REGISTRY[spec.name] = spec
    return spec


def _ensure_builtin() -> None:
    global _builtin_loaded
    if _builtin_loaded:
        return
    _builtin_loaded = True
    from repro.core.lazy_block_async import LazyBlockAsyncEngine
    from repro.core.lazy_vertex_async import LazyVertexAsyncEngine
    from repro.powergraph.engine_async import PowerGraphAsyncEngine
    from repro.powergraph.engine_gas import PowerGraphGASSyncEngine
    from repro.powergraph.engine_sync import PowerGraphSyncEngine

    register(EngineSpec(
        name="powergraph-sync",
        cls=PowerGraphSyncEngine,
        family="eager",
        description="eager BSP delta engine (2 rounds + 3 syncs/superstep)",
    ))
    register(EngineSpec(
        name="powergraph-async",
        cls=PowerGraphAsyncEngine,
        family="eager",
        description="eager asynchronous delta engine (fine-grained messages)",
    ))
    register(EngineSpec(
        name="powergraph-gas-sync",
        cls=PowerGraphGASSyncEngine,
        family="eager",
        program_api="gas",
        description="classic full-gather GAS BSP engine (PowerGraph native)",
    ))
    register(EngineSpec(
        name="lazy-block",
        cls=LazyBlockAsyncEngine,
        family="lazy",
        options=("policy", "lens"),
        description="LazyGraph bulk engine (Algorithm 1: local stages + "
                    "coherency points)",
    ))
    register(EngineSpec(
        name="lazy-vertex",
        cls=LazyVertexAsyncEngine,
        family="lazy",
        options=("policy", "lens"),
        description="LazyGraph per-vertex asynchronous engine (Algorithm 2)",
    ))


def get_engine(name: str) -> EngineSpec:
    """Look an engine up by name (:class:`ConfigError` if unknown)."""
    _ensure_builtin()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigError(
            f"unknown engine {name!r}; known: {', '.join(sorted(_REGISTRY))}"
        ) from None


def engine_names() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    _ensure_builtin()
    return tuple(sorted(_REGISTRY))


def engine_specs() -> Tuple[EngineSpec, ...]:
    """All registered specs, sorted by name."""
    _ensure_builtin()
    return tuple(_REGISTRY[n] for n in engine_names())
