"""One-call public entry point: ``repro.run(...)``.

Wires the whole pipeline — dataset lookup, graph preparation
(symmetrization / weights, per the algorithm's declared needs),
vertex-cut partitioning, optional edge splitting, engine construction —
behind a single function, mirroring how the paper's toolkits are
invoked (``./sssp --graph road_USA --engine lazy``).

Since the session refactor this module is a thin shell: ``run()`` opens
a throwaway :class:`~repro.session.GraphSession`, runs once, and closes
it. Long-lived callers (benchmark sweeps, the serving layer) hold a
session open instead and amortize graph preparation, partitioning and
CSR planning across runs.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.api.vertex_program import DeltaProgram
from repro.cluster.network import NetworkModel
from repro.core.policy import CoherencyPolicy
from repro.errors import ConfigError
from repro.graph.datasets import load_dataset
from repro.graph.digraph import DiGraph
from repro.graph import generators
from repro.obs.tracer import Tracer
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.powergraph.gas import GASProgram
from repro.runtime.registry import engine_names
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig
from repro.utils.rng import derive_seed

__all__ = ["run", "prepare_graph", "ENGINE_NAMES"]


def __getattr__(name: str):
    # ENGINE_NAMES used to be a module constant frozen at import time,
    # which silently excluded engines registered afterwards. Resolving
    # it lazily keeps the attribute API while always reflecting the
    # live registry.
    if name == "ENGINE_NAMES":
        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def prepare_graph(
    graph: Union[str, DiGraph],
    program: Union[DeltaProgram, GASProgram],
    seed: int = 0,
) -> DiGraph:
    """Resolve and adapt a graph to a program's declared requirements.

    * a string resolves through the dataset registry (weighted variant
      when the program needs weights);
    * ``requires_symmetric`` programs get the symmetrized graph;
    * ``needs_weights`` programs get deterministic Uniform(1, 10)
      weights attached when the input is unweighted.
    """
    if isinstance(graph, str):
        g = load_dataset(graph, weighted=program.needs_weights)
    else:
        g = graph
    if program.requires_symmetric:
        sym = g.symmetrized()
        sym.name = g.name
        g = sym
    if program.needs_weights and g.weights is None:
        # looked up at call time, so a wrapper on the module attribute
        # (the traced benchmark's) sees every call
        g = generators.attach_uniform_weights(
            g, seed=derive_seed(seed, "weights")
        )
    return g


def run(
    graph: Union[str, DiGraph],
    algorithm: Union[str, DeltaProgram],
    engine: str = "lazy-block",
    machines: int = 48,
    partitioner: str = "coordinated",
    policy: Union[str, CoherencyPolicy, None] = None,
    split: Optional[EdgeSplitConfig] = None,
    network: Optional[NetworkModel] = None,
    seed: int = 0,
    max_supersteps: int = 100_000,
    trace: bool = False,
    trace_out: Optional[str] = None,
    trace_format: str = "jsonl",
    tracer: Optional[Tracer] = None,
    lens: bool = False,
    config: Optional[RunConfig] = None,
    **algorithm_params,
) -> EngineResult:
    """Run one algorithm on one graph under one engine; return the result.

    Parameters
    ----------
    graph:
        A registered dataset name (see :func:`repro.dataset_names`) or a
        :class:`~repro.graph.digraph.DiGraph`.
    algorithm:
        A program name (``pagerank``/``sssp``/``cc``/``kcore``/``bfs``)
        or a program instance. Names build the engine's program flavour
        (delta programs for the delta engines, classic GAS programs for
        ``powergraph-gas-sync``); extra keyword arguments go to the
        program constructor (e.g. ``k=10``, ``tolerance=1e-4``,
        ``source=7``).
    engine:
        One of :data:`ENGINE_NAMES` (the engine registry,
        :mod:`repro.runtime.registry`).
    policy:
        The coherency policy: a name (:func:`repro.controller_names` —
        ``"paper"``, ``"simple"``, ``"never"``) or a
        :class:`~repro.core.policy.CoherencyPolicy` instance. Collapses
        the rule choice and its options, wire mode and
        ``max_delta_age`` into one value; lazy engines only.
        Default: the ``"paper"`` policy (bit-identical to the paper's
        rule). The pre-PR-10 ``interval=``/``coherency_mode=`` keywords
        were removed; passing them is a :class:`ConfigError` naming the
        ``policy=`` replacement.
    split:
        Edge-splitter configuration enabling parallel-edges; ``None``
        keeps every edge in one-edge mode. An eager engine refuses a
        split partition (:class:`ConfigError`) unless the algorithm's
        ⊕ is idempotent: it scatters every copy of a parallel edge.
    trace_out / trace_format:
        Write the structured execution trace to ``trace_out`` in
        ``"jsonl"`` or ``"chrome"`` format (implies tracing).
    tracer:
        An explicit :class:`repro.obs.Tracer` to instrument the run with
        (implies tracing; overrides ``trace``/``trace_out`` creation).
    lens:
        Enable the coherency lens (:mod:`repro.obs.lens`) on the lazy
        engines: replica staleness/divergence probes and the
        coherency-decision audit log. Off by default; requesting it on
        an engine without replica laziness is a :class:`ConfigError`.
    config:
        A prebuilt :class:`~repro.runtime.run_config.RunConfig` carrying
        every run-level knob at once; mutually exclusive with the
        individual run-level keyword arguments above.
    """
    from repro.session import GraphSession

    if config is None:
        # from_kwargs (not the bare constructor) so a stray removed knob
        # in **algorithm_params raises its migration ConfigError
        config = RunConfig.from_kwargs(
            engine=engine,
            policy=policy,
            network=network,
            max_supersteps=max_supersteps,
            trace=trace,
            trace_out=trace_out,
            trace_format=trace_format,
            tracer=tracer,
            lens=lens,
            **algorithm_params,
        )
    elif algorithm_params:
        raise ConfigError(
            "pass algorithm params inside config.params when using config="
        )
    with GraphSession.open(
        graph, machines=machines, partitioner=partitioner,
        split=split, seed=seed,
    ) as session:
        return session.run(algorithm, config=config)
