"""repro — a reproduction of LazyGraph (PPoPP'18).

LazyGraph replaces the *eager* replica coherency of PowerGraph-style
distributed graph engines with *lazy* coherency: replicas of a vertex
evolve independent local views and re-converge, by computation, only at
sparse data coherency points. This package reimplements the full system
— graph substrate, vertex-cut partitioning with parallel-edges, a
deterministic cluster simulator, the eager PowerGraph baselines, and the
lazy engines — in pure Python/NumPy. See DESIGN.md for the system map
and EXPERIMENTS.md for paper-vs-measured results.

Quickstart
----------
>>> import repro
>>> result = repro.run("road-usa-mini", "sssp", engine="lazy-block",
...                    machines=8)
>>> result.stats.global_syncs > 0
True
"""

from repro.api import DeltaAlgebra, DeltaProgram, MAX_ALGEBRA, MIN_ALGEBRA, SUM_ALGEBRA
from repro.algorithms import make_program, program_names
from repro.cluster import ClusterSim, CommMode, NetworkModel, RunStats
from repro.core import (
    CoherencyController,
    CoherencyPolicy,
    CoherencySignals,
    LazyBlockAsyncEngine,
    LazyVertexAsyncEngine,
    build_lazy_graph,
    controller_names,
)
from repro.errors import ReproError
from repro.graph import DiGraph, dataset_info, dataset_names, load_dataset
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Tracer,
    export_trace,
    load_trace,
    summarize_trace,
)
from repro.comms import Channel, Delivery, ExchangePlane, PayloadSchema
from repro.partition import EdgeSplitConfig, PartitionedGraph, partition_graph
from repro.powergraph import (
    PowerGraphAsyncEngine,
    PowerGraphGASSyncEngine,
    PowerGraphSyncEngine,
)
from repro.run_api import prepare_graph, run
from repro.runtime import (
    EngineResult,
    EngineSpec,
    RunConfig,
    engine_names,
    engine_specs,
    get_engine,
)
from repro.serve import GraphService, QueryRequest, ServedResult
from repro.session import GraphSession

__version__ = "1.0.0"


def __getattr__(name: str):
    # live view of the engine registry (see repro.run_api.__getattr__):
    # engines registered after import are visible here too
    if name == "ENGINE_NAMES":
        return engine_names()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "run",
    "prepare_graph",
    "ENGINE_NAMES",
    "GraphSession",
    "GraphService",
    "QueryRequest",
    "ServedResult",
    "RunConfig",
    "engine_names",
    "DiGraph",
    "load_dataset",
    "dataset_names",
    "dataset_info",
    "partition_graph",
    "PartitionedGraph",
    "EdgeSplitConfig",
    "build_lazy_graph",
    "DeltaProgram",
    "DeltaAlgebra",
    "SUM_ALGEBRA",
    "MIN_ALGEBRA",
    "MAX_ALGEBRA",
    "make_program",
    "program_names",
    "PowerGraphSyncEngine",
    "PowerGraphAsyncEngine",
    "PowerGraphGASSyncEngine",
    "LazyBlockAsyncEngine",
    "LazyVertexAsyncEngine",
    "EngineSpec",
    "engine_specs",
    "get_engine",
    "ExchangePlane",
    "Channel",
    "Delivery",
    "PayloadSchema",
    "CoherencyController",
    "CoherencyPolicy",
    "CoherencySignals",
    "controller_names",
    "NetworkModel",
    "CommMode",
    "ClusterSim",
    "RunStats",
    "EngineResult",
    "Tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export_trace",
    "load_trace",
    "summarize_trace",
    "ReproError",
    "__version__",
]
