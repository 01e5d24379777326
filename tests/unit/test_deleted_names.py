"""Helpers that no production path called stay deleted.

``tests/tools/call_census.py`` found each of these reached only by its
own unit tests: three modules, and names that were a second way to do
what the engines, the partitioner, the session or ``configured`` already
do. The repartition valve went too: on a drifting-community stream the
carried cut already ends below the λ of a cold cut of the session's
graph, and a cold cut recovers more, for less host time, than the valve
did (``tests/integration/test_lambda_drift.py``). So did the
controller classes and their table: each named policy is one setting of
the paper rule that ``CoherencyPolicy`` applies itself. No module, export,
attribute, dataclass field, session parameter, CLI flag or page of
``docs/`` brings one back.

The census's ``--params`` report found options that no entry point ever
set to anything but the default. Those that were neither an algorithm
parameter nor a seam a test drives a path through are gone from their
signatures and dataclasses: each value is a module constant now, or
only the default path is left (the bidirectional dispatch rule, which
no push-style program needs).
"""

import dataclasses
import importlib.util
import inspect
from pathlib import Path

import pytest

DOCS = sorted((Path(__file__).resolve().parents[2] / "docs").glob("*.md"))

DELETED = [
    "repro.utils.validation",
    "repro.graph.builder",
    "repro.partition.replication",
    "check_type",
    "check_positive",
    "check_nonnegative",
    "check_probability",
    "RngStream",
    "GraphBuilder",
    "dedup_edges",
    "replica_sets",
    "global_to_local",
    "memory_footprint",
    "full_gap",
    "as_row",
    "added_eids",
    "is_identity",
    "repartition_worst",
    "repartition_if_needed",
    "repartitioned_vertices",
    "replica_csr",
    "repartition_threshold",
    "set_config",
    "CoherencyController",
    "SimpleController",
    "NeverLazyController",
    "make_controller",
    "_CONTROLLERS",
]


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_deleted(name):
    import repro
    import repro.graph
    import repro.kernels
    import repro.kernels.config
    import repro.partition
    import repro.partition.dynamic
    import repro.core
    import repro.core.policy
    import repro.session
    import repro.utils
    from repro.graph.mutation import EdgeDiff
    from repro.partition.dynamic import PatchStats
    from repro.partition.metrics import PartitionMetrics
    from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph
    from repro.runtime.result import ReplicaReader
    from repro.core.policy import CoherencyPolicy
    from repro.session import GraphSession

    if name.startswith("repro."):
        assert importlib.util.find_spec(name) is None
    for module in (repro, repro.utils, repro.graph, repro.kernels,
                   repro.kernels.config, repro.partition,
                   repro.partition.dynamic, repro.session, repro.core,
                   repro.core.policy):
        assert name not in vars(module), module.__name__
        assert name not in getattr(module, "__all__", ()), module.__name__
    for cls in (PartitionedGraph, MachineGraph, ReplicaReader,
                PartitionMetrics, EdgeDiff, PatchStats, GraphSession,
                CoherencyPolicy):
        assert name not in dir(cls), cls.__name__
        if dataclasses.is_dataclass(cls):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert name not in fields, cls.__name__
    for doc in DOCS:
        assert name not in doc.read_text(encoding="utf-8"), doc.name


#: (module, function or method, parameter)
DELETED_PARAMETERS = [
    ("repro.partition.partitioned_graph", "PartitionedGraph.build",
     "bidirectional"),
    ("repro.core.transmission", "build_lazy_graph", "bidirectional"),
    ("repro.partition.hybrid_cut", "hybrid_cut", "degree_threshold"),
    ("repro.graph.mutation", "symmetrized_patch", "fill_weight"),
    ("repro.obs.audit", "LensAuditor.__init__", "atol"),
    ("repro.cluster.simulator", "ClusterSim.__init__", "stats"),
    ("repro.cluster.stats", "RunStats.bump", "amount"),
    ("repro.obs.tracer", "Tracer.emit_closed_span", "charges"),
    ("repro.obs.tracer", "NullTracer.emit_closed_span", "charges"),
]

#: (module, dataclass, field)
DELETED_FIELDS = [
    ("repro.partition.edge_splitter", "EdgeSplitConfig",
     "high_degree_percentile"),
    ("repro.partition.edge_splitter", "EdgeSplitConfig",
     "low_degree_percentile"),
    ("repro.partition.edge_splitter", "EdgeSplitConfig", "low_high_ratio"),
    ("repro.partition.partitioned_graph", "PartitionedGraph", "extra_stats"),
]


def _resolve(module, qualname):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module, qualname, name", DELETED_PARAMETERS,
                         ids=[f"{q}-{n}" for _, q, n in DELETED_PARAMETERS])
def test_deleted_parameters_stay_deleted(module, qualname, name):
    params = inspect.signature(_resolve(module, qualname)).parameters
    assert name not in params


@pytest.mark.parametrize("module, cls, name", DELETED_FIELDS,
                         ids=[f"{c}-{n}" for _, c, n in DELETED_FIELDS])
def test_deleted_fields_stay_deleted(module, cls, name):
    klass = _resolve(module, cls)
    assert name not in {f.name for f in dataclasses.fields(klass)}
    assert name not in dir(klass)


def test_partitioners_take_graph_machines_and_seed_only():
    from repro.partition.base import partition_graph
    from repro.partition.hybrid_cut import hybrid_cut

    kinds = {p.kind for p in inspect.signature(partition_graph).parameters.values()}
    assert inspect.Parameter.VAR_KEYWORD not in kinds
    assert list(inspect.signature(hybrid_cut).parameters) == [
        "graph", "num_machines", "seed"
    ]


@pytest.mark.parametrize("method", ["__init__", "open"])
def test_session_takes_no_repartition_threshold(method):
    from repro.session import GraphSession

    params = inspect.signature(getattr(GraphSession, method)).parameters
    assert "repartition_threshold" not in params


def test_mutate_has_no_repartition_flag(capsys):
    from repro.cli import main

    with pytest.raises(SystemExit) as exit_:
        main(["mutate", "--help"])
    assert exit_.value.code == 0
    out = capsys.readouterr().out
    assert "--batch" in out  # the help text did print
    assert "--repartition-threshold" not in out
