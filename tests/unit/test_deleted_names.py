"""Helpers that no production path called stay deleted.

``tests/tools/call_census.py`` found each of these reached only by its
own unit tests: three modules, and names that were a second way to do
what the engines, the partitioner, the session or ``configured`` already
do. The repartition valve went too: on a drifting-community stream the
carried cut already ends below the λ of a cold cut of the session's
graph, and a cold cut recovers more, for less host time, than the valve
did (``tests/integration/test_lambda_drift.py``). No module, export,
attribute, dataclass field, session parameter, CLI flag or page of
``docs/`` brings one back.
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
]


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_deleted(name):
    import repro
    import repro.graph
    import repro.kernels
    import repro.kernels.config
    import repro.partition
    import repro.partition.dynamic
    import repro.session
    import repro.utils
    from repro.graph.mutation import EdgeDiff
    from repro.partition.dynamic import PatchStats
    from repro.partition.metrics import PartitionMetrics
    from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph
    from repro.runtime.result import ReplicaReader
    from repro.session import GraphSession

    if name.startswith("repro."):
        assert importlib.util.find_spec(name) is None
    for module in (repro, repro.utils, repro.graph, repro.kernels,
                   repro.kernels.config, repro.partition,
                   repro.partition.dynamic, repro.session):
        assert name not in vars(module), module.__name__
        assert name not in getattr(module, "__all__", ()), module.__name__
    for cls in (PartitionedGraph, MachineGraph, ReplicaReader,
                PartitionMetrics, EdgeDiff, PatchStats, GraphSession):
        assert name not in dir(cls), cls.__name__
        if dataclasses.is_dataclass(cls):
            fields = {f.name for f in dataclasses.fields(cls)}
            assert name not in fields, cls.__name__
    for doc in DOCS:
        assert name not in doc.read_text(encoding="utf-8"), doc.name


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
