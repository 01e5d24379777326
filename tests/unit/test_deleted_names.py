"""Helpers that no production path called stay deleted.

``tests/tools/call_census.py`` found each of these reached only by its
own unit tests: two modules, and names that were a second way to do what
the engines, the partitioner or the session already do. No module,
export, attribute or page of ``docs/`` brings one back.
"""

import importlib.util
from pathlib import Path

import pytest

DOCS = sorted((Path(__file__).resolve().parents[2] / "docs").glob("*.md"))

DELETED = [
    "repro.utils.validation",
    "repro.graph.builder",
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
]


@pytest.mark.parametrize("name", DELETED)
def test_deleted_names_stay_deleted(name):
    import repro
    import repro.graph
    import repro.partition
    import repro.utils
    from repro.graph.mutation import EdgeDiff
    from repro.partition.metrics import PartitionMetrics
    from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph
    from repro.runtime.result import ReplicaReader

    if name.startswith("repro."):
        assert importlib.util.find_spec(name) is None
    for module in (repro, repro.utils, repro.graph, repro.partition):
        assert name not in vars(module), module.__name__
        assert name not in getattr(module, "__all__", ()), module.__name__
    for cls in (PartitionedGraph, MachineGraph, ReplicaReader,
                PartitionMetrics, EdgeDiff):
        assert name not in dir(cls), cls.__name__
    for doc in DOCS:
        assert name not in doc.read_text(encoding="utf-8"), doc.name
