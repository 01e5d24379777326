"""Exact-output pins for :meth:`PartitionedGraph.build`.

``test_placement_pins.py`` fixes which machine every edge lands on;
this file fixes everything ``build`` derives from that placement — the
replica CSR, masters, local renumbering and every per-machine array,
dtype included. Engines, golden numbers and the benchmark's modeled
metrics all read these tables, so a rewrite of ``build`` must keep the
SHA-256 digests below byte for byte. The vertex-side and replica-table
arrays were recorded from the per-vertex Python-bitmask ``build`` that
preceded the pair-table one. The per-edge arrays were re-recorded when
local edges moved to source order, after checking on every case that
each equals the placement-ordered array it replaced gathered by that
array's stable source order (the delta out-plan's order), and that
every other array is unchanged.
"""

import hashlib
from dataclasses import fields

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_graph, road_grid_graph
from repro.partition.coordinated_cut import coordinated_cut
from repro.partition.edge_splitter import EdgeSplitConfig, select_parallel_edges
from repro.partition.partitioned_graph import MachineGraph, PartitionedGraph

SEED = 5

PGRAPH_FIELDS = (
    "master_of", "rep_indptr", "rep_machines", "rep_local_idx",
    "num_replicas", "assignment", "parallel_eids",
)
MACHINE_FIELDS = tuple(
    f.name for f in fields(MachineGraph) if f.name != "machine_id"
)


def _isolated():
    # half the vertices have no edge at all: home machines come from the
    # per-vertex hash, not from any placement
    base = powerlaw_graph(300, 1500, seed=3)
    return DiGraph(600, base.src * 2, base.dst * 2)


GRAPHS = {
    "powerlaw": lambda: powerlaw_graph(2000, 12000, seed=3),
    "road": lambda: road_grid_graph(40, 40, seed=3),
    "tiny": lambda: road_grid_graph(3, 3, seed=3),
    "isolated": _isolated,
}

# (graph, machines, split) — split is None or "uni" (parallel edges
# dispatched to their target's machines)
CASES = [
    (g, p, None) for g in ("powerlaw", "road", "tiny") for p in (4, 48)
] + [
    ("isolated", 8, None),
    ("road", 8, "uni"),
]

PINS = {
    ("powerlaw", 4, None): "a72330d6b19f6cd1aa3a133fc321424ca2aa08776ce076f367082b6ff63c5484",
    ("powerlaw", 48, None): "9f4b79cda826768451ecd33735d5370b5e2fc594bcdaa2dbb7a1f2601c99619c",
    ("road", 4, None): "40140716dde723879ff92d51a27585c652d547e89e4106c7956241649b4be984",
    ("road", 48, None): "8f0c3356028a138c839ce8c0936cc2e12f11d16f929351a24619bbd6c5fc43ef",
    ("tiny", 4, None): "4b7847f7fa3a7a699ab5368641510426aebc168fb1ca9290c7eb44ddb690d12e",
    ("tiny", 48, None): "c4be02b80cd4e47732fbf684514a0df3d92b5dda2549510222a055d294baccac",
    ("isolated", 8, None): "454c79cd034e0ecac7b92a5da960fe6e4f099c13a95d184708129d44c16398a7",
    ("road", 8, "uni"): "c5b8506538ef695739a089b0b8cc5c174c4a063cdbeae499ea8040370d789391",
}


def digest(pg: PartitionedGraph) -> str:
    h = hashlib.sha256()

    def feed(label: str, arr: np.ndarray) -> None:
        h.update(f"{label}:{arr.dtype.str}:{arr.shape}".encode())
        h.update(np.ascontiguousarray(arr).tobytes())

    for name in PGRAPH_FIELDS:
        feed(name, getattr(pg, name))
    assert [mg.machine_id for mg in pg.machines] == list(range(pg.num_machines))
    for mg in pg.machines:
        for name in MACHINE_FIELDS:
            feed(f"m{mg.machine_id}.{name}", getattr(mg, name))
    return h.hexdigest()


def build_case(graph: DiGraph, machines: int, split) -> PartitionedGraph:
    assignment = coordinated_cut(graph, machines, seed=SEED)
    parallel = None
    if split is not None:
        parallel = select_parallel_edges(
            graph, machines, EdgeSplitConfig(textra=0.02)
        )
        assert parallel.size > 0
    return PartitionedGraph.build(
        graph, assignment, machines, parallel_eids=parallel
    )


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


@pytest.mark.parametrize("gname,machines,split", CASES)
def test_build_is_pinned(graphs, gname, machines, split):
    pg = build_case(graphs[gname], machines, split)
    pg.validate()
    assert digest(pg) == PINS[(gname, machines, split)]
