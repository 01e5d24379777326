"""Exact-output pins for :meth:`PartitionedGraph.build`.

``test_placement_pins.py`` fixes which machine every edge lands on;
this file fixes everything ``build`` derives from that placement — the
replica CSR, masters, local renumbering and every per-machine array,
dtype included. Engines, golden numbers and the benchmark's modeled
metrics all read these tables, so a rewrite of ``build`` must keep the
SHA-256 digests below byte for byte. They were recorded from the
per-vertex Python-bitmask ``build`` that preceded the pair-table one.
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

# (graph, machines, split) — split is None, "uni" or "bi"
CASES = [
    (g, p, None) for g in ("powerlaw", "road", "tiny") for p in (4, 48)
] + [
    ("isolated", 8, None),
    ("road", 8, "uni"),
    ("powerlaw", 8, "bi"),
]

PINS = {
    ("powerlaw", 4, None): "d82205b3f556f7fcc906a4bbba334aaf3db580eb828a68744ff54b506b1dd16b",
    ("powerlaw", 48, None): "3236fa8cd23c3261207acabf93e5e6c39acda7d2681f7e32aae9f64664c0165d",
    ("road", 4, None): "6dd21d8fdf1a219e322c284af536fa524f945c94b6eb58b52d0f790275b0ac22",
    ("road", 48, None): "c995b357833bd2ba6b0b3f6e1f847c5a4d10407384e88e1a08f93c3c8600a3c6",
    ("tiny", 4, None): "13933ed072b977077e32792ac2dfd6ef698f6bce59ab7afa00f30b92c39e7df3",
    ("tiny", 48, None): "c4be02b80cd4e47732fbf684514a0df3d92b5dda2549510222a055d294baccac",
    ("isolated", 8, None): "344f9e6d20a0e7a2f666290c3ed4ce0cec6b8025906356bc8632e89095bdad98",
    ("road", 8, "uni"): "d437e15ebb1504ad1801c96bd7cef5fe2379f9199950ab8835bb3afb7eab644c",
    ("powerlaw", 8, "bi"): "678a1bc430be51dc4b87a4a5473ee7def671ce20ad517cd7b06f6f590ec18b48",
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
        graph, assignment, machines,
        parallel_eids=parallel, bidirectional=split == "bi",
    )


@pytest.fixture(scope="module")
def graphs():
    return {name: make() for name, make in GRAPHS.items()}


@pytest.mark.parametrize("gname,machines,split", CASES)
def test_build_is_pinned(graphs, gname, machines, split):
    pg = build_case(graphs[gname], machines, split)
    pg.validate()
    assert digest(pg) == PINS[(gname, machines, split)]
