"""Graph substrate: directed graphs, I/O, generators, datasets, properties.

The central type is :class:`repro.graph.digraph.DiGraph`, a compact
NumPy-backed directed graph with CSR adjacency in both directions. Every
other subsystem (partitioning, engines, algorithms) consumes this type.
"""

from repro.graph.digraph import DiGraph
from repro.graph.generators import (
    attach_uniform_weights,
    community_graph,
    erdos_renyi_graph,
    powerlaw_graph,
    road_grid_graph,
    web_graph,
)
from repro.graph.datasets import dataset_names, load_dataset, dataset_info
from repro.graph.io import (
    load_dimacs,
    load_edge_list,
    load_npz,
    load_snap,
    save_dimacs,
    save_edge_list,
    save_npz,
)
from repro.graph.properties import GraphProperties, compute_properties

__all__ = [
    "DiGraph",
    "attach_uniform_weights",
    "community_graph",
    "erdos_renyi_graph",
    "powerlaw_graph",
    "road_grid_graph",
    "web_graph",
    "dataset_names",
    "load_dataset",
    "dataset_info",
    "load_edge_list",
    "load_snap",
    "load_dimacs",
    "save_dimacs",
    "load_npz",
    "save_edge_list",
    "save_npz",
    "GraphProperties",
    "compute_properties",
]
