"""Partitioner dispatch and assignment validation.

A *partitioner* is a function ``(graph, num_machines, seed) -> assignment``
where ``assignment[e]`` is the machine id of edge ``e``. All partitioners
in this package are deterministic given the seed, and a placement is a
function of the *topology* — ``(num_vertices, src, dst, num_machines,
seed)`` — never of the edge weights: a session runs the partitioner once
per topology and hands the assignment to every variant of the graph that
differs in weights alone (:class:`~repro.session.GraphSession`).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.errors import PartitionError
from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike

__all__ = ["PARTITIONER_NAMES", "partition_graph", "validate_assignment", "register_partitioner"]

PartitionerFn = Callable[..., np.ndarray]

_PARTITIONERS: Dict[str, PartitionerFn] = {}


def register_partitioner(name: str, fn: PartitionerFn) -> None:
    """Register a partitioner under ``name`` for :func:`partition_graph`.

    ``fn(graph, num_machines, seed=..., **kwargs)`` returns one integer
    machine id per edge. It must depend on ``graph.num_vertices``,
    ``graph.src``, ``graph.dst``, ``num_machines`` and ``seed`` only —
    not on ``graph.weights`` — because a session calls it once per
    topology and shares the result between the weighted and unweighted
    variants of a graph.
    """
    if name in _PARTITIONERS:
        raise PartitionError(f"partitioner {name!r} already registered")
    _PARTITIONERS[name] = fn


def validate_assignment(
    graph: DiGraph, assignment: np.ndarray, num_machines: int
) -> np.ndarray:
    """Check that ``assignment`` maps every edge to a valid machine."""
    assignment = np.asarray(assignment)
    if assignment.dtype.kind not in "iu":
        # a float would be truncated (and NaN turned into a machine id)
        # by the cast below; a bool is a mask, not a placement
        raise PartitionError(
            f"assignment must be an integer array, got dtype {assignment.dtype}"
        )
    if assignment.shape != (graph.num_edges,):
        raise PartitionError(
            f"assignment must have one entry per edge ({graph.num_edges}), "
            f"got shape {assignment.shape}"
        )
    if assignment.size and (
        assignment.min() < 0 or assignment.max() >= num_machines
    ):
        raise PartitionError(
            f"assignment values must lie in [0, {num_machines}), "
            f"found [{assignment.min()}, {assignment.max()}]"
        )
    return assignment.astype(np.int32, copy=False)


def partition_graph(
    graph: DiGraph,
    num_machines: int,
    method: str = "coordinated",
    seed: SeedLike = None,
    **kwargs,
) -> np.ndarray:
    """Assign every edge of ``graph`` to one of ``num_machines`` machines.

    ``method`` is one of :data:`PARTITIONER_NAMES`. Extra keyword args are
    forwarded to the partitioner (e.g. ``degree_threshold`` for hybrid).
    """
    if num_machines < 1:
        raise PartitionError(f"num_machines must be >= 1, got {num_machines}")
    try:
        fn = _PARTITIONERS[method]
    except KeyError:
        raise PartitionError(
            f"unknown partitioner {method!r}; known: {', '.join(sorted(_PARTITIONERS))}"
        ) from None
    assignment = fn(graph, num_machines, seed=seed, **kwargs)
    return validate_assignment(graph, assignment, num_machines)


def _lazy_register_defaults() -> None:
    # Imported late to avoid circular imports at package-init time.
    from repro.partition.coordinated_cut import coordinated_cut
    from repro.partition.edge_cut import edge_cut
    from repro.partition.grid_cut import grid_cut
    from repro.partition.hybrid_cut import hybrid_cut
    from repro.partition.oblivious_cut import oblivious_cut
    from repro.partition.random_cut import random_cut

    defaults: List[Tuple[str, PartitionerFn]] = [
        ("random", random_cut),
        ("grid", grid_cut),
        ("coordinated", coordinated_cut),
        ("oblivious", oblivious_cut),
        ("hybrid", hybrid_cut),
        ("edge", edge_cut),
    ]
    for name, fn in defaults:
        if name not in _PARTITIONERS:
            register_partitioner(name, fn)


class _NamesView:
    """Live, import-safe view of registered partitioner names."""

    def __iter__(self):
        _lazy_register_defaults()
        return iter(sorted(_PARTITIONERS))

    def __contains__(self, item) -> bool:
        _lazy_register_defaults()
        return item in _PARTITIONERS

    def __repr__(self) -> str:
        return repr(tuple(self))


PARTITIONER_NAMES = _NamesView()

# Ensure the registry is populated for direct partition_graph() calls.
_lazy_register_defaults()
