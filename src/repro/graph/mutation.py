"""Dynamic-graph mutations: validated batches and structural patches.

A :class:`MutationBatch` describes one atomic change to a graph — vertex
additions, vertex removals (drop every incident edge; the id slot stays),
directed-edge removals and directed-edge additions. Batches are built
incrementally, compose with :meth:`MutationBatch.merge`, round-trip
through JSON (:meth:`to_dict` / :meth:`from_dict` — the wire format the
``repro mutate`` CLI and the serving layer's ``mutate`` verb speak), and
are validated against the graph they are applied to.

:func:`apply_batch` materializes the patched graph with a deliberate
edge layout: **every kept edge first, in its original relative order,
then the added edges**. The returned :class:`EdgeDiff` is therefore a
complete old-id ↔ new-id correspondence for free, which is what lets the
partition layer (:mod:`repro.partition.dynamic`) carry edge→machine
assignments across a mutation instead of cutting the graph from scratch.

:func:`symmetrized_patch` lifts a base-graph change onto a cached
*symmetrized* prepared graph (what ``requires_symmetric`` programs run
on) without re-running the full symmetrization: only unordered pairs
whose multiplicity crossed zero — or whose min-weight changed — turn
into removed/added edge pairs; everything else keeps its edge id slot.

Both patches also carry the input graph's cached out- and in-degrees
to the patched graph by the batch (O(n + batch)), so nothing after a
mutation counts degrees over every edge again.

:func:`compose_edge_delta` folds the diffs of consecutive patches into
the net ``(removed, inserted)`` edge ids between the first and the last
graph — what a warm start after several batches is planned from,
without ever comparing two graphs.

Removal semantics: ``remove_edge(u, v)`` removes *all* parallel copies
of the directed edge ``u→v`` present before the batch; additions are
appended after removals, so remove+add of the same pair in one batch is
"replace". Vertex ids are never renumbered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.utils.keysort import isin_sorted

__all__ = [
    "MutationBatch",
    "EdgeDiff",
    "compose_edge_delta",
    "apply_batch",
    "symmetrized_patch",
]


@dataclass(frozen=True)
class EdgeDiff:
    """Old-id ↔ new-id correspondence produced by a graph patch.

    The patched graph's edge array is ``old[kept_eids] ++ added``: new
    edge ``e < num_kept`` is old edge ``kept_eids[e]``; new edges
    ``num_kept .. num_kept+num_added-1`` are the additions in batch
    order.
    """

    kept_eids: np.ndarray  # old edge ids kept, ascending (original order)
    removed_eids: np.ndarray  # old edge ids dropped, ascending
    added_src: np.ndarray  # (num_added,) global source ids
    added_dst: np.ndarray  # (num_added,) global target ids
    num_vertices_before: int
    num_vertices_after: int

    @property
    def num_kept(self) -> int:
        return int(self.kept_eids.size)

    @property
    def num_removed(self) -> int:
        return int(self.removed_eids.size)

    @property
    def num_added(self) -> int:
        return int(self.added_src.size)

    def summary(self) -> str:
        return (
            f"EdgeDiff(kept={self.num_kept}, removed={self.num_removed}, "
            f"added={self.num_added}, vertices="
            f"{self.num_vertices_before}->{self.num_vertices_after})"
        )


def compose_edge_delta(
    num_edges: int, steps: Iterable[Tuple[np.ndarray, int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Net edge delta of consecutive patches: ``(removed, inserted)``.

    ``steps`` holds, oldest first, each patch's
    ``(EdgeDiff.removed_eids, EdgeDiff.num_added)`` — all a kept ++
    added layout needs to be replayed — starting from a graph with
    ``num_edges`` edges. Returns the ids *in that first graph* of the
    edges the last graph no longer has, and the ids *in the last graph*
    of the edges the first one did not have, both ascending. An edge
    added and removed again inside the span appears in neither; an edge
    removed and re-added appears in both (the new copy is a new edge).
    """
    # every patched graph is (first-graph survivors, in order) ++ (edges
    # born in the span, in order): the survivors are all of the first
    # graph but the ascending ``gone``, and the born ones only count
    gone = np.empty(0, dtype=np.int64)
    born = 0
    for removed_eids, num_added in steps:
        removed_eids = np.asarray(removed_eids, dtype=np.int64)
        survivors = num_edges - gone.size
        rank = removed_eids[removed_eids < survivors]
        # survivor ``rank`` is first-graph id ``rank + (gone ids before
        # it)``; ``gone[j] - j`` survivors precede gone id ``j``
        first_ids = rank + np.searchsorted(
            gone - np.arange(gone.size), rank, side="right"
        )
        gone = np.sort(np.concatenate([gone, first_ids]))
        born += int(num_added) - (removed_eids.size - rank.size)
    start = num_edges - gone.size
    return gone, np.arange(start, start + born, dtype=np.int64)


class MutationBatch:
    """A validated, composable set of graph mutations.

    Build incrementally (every mutator returns ``self`` for chaining)::

        batch = (MutationBatch()
                 .add_vertices(2)
                 .add_edge(0, 5, weight=2.5)
                 .remove_edge(3, 4)
                 .remove_vertex(7))

    Nothing is checked until the batch meets a graph
    (:meth:`validate` / :func:`apply_batch`); a batch is a pure
    description and can target any graph it is consistent with.
    """

    def __init__(self) -> None:
        self._new_vertices = 0
        self._add: List[Tuple[int, int]] = []
        self._add_weights: List[Optional[float]] = []
        self._remove: List[Tuple[int, int]] = []
        self._remove_vertices: List[int] = []

    # -- builders ------------------------------------------------------
    def add_vertices(self, count: int) -> "MutationBatch":
        """Grow the vertex set by ``count`` fresh ids (appended at the end)."""
        if count < 0:
            raise GraphError(f"add_vertices count must be >= 0, got {count}")
        self._new_vertices += int(count)
        return self

    def add_edge(
        self, u: int, v: int, weight: Optional[float] = None
    ) -> "MutationBatch":
        """Append a directed edge ``u -> v`` (optionally weighted)."""
        self._add.append((int(u), int(v)))
        self._add_weights.append(None if weight is None else float(weight))
        return self

    def add_edges(
        self, pairs: Sequence[Tuple[int, int]], weights=None
    ) -> "MutationBatch":
        """Append many directed edges; ``weights`` aligns with ``pairs``."""
        pairs = list(pairs)
        if weights is not None and len(weights) != len(pairs):
            raise GraphError(
                f"weights must align with pairs "
                f"({len(weights)} != {len(pairs)})"
            )
        for i, (u, v) in enumerate(pairs):
            self.add_edge(u, v, None if weights is None else weights[i])
        return self

    def remove_edge(self, u: int, v: int) -> "MutationBatch":
        """Remove every pre-batch copy of the directed edge ``u -> v``."""
        self._remove.append((int(u), int(v)))
        return self

    def remove_edges(
        self, pairs: Sequence[Tuple[int, int]]
    ) -> "MutationBatch":
        for u, v in pairs:
            self.remove_edge(u, v)
        return self

    def remove_vertex(self, v: int) -> "MutationBatch":
        """Isolate vertex ``v``: drop all incident edges (the id stays)."""
        self._remove_vertices.append(int(v))
        return self

    def remove_vertices(self, vs: Sequence[int]) -> "MutationBatch":
        for v in vs:
            self.remove_vertex(v)
        return self

    def explicit_weights(self) -> List[Optional[float]]:
        """Per-added-edge explicit weights (``None`` where unspecified).

        Aligned with the batch's addition order; lets a caller that
        synthesizes weights (session graphs with attached uniform
        weights) honor the weights a batch *did* spell out.
        """
        return list(self._add_weights)

    def without_weights(self) -> "MutationBatch":
        """Copy of the batch with every added-edge weight dropped.

        Used when one logical batch targets several prepared-graph
        variants: weights apply to the weighted variants and are
        stripped for the unweighted ones.
        """
        out = MutationBatch()
        out._new_vertices = self._new_vertices
        out._add = list(self._add)
        out._add_weights = [None] * len(self._add)
        out._remove = list(self._remove)
        out._remove_vertices = list(self._remove_vertices)
        return out

    def merge(self, other: "MutationBatch") -> "MutationBatch":
        """New batch applying ``self`` then ``other`` as one atomic change.

        Both batches must target the *same* pre-mutation graph: the
        merged removals still act on the pre-batch edge set, and
        ``other``'s vertex ids are not shifted by ``self``'s additions.
        """
        out = MutationBatch()
        out._new_vertices = self._new_vertices + other._new_vertices
        out._add = self._add + other._add
        out._add_weights = self._add_weights + other._add_weights
        out._remove = self._remove + other._remove
        out._remove_vertices = self._remove_vertices + other._remove_vertices
        return out

    # -- introspection -------------------------------------------------
    @property
    def num_added_edges(self) -> int:
        return len(self._add)

    @property
    def num_removed_edges(self) -> int:
        return len(self._remove)

    @property
    def num_added_vertices(self) -> int:
        return self._new_vertices

    @property
    def num_removed_vertices(self) -> int:
        return len(self._remove_vertices)

    def is_empty(self) -> bool:
        return not (
            self._new_vertices
            or self._add
            or self._remove
            or self._remove_vertices
        )

    def __len__(self) -> int:
        """Total mutation count (edges + vertices, both directions)."""
        return (
            len(self._add)
            + len(self._remove)
            + len(self._remove_vertices)
            + self._new_vertices
        )

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"MutationBatch(+V={self._new_vertices}, "
            f"-V={len(self._remove_vertices)}, +E={len(self._add)}, "
            f"-E={len(self._remove)})"
        )

    # -- wire format ---------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """JSON-compatible representation (the CLI/serve wire format)."""
        out: Dict[str, Any] = {}
        if self._new_vertices:
            out["add_vertices"] = self._new_vertices
        if self._add:
            out["add_edges"] = [
                [u, v] if w is None else [u, v, w]
                for (u, v), w in zip(self._add, self._add_weights)
            ]
        if self._remove:
            out["remove_edges"] = [[u, v] for u, v in self._remove]
        if self._remove_vertices:
            out["remove_vertices"] = list(self._remove_vertices)
        return out

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "MutationBatch":
        """Parse the :meth:`to_dict` wire format (strict on unknown keys)."""
        if not isinstance(data, dict):
            raise GraphError(
                f"mutation batch must be a JSON object, got {type(data).__name__}"
            )
        known = {"add_vertices", "add_edges", "remove_edges", "remove_vertices"}
        unknown = set(data) - known
        if unknown:
            raise GraphError(
                f"unknown mutation batch keys {sorted(unknown)}; "
                f"known: {sorted(known)}"
            )
        batch = cls()
        batch.add_vertices(int(data.get("add_vertices", 0)))
        for entry in data.get("add_edges", ()):
            if len(entry) == 2:
                batch.add_edge(entry[0], entry[1])
            elif len(entry) == 3:
                batch.add_edge(entry[0], entry[1], weight=entry[2])
            else:
                raise GraphError(
                    f"add_edges entries must be [u, v] or [u, v, w], "
                    f"got {entry!r}"
                )
        for entry in data.get("remove_edges", ()):
            if len(entry) != 2:
                raise GraphError(
                    f"remove_edges entries must be [u, v], got {entry!r}"
                )
            batch.remove_edge(entry[0], entry[1])
        batch.remove_vertices(
            [int(v) for v in data.get("remove_vertices", ())]
        )
        return batch

    # -- validation ----------------------------------------------------
    def validate(self, graph: DiGraph) -> Optional[np.ndarray]:
        """Check the batch is applicable to ``graph`` (raises GraphError).

        Returns the mask of ``graph``'s edges its ``remove_edge`` targets
        hit (``None`` when it removes no edge), so that
        :func:`apply_batch` scans the edge array for them once.
        """
        n = graph.num_vertices
        n_after = n + self._new_vertices
        for u, v in self._add:
            if not (0 <= u < n_after and 0 <= v < n_after):
                raise GraphError(
                    f"add_edge({u}, {v}): endpoints must lie in "
                    f"[0, {n_after}) (graph has {n} vertices, batch adds "
                    f"{self._new_vertices})"
                )
        for v in self._remove_vertices:
            if not (0 <= v < n):
                raise GraphError(
                    f"remove_vertex({v}): id must lie in [0, {n})"
                )
        hit = None
        if self._remove:
            pairs = np.asarray(self._remove, dtype=np.int64)
            if pairs.size and (
                pairs.min() < 0 or pairs.max() >= n
            ):
                bad = [
                    (u, v)
                    for u, v in self._remove
                    if not (0 <= u < n and 0 <= v < n)
                ]
                raise GraphError(
                    f"remove_edge endpoints out of [0, {n}): {bad[:5]}"
                )
            keys = pairs[:, 0] * np.int64(n) + pairs[:, 1]
            # one table lookup per edge finds the few edges leaving a
            # removal's source; only those are keyed and matched
            from_source = np.zeros(n, dtype=bool)
            from_source[pairs[:, 0]] = True
            near = np.flatnonzero(from_source[graph.src])
            near_keys = graph.src[near] * np.int64(n) + graph.dst[near]
            on = np.isin(near_keys, keys)
            present = np.isin(keys, near_keys[on])
            if not present.all():
                missing = [
                    self._remove[i]
                    for i in np.flatnonzero(~present)[:5].tolist()
                ]
                raise GraphError(
                    f"remove_edge targets not present in the graph: "
                    f"{missing}"
                )
            hit = np.zeros(graph.num_edges, dtype=bool)
            hit[near[on]] = True
        weighted_adds = any(w is not None for w in self._add_weights)
        if weighted_adds and graph.weights is None:
            raise GraphError(
                "batch carries edge weights but the graph is unweighted"
            )
        return hit

    def added_weights_for(self, graph: DiGraph) -> Optional[np.ndarray]:
        """Weights for the added edges against ``graph``'s weightedness.

        Weighted graph: explicit batch weights, 1.0 where unspecified.
        Unweighted graph: ``None`` (explicit weights are a validation
        error there).
        """
        if graph.weights is None:
            return None
        return np.array(
            [1.0 if w is None else w for w in self._add_weights],
            dtype=np.float64,
        )


def apply_batch(
    graph: DiGraph, batch: MutationBatch
) -> Tuple[DiGraph, EdgeDiff]:
    """Apply ``batch`` to ``graph``; return the patched graph + edge diff.

    The result's edge order is ``kept-in-original-order ++ added`` (see
    :class:`EdgeDiff`), its name is preserved, and the input graph is
    untouched.
    """
    removed = batch.validate(graph)
    n = graph.num_vertices
    n_after = n + batch.num_added_vertices

    if removed is None:
        removed = np.zeros(graph.num_edges, dtype=bool)
    if batch._remove_vertices:
        rv = np.unique(
            np.asarray(batch._remove_vertices, dtype=np.int64)
        )
        removed |= np.isin(graph.src, rv) | np.isin(graph.dst, rv)

    kept = np.flatnonzero(~removed).astype(np.int64)
    removed_ids = np.flatnonzero(removed).astype(np.int64)
    if batch._add:
        add_arr = np.asarray(batch._add, dtype=np.int64)
        added_src, added_dst = add_arr[:, 0], add_arr[:, 1]
    else:
        added_src = added_dst = np.empty(0, dtype=np.int64)

    new_src = np.concatenate([graph.src[kept], added_src])
    new_dst = np.concatenate([graph.dst[kept], added_dst])
    weights = None
    if graph.weights is not None:
        add_w = batch.added_weights_for(graph)
        weights = np.concatenate([graph.weights[kept], add_w])
    new_graph = DiGraph(n_after, new_src, new_dst, weights, name=graph.name)
    new_graph._carry_degrees(graph, removed_ids, added_src, added_dst)
    diff = EdgeDiff(
        kept_eids=kept,
        removed_eids=removed_ids,
        added_src=added_src.copy(),
        added_dst=added_dst.copy(),
        num_vertices_before=n,
        num_vertices_after=n_after,
    )
    return new_graph, diff


# ----------------------------------------------------------------------
def symmetrized_patch(
    old_sym: DiGraph,
    old_base: DiGraph,
    new_base: DiGraph,
) -> Tuple[DiGraph, EdgeDiff]:
    """Lift a base-graph change onto its cached symmetrized graph.

    ``old_sym`` must be (structurally) ``old_base.symmetrized()``; the
    result is structurally ``new_base.symmetrized()`` but laid out as
    kept-``old_sym``-edges ++ added, so the accompanying
    :class:`EdgeDiff` lets the partition layer patch instead of rebuild.

    Only unordered pairs whose base multiplicity crossed zero, or (on
    weighted bases) whose per-pair min weight changed, are treated as
    removed/added — weight changes replace both directions so the diff
    stays a pure remove+add story.

    When ``old_sym`` carries weights the bases do not have (synthetic
    weights attached after symmetrization), kept edges keep their
    weights and added edges get weight 1.0; the caller owns
    overwriting ``weights[diff.num_kept:]`` with real values.
    """
    n_after = new_base.num_vertices
    scale = np.int64(max(n_after, 1))
    old_keys, old_w = old_base.pair_table(scale)
    new_keys, new_w = new_base.pair_table(scale)

    # pair tables are sorted and duplicate-free, and so are both key
    # sets derived from them below
    gone = ~isin_sorted(old_keys, new_keys)
    born = ~isin_sorted(new_keys, old_keys)
    removed_keys = old_keys[gone]
    added_keys = new_keys[born]
    if old_w is not None and new_w is not None:
        # surviving pairs whose min base weight moved: replace both
        # directions (remove + re-add at the new weight)
        old_surv = ~gone
        pos = np.searchsorted(new_keys, old_keys[old_surv])
        changed = old_keys[old_surv][old_w[old_surv] != new_w[pos]]
        removed_keys = np.union1d(removed_keys, changed)
        added_keys = np.union1d(added_keys, changed)

    sym_keys = (
        np.minimum(old_sym.src, old_sym.dst) * scale
        + np.maximum(old_sym.src, old_sym.dst)
    )
    removed_mask = isin_sorted(sym_keys, removed_keys)
    kept = np.flatnonzero(~removed_mask).astype(np.int64)
    removed_ids = np.flatnonzero(removed_mask).astype(np.int64)

    add_u = (added_keys // scale).astype(np.int64)
    add_v = (added_keys % scale).astype(np.int64)
    added_src = np.concatenate([add_u, add_v])
    added_dst = np.concatenate([add_v, add_u])

    new_src = np.concatenate([old_sym.src[kept], added_src])
    new_dst = np.concatenate([old_sym.dst[kept], added_dst])
    weights = None
    if old_sym.weights is not None:
        if new_w is not None:
            pos = np.searchsorted(new_keys, added_keys)
            half = new_w[pos]
        else:
            half = np.ones(added_keys.size)
        weights = np.concatenate(
            [old_sym.weights[kept], half, half]
        )
    new_sym = DiGraph(
        n_after, new_src, new_dst, weights, name=old_sym.name
    )
    new_sym._carry_degrees(old_sym, removed_ids, added_src, added_dst)
    diff = EdgeDiff(
        kept_eids=kept,
        removed_eids=removed_ids,
        added_src=added_src,
        added_dst=added_dst,
        num_vertices_before=old_sym.num_vertices,
        num_vertices_after=n_after,
    )
    return new_sym, diff
