"""Compact directed graph with CSR adjacency in both directions.

Design notes
------------
The engines in this library sweep edges in bulk with vectorized NumPy
kernels (``np.add.at`` / ``np.minimum.at`` style scatter-reductions), so
the graph representation is column-oriented arrays rather than an object
per vertex:

* ``src[e]``, ``dst[e]`` — endpoint arrays indexed by *edge id* (the order
  edges were supplied in). Edge ids are stable: partitioners and the edge
  splitter refer to edges by id.
* Out-CSR and in-CSR adjacency are built lazily on first use and cached;
  both store *edge ids* in their column array, so per-edge attributes
  (weights, transmission mode) can be gathered through either direction
  without duplication.

Vertices are ``0..num_vertices-1``. Self-loops are permitted (graph
algorithms in the paper's evaluation treat them like any edge); parallel
input edges are permitted at this layer (deduplication is a builder/loader
option) — the *parallel-edges* of the paper (§3.3) are a partition-level
concept layered on top and are unrelated to multigraph input edges.
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.errors import GraphError
from repro.utils.keysort import stable_argsort

__all__ = ["DiGraph"]


def _as_edge_array(arr, name: str) -> np.ndarray:
    out = np.asarray(arr)
    if out.ndim != 1:
        raise GraphError(f"{name} must be 1-D, got shape {out.shape}")
    if out.size and not np.issubdtype(out.dtype, np.integer):
        raise GraphError(f"{name} must be integer, got dtype {out.dtype}")
    return out.astype(np.int64, copy=False)


def _run_starts(sorted_keys: np.ndarray) -> np.ndarray:
    """Index of the first element of each run of equal sorted keys."""
    return np.flatnonzero(
        np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    )


class DiGraph:
    """A directed graph over vertices ``0..n-1`` backed by NumPy arrays.

    Parameters
    ----------
    num_vertices:
        Number of vertices ``n``. Vertex ids outside ``[0, n)`` in the
        edge arrays raise :class:`~repro.errors.GraphError`.
    src, dst:
        1-D integer arrays of equal length: edge ``e`` goes
        ``src[e] -> dst[e]``.
    weights:
        Optional 1-D float array of per-edge weights (used by SSSP).
        ``None`` means the graph is unweighted; algorithms that need
        weights treat every edge as weight 1.0.
    name:
        Optional human-readable name (dataset registry fills this in).
    """

    __slots__ = (
        "num_vertices",
        "src",
        "dst",
        "weights",
        "name",
        "_out_indptr",
        "_out_eids",
        "_in_indptr",
        "_in_eids",
        "_out_degree",
        "_in_degree",
    )

    def __init__(
        self,
        num_vertices: int,
        src,
        dst,
        weights=None,
        name: str = "",
    ) -> None:
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        self.num_vertices = int(num_vertices)
        self.src = _as_edge_array(src, "src")
        self.dst = _as_edge_array(dst, "dst")
        if self.src.shape != self.dst.shape:
            raise GraphError(
                f"src and dst must have equal length, got {self.src.size} != {self.dst.size}"
            )
        if self.src.size:
            lo = min(self.src.min(), self.dst.min())
            hi = max(self.src.max(), self.dst.max())
            if lo < 0 or hi >= self.num_vertices:
                raise GraphError(
                    f"edge endpoints must lie in [0, {self.num_vertices}), "
                    f"found range [{lo}, {hi}]"
                )
        if weights is not None:
            weights = np.asarray(weights, dtype=np.float64)
            if weights.shape != self.src.shape:
                raise GraphError(
                    f"weights must match edge count {self.src.size}, got {weights.size}"
                )
        self.weights: Optional[np.ndarray] = weights
        self.name = name
        self._out_indptr: Optional[np.ndarray] = None
        self._out_eids: Optional[np.ndarray] = None
        self._in_indptr: Optional[np.ndarray] = None
        self._in_eids: Optional[np.ndarray] = None
        self._out_degree: Optional[np.ndarray] = None
        self._in_degree: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Basic size accessors
    # ------------------------------------------------------------------
    @property
    def num_edges(self) -> int:
        """Number of directed edges."""
        return int(self.src.size)

    @property
    def ev_ratio(self) -> float:
        """E/V ratio (paper Table 1 column). 0.0 for an empty vertex set."""
        if self.num_vertices == 0:
            return 0.0
        return self.num_edges / self.num_vertices

    def __len__(self) -> int:
        return self.num_vertices

    def __repr__(self) -> str:
        label = f" {self.name!r}" if self.name else ""
        return (
            f"DiGraph(|V|={self.num_vertices}, |E|={self.num_edges}{label}, "
            f"weighted={self.weights is not None})"
        )

    # ------------------------------------------------------------------
    # Degrees
    # ------------------------------------------------------------------
    def out_degrees(self) -> np.ndarray:
        """Out-degree of every vertex as an int64 array (cached)."""
        if self._out_degree is None:
            self._out_degree = np.bincount(
                self.src, minlength=self.num_vertices
            ).astype(np.int64)
        return self._out_degree

    def in_degrees(self) -> np.ndarray:
        """In-degree of every vertex as an int64 array (cached)."""
        if self._in_degree is None:
            self._in_degree = np.bincount(
                self.dst, minlength=self.num_vertices
            ).astype(np.int64)
        return self._in_degree

    def _carry_degrees(
        self,
        parent: "DiGraph",
        removed_eids: np.ndarray,
        added_src: np.ndarray,
        added_dst: np.ndarray,
    ) -> None:
        """Fill the degree caches from ``parent``'s, patched by a batch.

        This graph must be ``parent`` without the edges ``removed_eids``
        plus the edges ``added_src → added_dst``, over at least as many
        vertices (what :func:`~repro.graph.mutation.apply_batch` and
        :func:`~repro.graph.mutation.symmetrized_patch` build). Each
        degree array ``parent`` has cached is patched in O(n + batch)
        instead of counted over E; one it has not stays uncached.
        """
        n = self.num_vertices
        for attr, ends, added in (
            ("_out_degree", parent.src, added_src),
            ("_in_degree", parent.dst, added_dst),
        ):
            old = getattr(parent, attr)
            if old is None:
                continue
            deg = np.zeros(n, dtype=np.int64)
            deg[:old.size] = old
            deg -= np.bincount(ends[removed_eids], minlength=n)
            deg += np.bincount(added, minlength=n)
            setattr(self, attr, deg)

    def degrees(self) -> np.ndarray:
        """Total degree (in + out) of every vertex."""
        return self.out_degrees() + self.in_degrees()

    # ------------------------------------------------------------------
    # CSR adjacency (lazily built, cached)
    # ------------------------------------------------------------------
    def _build_csr(self, keys: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Group edge ids by ``keys`` (src for out-CSR, dst for in-CSR)."""
        n = self.num_vertices
        if keys.size and (keys.min() < 0 or keys.max() >= n):
            raise GraphError(
                f"CSR keys must lie in [0, {n}), found range "
                f"[{keys.min()}, {keys.max()}]"
            )
        order = stable_argsort(keys, n)
        counts = np.bincount(keys, minlength=n)
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return indptr, order

    def out_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indptr, edge_ids)`` grouping edges by source vertex.

        ``edge_ids[indptr[v]:indptr[v+1]]`` are the ids of v's out-edges;
        their targets are ``self.dst[edge_ids[...]]``.
        """
        if self._out_indptr is None:
            self._out_indptr, self._out_eids = self._build_csr(self.src)
        return self._out_indptr, self._out_eids

    def in_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(indptr, edge_ids)`` grouping edges by target vertex."""
        if self._in_indptr is None:
            self._in_indptr, self._in_eids = self._build_csr(self.dst)
        return self._in_indptr, self._in_eids

    def out_neighbors(self, v: int) -> np.ndarray:
        """Targets of v's out-edges (may contain duplicates for multi-edges)."""
        indptr, eids = self.out_csr()
        return self.dst[eids[indptr[v] : indptr[v + 1]]]

    def in_neighbors(self, v: int) -> np.ndarray:
        """Sources of v's in-edges."""
        indptr, eids = self.in_csr()
        return self.src[eids[indptr[v] : indptr[v + 1]]]

    def out_edge_ids(self, v: int) -> np.ndarray:
        """Edge ids of v's out-edges."""
        indptr, eids = self.out_csr()
        return eids[indptr[v] : indptr[v + 1]]

    def in_edge_ids(self, v: int) -> np.ndarray:
        """Edge ids of v's in-edges."""
        indptr, eids = self.in_csr()
        return eids[indptr[v] : indptr[v + 1]]

    # ------------------------------------------------------------------
    # Whole-graph transforms
    # ------------------------------------------------------------------
    def edge_weights(self) -> np.ndarray:
        """Per-edge weights; all-ones if the graph is unweighted."""
        if self.weights is not None:
            return self.weights
        return np.ones(self.num_edges, dtype=np.float64)

    def reverse(self) -> "DiGraph":
        """Graph with every edge direction flipped (weights preserved)."""
        return DiGraph(
            self.num_vertices,
            self.dst.copy(),
            self.src.copy(),
            None if self.weights is None else self.weights.copy(),
            name=f"{self.name}.rev" if self.name else "",
        )

    def pair_table(
        self, scale: Optional[int] = None
    ) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Unordered-pair keys and, on a weighted graph, min weight per pair.

        The keys are ``min(u, v) * scale + max(u, v)`` over every edge
        but self-loops, sorted and deduplicated; ``scale`` defaults to
        ``num_vertices`` and must be at least it. The weights (``None``
        on an unweighted graph) are aligned with the keys.
        """
        scale = np.int64(max(self.num_vertices if scale is None else scale, 1))
        u = np.minimum(self.src, self.dst)
        v = np.maximum(self.src, self.dst)
        keep = u != v
        keys = u[keep] * scale + v[keep]
        if keys.size == 0:
            return keys, (None if self.weights is None else np.empty(0))
        if self.weights is None:
            # keys only: NumPy's default (unstable) sort, not a plain
            # np.unique, which is ~25x slower on NumPy 2.4
            sorted_keys = np.sort(keys)
            return sorted_keys[_run_starts(sorted_keys)], None
        # the min weight per pair reads each pair's run in edge order
        order = stable_argsort(keys, int(scale) ** 2)
        sorted_keys = keys[order]
        starts = _run_starts(sorted_keys)
        sorted_w = self.weights[keep][order]
        return sorted_keys[starts], np.minimum.reduceat(sorted_w, starts)

    def to_undirected_edges(self) -> Tuple[np.ndarray, np.ndarray]:
        """Symmetrized, deduplicated edge arrays (u < v canonical order).

        Self-loops are dropped. Useful for k-core/CC on graphs supplied as
        directed edge lists, matching the usual treatment of SNAP datasets.
        ``algorithms/reference.py`` builds its k-core oracle on this, so it
        keeps NumPy's own ``np.unique`` rather than :meth:`pair_table`.
        """
        u = np.minimum(self.src, self.dst)
        v = np.maximum(self.src, self.dst)
        keep = u != v
        u, v = u[keep], v[keep]
        if u.size == 0:
            return u, v
        key = u * np.int64(self.num_vertices) + v
        _, idx = np.unique(key, return_index=True)
        return u[idx], v[idx]

    def symmetrized(self) -> "DiGraph":
        """Return a graph containing both directions of every edge.

        The result has no duplicate directed edges and no self-loops,
        and is unweighted unless the input carried weights (in which case
        each direction of an edge keeps the minimum weight seen for the
        unordered pair).
        """
        keys, minw = self.pair_table()
        scale = np.int64(max(self.num_vertices, 1))
        u, v = keys // scale, keys % scale
        src = np.concatenate([u, v])
        dst = np.concatenate([v, u])
        weights = None if minw is None else np.concatenate([minw, minw])
        return DiGraph(
            self.num_vertices,
            src,
            dst,
            weights,
            name=f"{self.name}.sym" if self.name else "",
        )

    def with_weights(self, weights) -> "DiGraph":
        """Copy of this graph with the given per-edge weights attached."""
        return DiGraph(self.num_vertices, self.src, self.dst, weights, self.name)

    def subgraph(self, vertices) -> Tuple["DiGraph", np.ndarray]:
        """Induced subgraph on ``vertices``.

        Returns ``(sub, keep)`` where ``sub`` has the selected vertices
        renumbered ``0..k-1`` in ascending original-id order and ``keep``
        is that sorted original-id array (``keep[i]`` is sub-vertex
        ``i``'s original id). Edges with either endpoint outside the set
        are dropped; weights are preserved.
        """
        keep = np.unique(np.asarray(list(vertices), dtype=np.int64))
        if keep.size and (keep[0] < 0 or keep[-1] >= self.num_vertices):
            raise GraphError("subgraph vertex id out of range")
        inside = np.zeros(self.num_vertices, dtype=bool)
        inside[keep] = True
        sel = inside[self.src] & inside[self.dst]
        remap = np.full(self.num_vertices, -1, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        sub = DiGraph(
            int(keep.size),
            remap[self.src[sel]],
            remap[self.dst[sel]],
            None if self.weights is None else self.weights[sel],
            name=f"{self.name}.sub" if self.name else "",
        )
        return sub, keep

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate ``(src, dst)`` pairs in edge-id order (slow; for tests)."""
        for e in range(self.num_edges):
            yield int(self.src[e]), int(self.dst[e])

    def has_edge(self, u: int, v: int) -> bool:
        """True if a directed edge u->v exists (O(out_degree(u)))."""
        return bool(np.any(self.out_neighbors(u) == v))

    # ------------------------------------------------------------------
    # Equality (structural; used by I/O round-trip tests)
    # ------------------------------------------------------------------
    def structurally_equal(self, other: "DiGraph") -> bool:
        """True if both graphs have identical vertex count and edge multiset."""
        if self.num_vertices != other.num_vertices:
            return False
        if self.num_edges != other.num_edges:
            return False
        key_a = np.lexsort((self.dst, self.src))
        key_b = np.lexsort((other.dst, other.src))
        if not (
            np.array_equal(self.src[key_a], other.src[key_b])
            and np.array_equal(self.dst[key_a], other.dst[key_b])
        ):
            return False
        if (self.weights is None) != (other.weights is None):
            return False
        if self.weights is not None:
            return bool(
                np.allclose(self.weights[key_a], other.weights[key_b])
            )
        return True
