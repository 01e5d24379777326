"""Synthetic graph generators standing in for the paper's real datasets.

The paper evaluates on three classes of real graph (Table 1): **road**
networks (DIMACS), **web** crawls (LAW), and **social** networks (SNAP).
We cannot download those here, so each class gets a generator tuned to
reproduce the structural features that drive the paper's results:

* :func:`road_grid_graph` — perturbed 2-D lattice: near-constant degree,
  huge diameter, strong locality → low replication factor λ under a
  vertex-cut, many SSSP/CC iterations. (Stands in for road_USA / roadNet-CA.)
* :func:`web_graph` — Kleinberg/Kumar *copying model*: heavy-tailed
  in-degrees with link locality → intermediate λ. (Stands in for UK-2005 /
  web-Google.)
* :func:`powerlaw_graph` — R-MAT recursive-matrix sampler: skewed degrees
  on both sides, no locality → high λ. (Stands in for twitter /
  soc-LiveJournal / enwiki / com-youtube.)
* :func:`erdos_renyi_graph` — uniform random baseline for tests.

All generators are deterministic given ``seed`` and vectorized with NumPy.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.errors import GraphError
from repro.graph.digraph import DiGraph
from repro.utils.rng import SeedLike, make_rng

__all__ = [
    "road_grid_graph",
    "web_graph",
    "powerlaw_graph",
    "erdos_renyi_graph",
    "attach_uniform_weights",
]


def _dedup_directed(n: int, src: np.ndarray, dst: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Remove duplicate directed edges (the first copy stays) and
    self-loops, keeping the survivors' order."""
    if src.size == 0:
        return src, dst
    key = src * np.int64(n)
    key += dst
    # the first of each run of equal keys in a stable sort: the indices
    # np.unique(key, return_index=True) returns, without its copies
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.empty(key.size, dtype=bool)
    first[0] = True
    np.not_equal(key[1:], key[:-1], out=first[1:])
    del key
    idx = order[first]
    del order, first
    idx = idx[src[idx] != dst[idx]]  # a self-loop's key is its own
    idx.sort()
    return src[idx], dst[idx]


# ----------------------------------------------------------------------
# Road networks
# ----------------------------------------------------------------------
def road_grid_graph(
    width: int,
    height: int,
    extra_edge_fraction: float = 0.25,
    seed: SeedLike = None,
    name: str = "",
) -> DiGraph:
    """Generate a road-network-like graph on a ``width x height`` lattice.

    Construction: all lattice edges are shuffled; a Kruskal pass keeps
    every edge that joins two components (a random spanning tree without
    DFS-maze corridors — real road networks have modest detour factors,
    and long-corridor mazes would manufacture shortest-path corrections
    no real road graph exhibits), then further random lattice edges are
    kept until ``(1 + extra_edge_fraction) * (n - 1)`` undirected edges
    exist. Every undirected edge is emitted in both directions, matching
    the DIMACS road graphs, for a directed E/V of roughly
    ``2 * (1 + extra_edge_fraction)``.

    The result has near-constant degree and diameter
    ``Θ(width + height)`` — the properties that give road graphs their
    low replication factor and long SSSP/CC convergence in the paper.
    """
    if width < 1 or height < 1:
        raise GraphError(f"grid must be at least 1x1, got {width}x{height}")
    rng = make_rng(seed)
    n = width * height

    # --- all undirected lattice edges, shuffled -------------------------
    xs, ys = np.meshgrid(np.arange(width), np.arange(height))
    vids = (ys * width + xs).ravel()
    right = vids[(xs < width - 1).ravel()]
    down = vids[(ys < height - 1).ravel()]
    all_u = np.concatenate([right, down])
    all_v = np.concatenate([right + 1, down + width])
    perm = rng.permutation(all_u.size)
    all_u, all_v = all_u[perm], all_v[perm]

    # --- Kruskal: spanning tree first, then random extras ---------------
    target = min(all_u.size, int(round((1.0 + extra_edge_fraction) * (n - 1))))
    parent = np.arange(n, dtype=np.int64)

    def find(x: int) -> int:
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    keep_u: "list[int]" = []
    keep_v: "list[int]" = []
    extras_u: "list[int]" = []
    extras_v: "list[int]" = []
    for uu, vv in zip(all_u.tolist(), all_v.tolist()):
        ru, rv = find(uu), find(vv)
        if ru != rv:
            parent[ru] = rv
            keep_u.append(uu)
            keep_v.append(vv)
        else:
            extras_u.append(uu)
            extras_v.append(vv)
    n_extra = max(0, target - len(keep_u))
    keep_u.extend(extras_u[:n_extra])
    keep_v.extend(extras_v[:n_extra])

    u = np.asarray(keep_u, dtype=np.int64)
    v = np.asarray(keep_v, dtype=np.int64)
    src = np.concatenate([u, v])
    dst = np.concatenate([v, u])
    src, dst = _dedup_directed(n, src, dst)
    return DiGraph(n, src, dst, name=name or f"road-grid-{width}x{height}")


# ----------------------------------------------------------------------
# Web graphs (copying model)
# ----------------------------------------------------------------------
def web_graph(
    num_vertices: int,
    avg_out_degree: float,
    copy_prob: float = 0.6,
    window: int = 200,
    global_link_prob: float = 0.05,
    back_link_prob: float = 0.0,
    seed: SeedLike = None,
    name: str = "",
) -> DiGraph:
    """Generate a web-crawl-like graph: copying model with link locality.

    Vertices arrive one at a time (crawl order — real web datasets like
    UK-2005 are ordered lexicographically by URL, so nearby ids share a
    host). Each new page ``t`` emits ``~avg_out_degree`` links:

    * with probability ``copy_prob`` a link *copies* the target of an
      edge whose source lies in the trailing ``window`` (preferential by
      in-degree within the neighbourhood → power-law in-degrees);
    * otherwise it points to a uniform page in the trailing window;
    * independently, with probability ``global_link_prob`` a link is
      rewired to a uniform random earlier page (cross-host links);
    * with probability ``back_link_prob`` per link, the target also
      links back (navigation bars, reciprocal host links) — this is
      what creates the bow-tie's strongly-connected core; the default 0
      keeps pure crawl-order DAG structure.

    The window is what gives web graphs their characteristic *locality*:
    a coordinated vertex-cut can pack a window onto few machines, so the
    replication factor lands between road graphs and social graphs —
    matching the paper's Table 1 ordering.
    """
    if num_vertices < 2:
        raise GraphError("web_graph needs at least 2 vertices")
    if avg_out_degree <= 0:
        raise GraphError("avg_out_degree must be positive")
    if window < 1:
        raise GraphError("window must be >= 1")
    rng = make_rng(seed)
    n = num_vertices
    est_edges = int(avg_out_degree * n * 1.2) + 16
    src_buf = np.empty(est_edges, dtype=np.int64)
    dst_buf = np.empty(est_edges, dtype=np.int64)
    m = 0
    # edge index of the first edge whose source is within the window;
    # advanced lazily as t grows (sources are emitted in increasing order)
    win_edge_lo = 0

    # bootstrap: a small seed clique among the first few vertices
    seed_n = min(4, n)
    for i in range(seed_n):
        for j in range(seed_n):
            if i != j:
                src_buf[m] = i
                dst_buf[m] = j
                m += 1

    for t in range(seed_n, n):
        lo = max(0, t - window)
        while win_edge_lo < m and src_buf[win_edge_lo] < lo:
            win_edge_lo += 1
        k = 1 + rng.poisson(max(avg_out_degree - 1.0, 0.0))
        k = min(k, t)  # cannot link to more distinct pages than exist
        copy_mask = rng.random(k) < copy_prob
        n_copy = int(copy_mask.sum())
        targets = np.empty(k, dtype=np.int64)
        if n_copy:
            if win_edge_lo < m:
                # copy destinations of random recent edges: preferential
                # by in-degree *within the window's neighbourhood*
                targets[copy_mask] = dst_buf[
                    rng.integers(win_edge_lo, m, size=n_copy)
                ]
            else:
                targets[copy_mask] = rng.integers(lo, t, size=n_copy)
        n_rand = k - n_copy
        if n_rand:
            targets[~copy_mask] = rng.integers(lo, t, size=n_rand)
        # occasional cross-host (global) rewiring
        glob = rng.random(k) < global_link_prob
        n_glob = int(glob.sum())
        if n_glob:
            targets[glob] = rng.integers(0, t, size=n_glob)
        back = (
            targets[rng.random(k) < back_link_prob]
            if back_link_prob > 0
            else np.empty(0, dtype=np.int64)
        )
        need = k + back.size
        if m + need > src_buf.size:
            grow = max(src_buf.size // 2, need)
            src_buf = np.concatenate([src_buf, np.empty(grow, dtype=np.int64)])
            dst_buf = np.concatenate([dst_buf, np.empty(grow, dtype=np.int64)])
        src_buf[m : m + k] = t
        dst_buf[m : m + k] = targets
        m += k
        if back.size:
            src_buf[m : m + back.size] = back
            dst_buf[m : m + back.size] = t
            m += back.size

    src, dst = _dedup_directed(n, src_buf[:m], dst_buf[:m])
    return DiGraph(n, src, dst, name=name or f"web-{n}")


# ----------------------------------------------------------------------
# Social networks (R-MAT)
# ----------------------------------------------------------------------
def powerlaw_graph(
    num_vertices: int,
    num_edges: int,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    seed: SeedLike = None,
    name: str = "",
    connect: bool = True,
) -> DiGraph:
    """Generate a social-network-like graph with the R-MAT model.

    Each edge lands in the adjacency matrix by recursively choosing a
    quadrant with probabilities ``(a, b, c, d=1-a-b-c)`` — the standard
    Graph500 parameters by default, which produce the heavy-tailed,
    locality-free degree distributions of twitter-like graphs (and hence
    the paper's highest replication factors).

    ``num_vertices`` is rounded *conceptually* up to a power of two for
    quadrant recursion; samples landing at ids >= ``num_vertices`` are
    redrawn by modular wrap, which slightly flattens the tail but keeps
    the exact requested vertex count. When ``connect`` is set, a random
    Hamiltonian-path backbone is added so CC has a single giant component
    (matching the evaluated real graphs, whose giant component dominates).
    """
    if num_vertices < 2:
        raise GraphError("powerlaw_graph needs at least 2 vertices")
    d = 1.0 - a - b - c
    if min(a, b, c, d) < 0:
        raise GraphError(f"R-MAT probabilities must be >= 0, got d={d:.3f}")
    rng = make_rng(seed)
    n = num_vertices
    levels = max(1, int(np.ceil(np.log2(n))))

    # oversample: dedup + self-loop removal eats some edges
    want = num_edges
    src = dst = np.empty(0, dtype=np.int64)
    attempts = 0
    while src.size < want and attempts < 8:
        batch = int((want - src.size) * 1.35) + 64
        # one quadrant per level, built in place: the draws, two bool
        # scratch rows and the two coordinates are all this allocates
        rows = np.zeros(batch, dtype=np.int64)
        cols = np.zeros(batch, dtype=np.int64)
        r = np.empty(batch)
        down = np.empty(batch, dtype=bool)
        right = np.empty(batch, dtype=bool)
        for _ in range(levels):
            rng.random(out=r)
            # right = (a <= r < a + b) | (r >= a + b + c)
            np.greater_equal(r, a, out=right)
            np.less(r, a + b, out=down)
            right &= down
            np.greater_equal(r, a + b + c, out=down)
            right |= down
            np.greater_equal(r, a + b, out=down)
            rows *= 2
            rows += down
            cols *= 2
            cols += right
        del r, down, right
        rows %= n
        cols %= n
        s, t = _dedup_directed(n, rows, cols)
        del rows, cols
        if attempts:  # the first batch needs no merge
            s, t = _dedup_directed(
                n, np.concatenate([src, s]), np.concatenate([dst, t])
            )
        src, dst = s, t
        attempts += 1
    if src.size > want:
        pick = rng.choice(src.size, size=want, replace=False)
        pick.sort()
        src, dst = src[pick], dst[pick]

    if connect:
        perm = rng.permutation(n).astype(np.int64)
        back_u, back_v = perm[:-1], perm[1:]
        src = np.concatenate([src, back_u])
        dst = np.concatenate([dst, back_v])
        src, dst = _dedup_directed(n, src, dst)

    return DiGraph(n, src, dst, name=name or f"rmat-{n}")


# ----------------------------------------------------------------------
# Community-structured social networks (LFR-lite)
# ----------------------------------------------------------------------
def community_graph(
    num_vertices: int,
    num_edges: int,
    community_mean_size: float = 30.0,
    p_internal: float = 0.9,
    degree_exponent: float = 1.6,
    seed: SeedLike = None,
    name: str = "",
    connect: bool = True,
) -> DiGraph:
    """Generate a community-structured social network (LFR-lite model).

    Vertices are grouped into contiguous communities with lognormal
    sizes around ``community_mean_size``. Each vertex draws a Pareto
    (power-law, shape ``degree_exponent``) out-degree normalized so the
    pre-deduplication edge total is ``num_edges``; each link stays inside
    the vertex's community with probability ``p_internal``, otherwise it
    targets a uniform random vertex.

    This models community-rich social networks (com-youtube,
    soc-LiveJournal): heavy-tailed degrees *with* mesoscale locality,
    which a coordinated vertex-cut exploits — in contrast to the
    locality-free R-MAT model used for twitter/enwiki analogs.
    Deduplication of repeated links makes the realized edge count fall
    short of ``num_edges`` by 10–30% for dense communities; callers
    compensate by oversampling.
    """
    if num_vertices < 2:
        raise GraphError("community_graph needs at least 2 vertices")
    if not 0.0 <= p_internal <= 1.0:
        raise GraphError(f"p_internal must be in [0, 1], got {p_internal}")
    if community_mean_size < 3:
        raise GraphError("community_mean_size must be >= 3")
    rng = make_rng(seed)
    n = num_vertices

    sizes = []
    tot = 0
    while tot < n:
        s = max(3, int(rng.lognormal(np.log(community_mean_size), 0.5)))
        s = min(s, n - tot)
        sizes.append(s)
        tot += s
    sizes_arr = np.asarray(sizes, dtype=np.int64)
    comm_start = np.concatenate([[0], np.cumsum(sizes_arr[:-1])])
    comm_of = np.repeat(np.arange(sizes_arr.size), sizes_arr)
    starts = comm_start[comm_of]
    spans = sizes_arr[comm_of]

    raw = rng.pareto(degree_exponent, size=n) + 1.0
    deg = np.maximum(1, np.round(raw * num_edges / raw.sum())).astype(np.int64)
    src = np.repeat(np.arange(n, dtype=np.int64), deg)
    k = src.size
    internal = rng.random(k) < p_internal
    targets = np.empty(k, dtype=np.int64)
    ni = int(internal.sum())
    if ni:
        targets[internal] = starts[src[internal]] + (
            rng.integers(0, np.iinfo(np.int64).max, size=ni)
            % spans[src[internal]]
        )
    if k - ni:
        targets[~internal] = rng.integers(0, n, size=k - ni)
    src, dst = _dedup_directed(n, src, targets)

    if connect:
        # sequential backbone preserves community id-locality (a random
        # permutation backbone would inject n cross-community edges)
        back = np.arange(n - 1, dtype=np.int64)
        src = np.concatenate([src, back])
        dst = np.concatenate([dst, back + 1])
        src, dst = _dedup_directed(n, src, dst)
    return DiGraph(n, src, dst, name=name or f"community-{n}")


# ----------------------------------------------------------------------
# Uniform random baseline
# ----------------------------------------------------------------------
def erdos_renyi_graph(
    num_vertices: int,
    num_edges: int,
    seed: SeedLike = None,
    name: str = "",
) -> DiGraph:
    """Uniform random directed graph with ``num_edges`` distinct edges."""
    if num_vertices < 1:
        raise GraphError("erdos_renyi_graph needs at least 1 vertex")
    max_edges = num_vertices * (num_vertices - 1)
    if num_edges > max_edges:
        raise GraphError(
            f"requested {num_edges} edges but only {max_edges} distinct "
            f"non-loop edges exist on {num_vertices} vertices"
        )
    rng = make_rng(seed)
    n = num_vertices
    src_parts, dst_parts = [], []
    got = 0
    while got < num_edges:
        batch = int((num_edges - got) * 1.3) + 16
        s = rng.integers(0, n, size=batch)
        t = rng.integers(0, n, size=batch)
        src_parts.append(s)
        dst_parts.append(t)
        ms, mt = _dedup_directed(n, np.concatenate(src_parts), np.concatenate(dst_parts))
        src_parts, dst_parts = [ms], [mt]
        got = ms.size
    src, dst = src_parts[0], dst_parts[0]
    if src.size > num_edges:
        pick = rng.choice(src.size, size=num_edges, replace=False)
        pick.sort()
        src, dst = src[pick], dst[pick]
    return DiGraph(n, src, dst, name=name or f"er-{n}")


def attach_uniform_weights(
    graph: DiGraph,
    low: float = 1.0,
    high: float = 10.0,
    seed: SeedLike = None,
) -> DiGraph:
    """Return a weighted copy of ``graph`` with Uniform(low, high) weights.

    Used to turn unweighted generator output into SSSP inputs, mirroring
    the common practice for SNAP graphs (DIMACS road graphs come with
    real travel-time weights; our road generator output gets uniform
    weights the same way).
    """
    if high < low:
        raise GraphError(f"need low <= high, got [{low}, {high}]")
    rng = make_rng(seed)
    w = rng.uniform(low, high, size=graph.num_edges)
    return graph.with_weights(w)
