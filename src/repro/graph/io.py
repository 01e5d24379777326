"""Graph file I/O.

Supported formats
-----------------
* **edge list** — one ``src dst [weight]`` per line, ``#``/``%`` comments.
* **SNAP** — the Stanford Large Network Dataset Collection plain-text
  format (same as edge list with ``#`` headers); the paper's social and
  web graphs ship in this format.
* **DIMACS** — the 9th DIMACS shortest-path challenge ``.gr`` format
  (``c`` comment lines, one ``p sp <n> <m>`` problem line, ``a u v w``
  arc lines with 1-based vertex ids); the paper's road graphs ship in
  this format.
* **npz** — NumPy binary round-trip format (fast, lossless, used for
  caching generated datasets).
"""

from __future__ import annotations

import os
from typing import List, Optional, Union

import numpy as np

from repro.errors import GraphFormatError
from repro.graph.digraph import DiGraph

__all__ = [
    "load_edge_list",
    "save_edge_list",
    "load_snap",
    "load_dimacs",
    "save_dimacs",
    "load_npz",
    "save_npz",
]

PathLike = Union[str, "os.PathLike[str]"]
_COMMENT_PREFIXES = ("#", "%")


def _parse_edge_lines(
    lines, path: str, weighted: Optional[bool]
) -> "tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]":
    src: List[int] = []
    dst: List[int] = []
    wts: List[float] = []
    saw_weight = False
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith(_COMMENT_PREFIXES):
            continue
        parts = line.replace(",", " ").split()
        if len(parts) < 2:
            raise GraphFormatError(
                f"{path}:{lineno}: expected 'src dst [weight]', got {line!r}"
            )
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise GraphFormatError(
                f"{path}:{lineno}: non-integer vertex id in {line!r}"
            ) from exc
        src.append(u)
        dst.append(v)
        if len(parts) >= 3 and weighted is not False:
            try:
                wts.append(float(parts[2]))
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-numeric weight in {line!r}"
                ) from exc
            saw_weight = True
        elif saw_weight:
            raise GraphFormatError(
                f"{path}:{lineno}: weight column present on some lines but not all"
            )
    if weighted is True and not saw_weight and src:
        raise GraphFormatError(f"{path}: weighted=True but no weight column found")
    s = np.asarray(src, dtype=np.int64)
    d = np.asarray(dst, dtype=np.int64)
    w = np.asarray(wts, dtype=np.float64) if saw_weight else None
    return s, d, w


def load_edge_list(
    path: PathLike,
    num_vertices: Optional[int] = None,
    weighted: Optional[bool] = None,
    name: str = "",
) -> DiGraph:
    """Load a plain-text edge list.

    Parameters
    ----------
    num_vertices:
        Vertex count; inferred as ``max id + 1`` when omitted.
    weighted:
        ``True`` to require a weight column, ``False`` to ignore one,
        ``None`` (default) to auto-detect.
    """
    path = os.fspath(path)
    with open(path, "r", encoding="utf-8") as fh:
        src, dst, w = _parse_edge_lines(fh, path, weighted)
    if num_vertices is None:
        num_vertices = int(max(src.max(), dst.max())) + 1 if src.size else 0
    return DiGraph(num_vertices, src, dst, w, name=name or os.path.basename(path))


def load_snap(path: PathLike, name: str = "") -> DiGraph:
    """Load a SNAP-format graph (plain edge list with ``#`` headers)."""
    return load_edge_list(path, weighted=False, name=name)


def save_edge_list(graph: DiGraph, path: PathLike, header: bool = True) -> None:
    """Write ``graph`` as a plain-text edge list (weights included if any)."""
    path = os.fspath(path)
    with open(path, "w", encoding="utf-8") as fh:
        if header:
            fh.write(f"# repro edge list |V|={graph.num_vertices} |E|={graph.num_edges}\n")
        if graph.weights is None:
            for e in range(graph.num_edges):
                fh.write(f"{graph.src[e]} {graph.dst[e]}\n")
        else:
            for e in range(graph.num_edges):
                fh.write(f"{graph.src[e]} {graph.dst[e]} {graph.weights[e]:.10g}\n")


def load_dimacs(path: PathLike, name: str = "") -> DiGraph:
    """Load a 9th-DIMACS-challenge ``.gr`` shortest-path graph.

    Vertex ids in the file are 1-based and converted to 0-based; arc
    weights are preserved as floats.
    """
    path = os.fspath(path)
    n: Optional[int] = None
    m_declared: Optional[int] = None
    src: List[int] = []
    dst: List[int] = []
    wts: List[float] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("c"):
                continue
            parts = line.split()
            try:
                if parts[0] == "p":
                    if len(parts) != 4 or parts[1] != "sp":
                        raise GraphFormatError(
                            f"{path}:{lineno}: malformed problem line {line!r}"
                        )
                    if n is not None:
                        raise GraphFormatError(f"{path}:{lineno}: duplicate problem line")
                    n, m_declared = int(parts[2]), int(parts[3])
                elif parts[0] == "a":
                    if len(parts) != 4:
                        raise GraphFormatError(
                            f"{path}:{lineno}: malformed arc line {line!r}"
                        )
                    if n is None:
                        raise GraphFormatError(
                            f"{path}:{lineno}: arc line before problem line"
                        )
                    u, v = int(parts[1]) - 1, int(parts[2]) - 1
                    if not (0 <= u < n and 0 <= v < n):
                        raise GraphFormatError(
                            f"{path}:{lineno}: vertex id out of range in {line!r}"
                        )
                    src.append(u)
                    dst.append(v)
                    wts.append(float(parts[3]))
                else:
                    raise GraphFormatError(
                        f"{path}:{lineno}: unknown record type {parts[0]!r}"
                    )
            except ValueError as exc:
                raise GraphFormatError(
                    f"{path}:{lineno}: non-numeric field in {line!r}"
                ) from exc
    if n is None:
        raise GraphFormatError(f"{path}: missing 'p sp' problem line")
    if m_declared is not None and m_declared != len(src):
        raise GraphFormatError(
            f"{path}: problem line declares {m_declared} arcs, found {len(src)}"
        )
    return DiGraph(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(wts, dtype=np.float64),
        name=name or os.path.basename(path),
    )


def save_dimacs(graph: DiGraph, path: PathLike, comment: str = "") -> None:
    """Write ``graph`` in 9th-DIMACS-challenge ``.gr`` format.

    Vertex ids become 1-based; an unweighted graph is written with unit
    arc weights (the format requires a weight column). Integer-valued
    weights are written as integers to match the challenge files.
    """
    path = os.fspath(path)
    w = graph.edge_weights()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("c generated by repro (LazyGraph reproduction)\n")
        if comment:
            for line in comment.splitlines():
                fh.write(f"c {line}\n")
        fh.write(f"p sp {graph.num_vertices} {graph.num_edges}\n")
        for e in range(graph.num_edges):
            weight = w[e]
            text = str(int(weight)) if float(weight).is_integer() else f"{weight:.10g}"
            fh.write(f"a {graph.src[e] + 1} {graph.dst[e] + 1} {text}\n")


def save_npz(graph: DiGraph, path: PathLike) -> None:
    """Save a graph to NumPy ``.npz`` (lossless, fast round-trip)."""
    payload = {
        "num_vertices": np.int64(graph.num_vertices),
        "src": graph.src,
        "dst": graph.dst,
        "name": np.str_(graph.name),
    }
    if graph.weights is not None:
        payload["weights"] = graph.weights
    np.savez_compressed(os.fspath(path), **payload)


def load_npz(path: PathLike) -> DiGraph:
    """Load a graph previously written by :func:`save_npz`."""
    path = os.fspath(path)
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise GraphFormatError(f"{path}: cannot read npz graph: {exc}") from exc
    for key in ("num_vertices", "src", "dst"):
        if key not in data:
            raise GraphFormatError(f"{path}: missing array {key!r}")
    return DiGraph(
        int(data["num_vertices"]),
        data["src"],
        data["dst"],
        data["weights"] if "weights" in data else None,
        name=str(data["name"]) if "name" in data else "",
    )
