"""The paper's tables and figures: one collector each, plus persistence.

``table1()``, ``fig9_10_11()`` and ``fig12()`` are *the* definition of
each figure's sweep — ``repro figures`` and the ``benchmarks/bench_*``
shape tests both read them, and each is memoised whole so the three
per-graph figures (and the benches sharing a process) run every engine
once; every caller gets the same objects, so read them, don't mutate
them. ``collect_all_figures()`` rounds them into one JSON-serializable
document; ``write_results()`` saves it as ``results.json`` plus a
human-readable ``RESULTS.md`` with the same tables the benchmarks print.
Used by ``python -m repro figures`` so a reader can regenerate every
number in EXPERIMENTS.md with one command.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache
from typing import Dict, List, Optional, Tuple

from repro.algorithms import make_program
from repro.bench.configs import (
    FIG9_ALGORITHMS,
    FIG9_GRAPHS,
    FIG12_ALGORITHMS,
    FIG12_ENGINES,
    FIG12_GRAPHS,
    FIG12_MACHINES,
    ExperimentConfig,
)
from repro.bench.harness import (
    compare_lazy_vs_sync,
    run_experiment,
    session_for,
)
from repro.bench.reporting import format_series, format_table
from repro.graph.datasets import dataset_info, load_dataset
from repro.runtime.run_config import RunConfig

__all__ = [
    "table1",
    "fig9_10_11",
    "fig12",
    "collect_all_figures",
    "write_results",
    "render_markdown",
]

MACHINES = 48  # §5.1: every per-graph table/figure is on 48 machines


@lru_cache(maxsize=None)
def table1() -> List[Dict]:
    """Table 1: V, E, E/V and λ (coordinated cut, 48 partitions) per graph."""
    rows = []
    for name in FIG9_GRAPHS:
        info = dataset_info(name)
        g = load_dataset(name)
        # λ of the graph as loaded: the variant a directed, unweighted
        # program (PageRank) runs against
        pgraph = session_for(name, MACHINES).partitioned(make_program("pagerank"))
        rows.append(
            {
                "graph": name,
                "class": info.category,
                "vertices": g.num_vertices,
                "edges": g.num_edges,
                "ev_ratio": g.ev_ratio,
                "lambda": pgraph.replication_factor,
                "paper_ev_ratio": info.paper_ev_ratio,
                "paper_lambda": info.paper_lambda,
            }
        )
    return rows


@lru_cache(maxsize=None)
def fig9_10_11() -> Dict[Tuple[str, str], Dict[str, float]]:
    """Figs 9/10/11: the lazy-vs-Sync row of every (algorithm, graph) cell."""
    return {
        (alg, graph): compare_lazy_vs_sync(graph, alg, machines=MACHINES)
        for alg in FIG9_ALGORITHMS
        for graph in FIG9_GRAPHS
    }


@lru_cache(maxsize=None)
def fig12() -> Dict[Tuple[str, str, str, int], float]:
    """Fig 12: modeled seconds per (graph, algorithm, engine, machines)."""
    return {
        (graph, alg, engine, P): run_experiment(
            ExperimentConfig(graph, alg, machines=P, run=RunConfig(engine=engine))
        ).stats.modeled_time_s
        for graph in FIG12_GRAPHS
        for alg in FIG12_ALGORITHMS
        for P in FIG12_MACHINES
        for engine in FIG12_ENGINES
    }


def collect_all_figures() -> Dict:
    """Run (or fetch memoised) every table/figure; return one document."""
    times = fig12()
    return {
        "machines": MACHINES,
        "fig12_machines": list(FIG12_MACHINES),
        "table1": [
            {**row, "ev_ratio": round(row["ev_ratio"], 3),
             "lambda": round(row["lambda"], 3)}
            for row in table1()
        ],
        "fig9_10_11": {
            f"{alg}/{graph}": {
                "speedup": round(row["speedup"], 4),
                "norm_syncs": round(row["norm_syncs"], 4),
                "norm_traffic": round(row["norm_traffic"], 4),
                "sync_time_s": round(row["sync_time_s"], 5),
                "lazy_time_s": round(row["lazy_time_s"], 5),
            }
            for (alg, graph), row in fig9_10_11().items()
        },
        "fig12": {
            f"{alg}/{graph}/{engine}": [
                round(times[(graph, alg, engine, P)], 5) for P in FIG12_MACHINES
            ]
            for graph in FIG12_GRAPHS
            for alg in FIG12_ALGORITHMS
            for engine in FIG12_ENGINES
        },
    }


def render_markdown(doc: Dict) -> str:
    """Render the collected document as paper-style markdown tables."""
    parts = ["# Regenerated results\n"]

    rows = [
        [r["graph"], r["class"], r["vertices"], r["edges"],
         r["ev_ratio"], r["lambda"], r["paper_ev_ratio"], r["paper_lambda"]]
        for r in doc["table1"]
    ]
    parts.append(
        format_table(
            ["graph", "class", "#V", "#E", "E/V", "lambda", "paper E/V", "paper lambda"],
            rows,
            title="Table 1",
        )
    )

    for metric, title in (
        ("speedup", "Fig 9 — speedup over PowerGraph Sync"),
        ("norm_syncs", "Fig 10 — normalized synchronizations"),
        ("norm_traffic", "Fig 11 — normalized traffic"),
    ):
        rows = []
        for graph in FIG9_GRAPHS:
            rows.append(
                [graph]
                + [doc["fig9_10_11"][f"{alg}/{graph}"][metric] for alg in FIG9_ALGORITHMS]
            )
        parts.append("")
        parts.append(format_table(["graph"] + list(FIG9_ALGORITHMS), rows, title=title))

    for graph in FIG12_GRAPHS:
        for alg in FIG12_ALGORITHMS:
            series = {
                engine: doc["fig12"][f"{alg}/{graph}/{engine}"]
                for engine in FIG12_ENGINES
            }
            parts.append("")
            parts.append(
                format_series(
                    "machines",
                    doc["fig12_machines"],
                    series,
                    title=f"Fig 12 — {alg} on {graph}",
                )
            )
    return "\n".join(parts) + "\n"


def write_results(out_dir: str, doc: Optional[Dict] = None) -> Dict:
    """Collect (if needed) and write ``results.json`` + ``RESULTS.md``."""
    doc = doc or collect_all_figures()
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
    with open(os.path.join(out_dir, "RESULTS.md"), "w", encoding="utf-8") as fh:
        fh.write(render_markdown(doc))
    return doc
