"""Summarize one run's trace into the paper's tables.

The first sections ``repro analyze`` prints for a run trace are what the
paper's figures are made of, for one run, straight from its trace file:

* the per-phase modeled-time breakdown (gather/apply/scatter for the
  eager engines; local-computation/coherency for the lazy ones), whose
  total reproduces ``RunStats.modeled_time_s``;
* the sync/traffic totals behind Figs 10–11;
* the interval-rule decision log (``turnOnLazy`` outcomes and the comm
  mode chosen at each coherency exchange).

The file itself is read by :func:`repro.obs.records.load_trace`;
``TraceData`` / ``load_trace`` / ``trace_from_tracer`` are re-exported
here under the import path they have always had.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.records import TraceData, load_trace, trace_from_tracer

__all__ = [
    "TraceData",
    "load_trace",
    "trace_from_tracer",
    "summarize_trace",
    "format_report",
]


# ----------------------------------------------------------------------
def summarize_trace(trace: TraceData) -> Dict[str, Any]:
    """Aggregate a trace into the report's tables.

    Returns a dict with ``phases`` (ordered per-phase rows), ``totals``
    (the RunStats dump), ``distributions`` (histogram quantiles),
    ``decisions`` (interval-rule log summary) and ``modes``
    (coherency-exchange wire-protocol counts).
    """
    phases: Dict[str, Dict[str, float]] = {}
    order: List[str] = []
    for span in trace.phase_spans():
        name = span["name"]
        if name not in phases:
            phases[name] = {
                "count": 0, "model_s": 0.0,
                "compute_s": 0.0, "comm_s": 0.0, "sync_s": 0.0,
            }
            order.append(name)
        row = phases[name]
        row["count"] += 1
        row["model_s"] += span["model_t1"] - span["model_t0"]
        for kind, seconds in (span.get("charges") or {}).items():
            row[f"{kind}_s"] = row.get(f"{kind}_s", 0.0) + seconds
    untracked = trace.meta.get("untracked_charges") or {}
    if untracked:
        phases["(untracked)"] = {
            "count": 0,
            "model_s": sum(untracked.values()),
            "compute_s": untracked.get("compute", 0.0),
            "comm_s": untracked.get("comm", 0.0),
            "sync_s": untracked.get("sync", 0.0),
        }
        order.append("(untracked)")
    total_phase_s = sum(row["model_s"] for row in phases.values())

    # histogram distributions (p50/p95/p99 ride in Histogram.export())
    distributions: List[Dict[str, Any]] = []
    for name in sorted(trace.stats.get("metrics") or {}):
        export = (trace.stats.get("metrics") or {}).get(name)
        if not isinstance(export, dict) or "p50" not in export:
            continue  # gauges/counters have no quantiles
        distributions.append({
            "name": name,
            "count": export.get("count", 0),
            "mean": export.get("mean", 0.0),
            "p50": export.get("p50", 0.0),
            "p95": export.get("p95", 0.0),
            "p99": export.get("p99", 0.0),
            "max": export.get("max", 0.0),
        })

    decisions = [
        i for i in trace.instants if i.get("name") == "interval-decision"
    ]
    lazy_on = sum(1 for d in decisions if (d.get("attrs") or {}).get("do_local"))
    modes: Dict[str, int] = {}
    for i in trace.instants:
        if i.get("name") == "coherency-exchange":
            mode = (i.get("attrs") or {}).get("mode", "?")
            modes[mode] = modes.get(mode, 0) + 1

    return {
        "engine": trace.meta.get("engine", "?"),
        "algorithm": trace.meta.get("algorithm", "?"),
        "phases": [{"name": n, **phases[n]} for n in order],
        "total_phase_s": total_phase_s,
        "totals": trace.stats,
        "distributions": distributions,
        "decisions": {
            "total": len(decisions),
            "lazy_on": lazy_on,
            "lazy_off": len(decisions) - lazy_on,
        },
        "modes": modes,
    }


def format_report(summary: Dict[str, Any]) -> str:
    """Render a summary as the plain-text report the CLI prints."""
    from repro.bench.reporting import format_table

    lines: List[str] = []
    lines.append(
        f"trace report — {summary['engine']}/{summary['algorithm']}"
    )
    total = summary["total_phase_s"]
    rows = []
    for row in summary["phases"]:
        share = 100.0 * row["model_s"] / total if total > 0 else 0.0
        rows.append([
            row["name"], int(row["count"]), round(row["model_s"], 6),
            round(share, 1), round(row.get("compute_s", 0.0), 6),
            round(row.get("comm_s", 0.0), 6), round(row.get("sync_s", 0.0), 6),
        ])
    rows.append(["total", "", round(total, 6), 100.0 if total > 0 else 0.0,
                 "", "", ""])
    lines.append(format_table(
        ["phase", "count", "model_s", "%", "compute_s", "comm_s", "sync_s"],
        rows, title="per-phase modeled time",
    ))

    stats = summary["totals"]
    if stats:
        total_rows = []
        for key, label in (
            ("modeled_time_s", "modeled time (s)"),
            ("global_syncs", "global syncs"),
            ("comm_bytes", "traffic (bytes)"),
            ("comm_messages", "messages"),
            ("comm_rounds", "comm rounds"),
            ("supersteps", "supersteps"),
            ("coherency_points", "coherency points"),
            ("local_iterations", "local iterations"),
            ("edge_traversals", "edge traversals"),
            ("vertex_updates", "vertex updates"),
            ("converged", "converged"),
        ):
            if key in stats:
                value = stats[key]
                if isinstance(value, float):
                    value = round(value, 6)
                total_rows.append([label, value])
        lines.append(format_table(
            ["metric", "value"], total_rows, title="run totals (RunStats)",
        ))

    distributions = summary.get("distributions") or []
    if distributions:
        dist_rows = []
        for d in distributions:
            dist_rows.append([
                d["name"], int(d["count"]), round(float(d["mean"]), 4),
                round(float(d["p50"]), 4), round(float(d["p95"]), 4),
                round(float(d["p99"]), 4), round(float(d["max"]), 4),
            ])
        lines.append(format_table(
            ["metric", "count", "mean", "p50", "p95", "p99", "max"],
            dist_rows,
            title="distributions (staleness / exchange mass quantiles)",
        ))

    decisions = summary["decisions"]
    if decisions["total"]:
        lines.append(
            f"interval rule: {decisions['total']} decisions — "
            f"lazy on {decisions['lazy_on']}, off {decisions['lazy_off']}"
        )
    if summary["modes"]:
        mode_text = ", ".join(
            f"{mode}×{count}" for mode, count in sorted(summary["modes"].items())
        )
        lines.append(f"coherency exchanges by mode: {mode_text}")
    return "\n\n".join(lines)
