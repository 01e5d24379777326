"""Summarize one run's trace into the paper's tables.

The first sections ``repro analyze`` prints for a run trace are what the
paper's figures are made of, for one run, straight from its trace file:

* the per-phase modeled-time breakdown (gather/apply/scatter for the
  eager engines; local-computation/coherency for the lazy ones), whose
  total reproduces ``RunStats.modeled_time_s``;
* the sync/traffic totals behind Figs 10–11;
* the interval-rule decision log (``turnOnLazy`` outcomes and the comm
  mode chosen at each coherency exchange).

:func:`format_comparison` sets two runs' totals and coherency-decision
counts side by side (``repro analyze A B``). The file itself is read by
:func:`repro.obs.records.load_trace`.
"""

from __future__ import annotations

from typing import Any, Dict, List, Sequence

from repro.obs.records import TraceData

__all__ = ["summarize_trace", "format_report", "format_comparison"]

#: RunStats key -> label: the "run totals" rows, one run or two
_TOTALS = (
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
)


def _total(value: Any) -> Any:
    return round(value, 6) if isinstance(value, float) else value


# ----------------------------------------------------------------------
def summarize_trace(trace: TraceData) -> Dict[str, Any]:
    """Aggregate a trace into the report's tables.

    Returns a dict with ``phases`` (ordered per-phase rows), ``totals``
    (the RunStats dump), ``distributions`` (histogram quantiles),
    ``decisions`` (interval-rule log summary), ``modes``
    (coherency-exchange wire-protocol counts) and ``coherency_decisions``
    (lens audit-log entries counted by ``"kind / verdict"``).
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
    audited: Dict[str, int] = {}
    for i in trace.instants:
        attrs = i.get("attrs") or {}
        if i.get("name") == "coherency-exchange":
            mode = attrs.get("mode", "?")
            modes[mode] = modes.get(mode, 0) + 1
        elif i.get("name") == "coherency-decision":
            key = f"{attrs.get('kind', '?')} / {attrs.get('verdict', '?')}"
            audited[key] = audited.get(key, 0) + 1

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
        "coherency_decisions": audited,
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
        total_rows = [
            [label, _total(stats[key])] for key, label in _TOTALS if key in stats
        ]
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


def format_comparison(
    summaries: Sequence[Dict[str, Any]], labels: Sequence[str]
) -> str:
    """Runs' totals and coherency-decision counts side by side, one
    column per run (``repro analyze A B``); ``-`` where a run lacks one."""
    from repro.bench.reporting import format_table

    lines = ["run comparison — " + " vs ".join(
        f"{label} ({s['engine']}/{s['algorithm']})"
        for label, s in zip(labels, summaries)
    )]
    rows = [
        [name, *(_total(s["totals"].get(key, "-")) for s in summaries)]
        for key, name in _TOTALS
        if any(key in s["totals"] for s in summaries)
    ]
    lines.append(format_table(
        ["metric", *labels], rows, title="run totals (RunStats)",
    ))
    decided = sorted({k for s in summaries for k in s["coherency_decisions"]})
    if decided:
        lines.append(format_table(
            ["kind / verdict", *labels],
            [[k, *(s["coherency_decisions"].get(k, 0) for s in summaries)]
             for k in decided],
            title="coherency decisions (lens audit log)",
        ))
    return "\n\n".join(lines)
