"""Mutation-stream analysis: re-convergence cost and λ drift over time.

Consumes the event stream ``repro mutate --out`` emits (a
``mutations``-kind file of :mod:`repro.obs.records`) — one
``{"event": "apply", ...}`` record per applied batch, interleaved with
``{"event": "run", ...}`` records for the engine runs that re-converged
after each — and distills the two questions the dynamic-graph story
hangs on:

* **supersteps-to-reconverge**: how many supersteps (and how much
  modeled time) each incremental run needed, against the from-scratch
  cost where the stream recorded a cold comparison run;
* **λ drift**: how far the patched vertex-cut's replication factor
  wandered from the baseline partitioning as mutations accumulated.

``repro analyze PATH`` prints the result.
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.bench.reporting import format_table

__all__ = [
    "analyze_mutation_stream",
    "format_mutation_analysis",
]


def _worst_lambda(apply_ev: Dict[str, Any]) -> float:
    lam = apply_ev.get("worst_lambda")
    if lam is not None:
        return float(lam)
    patches = apply_ev.get("patches", {})
    return max(
        (float(p.get("lambda_after", 0.0)) for p in patches.values()),
        default=0.0,
    )


def analyze_mutation_stream(
    events: List[Dict[str, Any]]
) -> Dict[str, Any]:
    """Roll a mutation event stream up into steps + totals.

    Each *step* is one applied batch joined with the run records that
    followed it (incremental, and cold when the stream carries a
    comparison run — either as a separate ``mode: "cold"`` record or as
    ``cold_supersteps`` fields inline on the incremental record).
    """
    steps: List[Dict[str, Any]] = []
    baseline: Dict[str, Any] = {}
    current: Dict[str, Any] = {}
    baseline_lambda = 0.0
    for ev in events:
        kind = ev.get("event")
        if kind == "apply":
            if current:
                steps.append(current)
            lam = _worst_lambda(ev)
            if not steps and baseline_lambda == 0.0:
                # λ before the first patch is the partition baseline
                patches = ev.get("patches", {})
                baseline_lambda = max(
                    (
                        float(p.get("lambda_before", 0.0))
                        for p in patches.values()
                    ),
                    default=0.0,
                )
            current = {
                "graph_version": ev.get("graph_version"),
                "edges_added": ev.get("edges_added", 0),
                "edges_removed": ev.get("edges_removed", 0),
                "lambda": lam,
            }
        elif kind == "run":
            mode = ev.get("mode", "incremental")
            record = {
                "supersteps": ev.get("supersteps"),
                "modeled_time_s": ev.get("modeled_time_s"),
            }
            if mode == "baseline":
                baseline = {
                    "algorithm": ev.get("algorithm"),
                    **record,
                }
            elif not current:
                continue  # run before any apply: ignore
            elif mode == "cold":
                current["cold"] = record
            else:
                current["incremental"] = {
                    **record,
                    "warm_start": ev.get("warm_start"),
                    "reseeded": ev.get("reseeded"),
                    "injections": ev.get("injections"),
                }
                if ev.get("cold_supersteps") is not None:
                    current["cold"] = {
                        "supersteps": ev.get("cold_supersteps"),
                        "modeled_time_s": ev.get("cold_modeled_time_s"),
                    }
    if current:
        steps.append(current)

    inc_ss = [
        s["incremental"]["supersteps"]
        for s in steps
        if s.get("incremental", {}).get("supersteps") is not None
    ]
    cold_ss = [
        s["cold"]["supersteps"]
        for s in steps
        if s.get("cold", {}).get("supersteps") is not None
        and s.get("incremental", {}).get("supersteps") is not None
    ]
    inc_t = [
        s["incremental"]["modeled_time_s"]
        for s in steps
        if s.get("incremental", {}).get("modeled_time_s") is not None
    ]
    cold_t = [
        s["cold"]["modeled_time_s"]
        for s in steps
        if s.get("cold", {}).get("modeled_time_s") is not None
        and s.get("incremental", {}).get("modeled_time_s") is not None
    ]
    lambdas = [s["lambda"] for s in steps if s.get("lambda")]
    totals: Dict[str, Any] = {
        "steps": len(steps),
        "edges_added": sum(s.get("edges_added", 0) for s in steps),
        "edges_removed": sum(s.get("edges_removed", 0) for s in steps),
        "mean_supersteps_to_reconverge": (
            sum(inc_ss) / len(inc_ss) if inc_ss else None
        ),
        "baseline_lambda": baseline_lambda or None,
        "final_lambda": lambdas[-1] if lambdas else None,
        "lambda_drift": (
            lambdas[-1] / baseline_lambda - 1.0
            if lambdas and baseline_lambda
            else None
        ),
    }
    if cold_ss:
        totals["superstep_speedup"] = (
            sum(cold_ss) / sum(inc_ss) if sum(inc_ss) else float("inf")
        )
    if cold_t:
        totals["modeled_time_speedup"] = (
            sum(cold_t) / sum(inc_t) if sum(inc_t) else float("inf")
        )
    return {"baseline": baseline, "steps": steps, "totals": totals}


def format_mutation_analysis(
    analysis: Dict[str, Any], max_rows: int = 40
) -> str:
    """Human-readable table ``repro analyze`` prints for a mutation stream."""
    out: List[str] = []
    baseline = analysis.get("baseline") or {}
    if baseline:
        out.append(
            f"baseline: {baseline.get('algorithm')} converged in "
            f"{baseline.get('supersteps')} supersteps "
            f"({baseline.get('modeled_time_s', 0.0):.6f}s modeled)"
        )
    rows = []
    for s in analysis["steps"][:max_rows]:
        inc = s.get("incremental", {})
        cold = s.get("cold", {})
        rows.append([
            s.get("graph_version"),
            f"+{s.get('edges_added', 0)}/-{s.get('edges_removed', 0)}",
            round(s.get("lambda", 0.0), 3),
            inc.get("supersteps", ""),
            cold.get("supersteps", ""),
            inc.get("reseeded", ""),
            inc.get("injections", ""),
        ])
    if rows:
        out.append(format_table(
            [
                "ver", "edges", "lambda",
                "inc_ss", "cold_ss", "reseeded", "injected",
            ],
            rows,
            title="mutation stream",
        ))
    t = analysis["totals"]
    parts = [f"{t['steps']} batches "
             f"(+{t['edges_added']}/-{t['edges_removed']} edges)"]
    if t.get("mean_supersteps_to_reconverge") is not None:
        parts.append(
            f"mean supersteps to re-converge "
            f"{t['mean_supersteps_to_reconverge']:.1f}"
        )
    if t.get("superstep_speedup") is not None:
        parts.append(f"superstep speedup {t['superstep_speedup']:.1f}x")
    if t.get("modeled_time_speedup") is not None:
        parts.append(
            f"modeled-time speedup {t['modeled_time_speedup']:.1f}x"
        )
    if t.get("lambda_drift") is not None:
        parts.append(
            f"lambda drift {t['lambda_drift']:+.2%} "
            f"({t['baseline_lambda']:.3f} -> {t['final_lambda']:.3f})"
        )
    out.append("totals: " + "; ".join(parts))
    return "\n".join(out)
