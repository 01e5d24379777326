"""Policy ablation: the ``batched`` controller vs the paper rule.

One deterministic sweep of the controller matrix — PageRank on
road-ca-mini / 8 machines under ``paper`` and ``batched`` on
LazyVertexAsync and under ``paper`` on LazyBlockAsync (where
``batched`` *is* the paper rule), tracer and coherency lens on —
recording per row: coherency points, convergence, the max deviation
from the single-machine ``pagerank_reference`` fixpoint, and the
LensAuditor verdict.

Acceptance (asserted by the test, so a behavioural regression in the
policy layer fails the benchmark suite): the ``batched`` controller cuts
the LazyVertexAsync coherency-point count by at least 20% against the
``paper`` baseline, every controller's final values stay within the
repo's PageRank validation tolerance of the reference fixpoint, and
every audited run is clean — pending mass drains at each exchange and
replicas agree (zero drift) after convergence. The three coherency-point
counts themselves are golden numbers
(``tests/integration/test_golden_numbers.py``).
"""

import numpy as np

from repro.algorithms import PageRankDeltaProgram
from repro.algorithms.reference import pagerank_reference
from repro.obs.audit import LensAuditor
from repro.obs.records import trace_from_tracer
from repro.obs.tracer import Tracer
from repro.run_api import prepare_graph, run

GRAPH = "road-ca-mini"
MACHINES = 8
LAZY_VERTEX_POLICIES = ("paper", "batched")
LAZY_BLOCK_POLICIES = ("paper",)
#: the repo's validation-standard PageRank tolerance (``repro validate``)
VALUE_TOL = 5e-2
CUT_TARGET = 0.20
DRIFT_ATOL = 1e-9


def _reference():
    """The exact single-machine PageRank fixpoint for the workload."""
    g = prepare_graph(GRAPH, PageRankDeltaProgram(), seed=0)
    return pagerank_reference(g)


def _measure(engine, policy_name, reference):
    """One audited run: stats, value deviation and the auditor verdict."""
    tracer = Tracer()
    result = run(
        GRAPH, "pagerank", engine=engine, machines=MACHINES,
        policy=policy_name, tracer=tracer, lens=True,
    )
    trace = trace_from_tracer(tracer)
    anomalies = LensAuditor(trace).audit()
    finals = [i for i in trace.instants if i.get("name") == "lens-final"]
    drift = float((finals[-1].get("attrs") or {}).get("drift", 0.0))
    return {
        "coherency_points": int(result.stats.coherency_points),
        "converged": bool(result.stats.converged),
        "max_dev_from_reference": float(
            np.max(np.abs(result.values - reference))
        ),
        "final_drift": drift,
        "anomalies": [str(a) for a in anomalies],
    }


def run_matrix():
    """The full controller × engine matrix plus its acceptance verdict."""
    reference = _reference()
    rows = {}
    for policy in LAZY_VERTEX_POLICIES:
        rows[f"lazy-vertex/{policy}"] = _measure(
            "lazy-vertex", policy, reference
        )
    for policy in LAZY_BLOCK_POLICIES:
        rows[f"lazy-block/{policy}"] = _measure(
            "lazy-block", policy, reference
        )

    base = rows["lazy-vertex/paper"]["coherency_points"]
    points = rows["lazy-vertex/batched"]["coherency_points"]
    cut = 1.0 - points / base if base else 0.0
    acceptance = {
        "cut_fraction": cut,
        "cut_ok": cut >= CUT_TARGET,
        "values_ok": all(
            r["max_dev_from_reference"] <= VALUE_TOL for r in rows.values()
        ),
        "audits_clean": all(
            not r["anomalies"] and r["final_drift"] <= DRIFT_ATOL
            for r in rows.values()
        ),
        "all_converged": all(r["converged"] for r in rows.values()),
    }
    return {"rows": rows, "acceptance": acceptance}


def test_policy_ablation(benchmark, run_once):
    report = run_once(benchmark, run_matrix)
    acc = report["acceptance"]
    benchmark.extra_info["cut_fraction"] = acc["cut_fraction"]
    assert acc["all_converged"], report["rows"]
    assert acc["audits_clean"], report["rows"]
    assert acc["values_ok"], report["rows"]
    assert acc["cut_ok"], acc["cut_fraction"]
