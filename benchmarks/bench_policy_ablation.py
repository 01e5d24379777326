"""Policy ablation: every named controller on both lazy engines.

One deterministic sweep of the controller matrix — PageRank on
road-ca-mini / 8 machines under every policy (``paper``, ``simple``,
``never``) on LazyVertexAsync and LazyBlockAsync, tracer and coherency
lens on — recording per row: coherency points, convergence, the max
deviation from the single-machine ``pagerank_reference`` fixpoint, and
the LensAuditor verdict.

Acceptance (asserted by the test, so a behavioural regression in the
policy layer fails the benchmark suite): every controller's final
values stay within the repo's PageRank validation tolerance of the
reference fixpoint, and every audited run is clean — pending mass
drains at each exchange and replicas agree (zero drift) after
convergence. The paper rule's coherency-point counts on both engines
are golden numbers (``tests/integration/test_golden_numbers.py``).
"""

import numpy as np

from repro.algorithms import PageRankDeltaProgram
from repro.algorithms.reference import pagerank_reference
from repro.bench.reporting import format_table
from repro.core.policy import controller_names
from repro.obs.audit import LensAuditor
from repro.obs.records import trace_from_tracer
from repro.obs.tracer import Tracer
from repro.run_api import prepare_graph, run

GRAPH = "road-ca-mini"
MACHINES = 8
ENGINES = ("lazy-vertex", "lazy-block")
#: the repo's validation-standard PageRank tolerance (``repro validate``)
VALUE_TOL = 5e-2
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
        "modeled_time_s": float(result.stats.modeled_time_s),
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
    rows = {
        f"{engine}/{policy}": _measure(engine, policy, reference)
        for engine in ENGINES
        for policy in controller_names()
    }
    acceptance = {
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
    print()
    print(format_table(
        ["engine/policy", "coherency points", "modeled_s", "max |dev|"],
        [[cell, r["coherency_points"], round(r["modeled_time_s"], 4),
          f"{r['max_dev_from_reference']:.2e}"]
         for cell, r in report["rows"].items()],
        title=f"Policy ablation — PageRank, {GRAPH}, {MACHINES} machines",
    ))
    acc = report["acceptance"]
    assert acc["all_converged"], report["rows"]
    assert acc["audits_clean"], report["rows"]
    assert acc["values_ok"], report["rows"]
