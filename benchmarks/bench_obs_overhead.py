"""Observability-overhead gates: leaving the planes on must stay cheap.

``BENCHMARK.json`` runs with observability off on purpose, so the two
"what does switching it on cost" A/Bs live here, measured and gated
in-run (nothing is committed from this script):

**Engine tracing.** Per engine, the median host wall time of the same
run in two modes:

* ``off`` — ``trace=False`` (NullTracer; the baseline);
* ``on``  — a real ``Tracer``: every span, per-machine work event and
  instant written inline.

Gate: **tracing on adds less than 10% host time versus
``trace=False``**.

**Service telemetry.** The same warm point-query workload through fresh
:class:`~repro.serve.GraphService` instances over one resident session,
bare vs ``telemetry_out`` (the always-on health plane) vs ``trace_out``
as well (per-investigation request tracing; reported, not gated). Gate:
**telemetry-on warm p50 within 5% of telemetry-off**.

Run: ``python benchmarks/bench_obs_overhead.py [--out report.json]``.
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

from repro.core.transmission import build_lazy_graph
from repro.graph.generators import powerlaw_graph
from repro.obs.tracer import Tracer
from repro.runtime.registry import get_engine
from repro.serve import GraphService
from repro.session import GraphSession

ENGINES = ("lazy-block", "powergraph-sync")
MODES = ("off", "on")
NUM_VERTICES = 50_000
NUM_EDGES = 600_000
MACHINES = 8
DEFAULT_GATE_PCT = 10.0

# service-telemetry A/B: bfs point queries on a warm session
SERVE_VERTICES = 20_000
SERVE_EDGES = 150_000
SERVE_ENGINE = "lazy-block"
#: distinct cache-miss sources (the cache is per-service: nothing hits)
MISS_SOURCES = (0, 101, 202, 303)
#: max warm-p50 regression with the telemetry ticker on
TELEMETRY_OVERHEAD_GATE_PCT = 5.0
#: alternating off/on rounds over the miss sources (drift-cancelling)
OVERHEAD_ROUNDS = 6


def _run_once(spec, pg, mode: str) -> float:
    program = spec.make_program("pagerank", tolerance=1e-3)
    engine = spec.cls(pg, program, tracer=Tracer() if mode == "on" else None)
    t0 = time.perf_counter()
    engine.run()
    return time.perf_counter() - t0


def measure(repeats: int = 5) -> dict:
    graph = powerlaw_graph(NUM_VERTICES, NUM_EDGES, seed=3)
    pg = build_lazy_graph(graph, MACHINES, seed=1)
    out = {
        "config": {
            "graph": f"powerlaw({NUM_VERTICES}, {NUM_EDGES})",
            "machines": MACHINES,
            "algorithm": "pagerank",
            "repeats": repeats,
            "statistic": "median (1 warmup run discarded)",
        },
        "engines": {},
    }
    for name in ENGINES:
        spec = get_engine(name)
        rows = {}
        for mode in MODES:
            _run_once(spec, pg, mode)  # warmup (JIT-less, but caches)
            times = sorted(_run_once(spec, pg, mode) for _ in range(repeats))
            rows[mode] = {
                "median_s": statistics.median(times),
                "runs_s": [round(t, 4) for t in times],
            }
        base = rows["off"]["median_s"]
        trace_pct = 100.0 * (rows["on"]["median_s"] - base) / base
        out["engines"][name] = {
            **rows, "trace_overhead_pct": round(trace_pct, 2),
        }
    return out


def measure_telemetry(rounds: int = OVERHEAD_ROUNDS) -> dict:
    graph = powerlaw_graph(SERVE_VERTICES, SERVE_EDGES, seed=3)
    with GraphSession.open(graph, machines=MACHINES, seed=0) as session:
        # warm the session: the first query pays graph prep, partitioning
        # and CSR planning once; every timed query is one engine run
        with GraphService(session, engine=SERVE_ENGINE, max_wait=0.0) as svc:
            svc.query("bfs", sources=[SERVE_VERTICES - 1])
        return _telemetry_overhead(session, MISS_SOURCES, rounds)


def _telemetry_overhead(session, sources, rounds: int) -> dict:
    """Warm p50 with the telemetry ticker off vs on.

    Each round opens one bare service, one with ``telemetry_out`` (the
    always-on production health plane — this is the gated comparison),
    and one with ``trace_out`` as well (full request tracing with
    per-run engine span streams — a per-investigation debug tool, so
    its cost is reported but not gated). All services serve the same
    distinct-source workload against the same warm session (all engine
    runs — the cache is per-service, so nothing hits), and rounds
    alternate modes so host drift cancels instead of biasing one.
    """
    lat: dict = {"off": {}, "telemetry": {}, "trace": {}}
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        for r in range(rounds):
            for mode in ("off", "telemetry", "trace"):
                kwargs = {}
                if mode in ("telemetry", "trace"):
                    kwargs["telemetry_out"] = os.path.join(
                        tmp, f"{mode}{r}.telemetry.jsonl"
                    )
                if mode == "trace":
                    kwargs["trace_out"] = os.path.join(
                        tmp, f"{mode}{r}.trace.jsonl"
                    )
                with GraphService(
                    session, engine=SERVE_ENGINE, max_wait=0.0, **kwargs
                ) as svc:
                    for s in sources:
                        served = svc.query("bfs", sources=[s])
                        assert not served.cached
                        lat[mode][(r, s)] = served.latency_s

    def p50(mode):
        return statistics.median(lat[mode].values())

    def paired_overhead_pct(mode):
        # per source, take the best (min) latency across rounds in each
        # mode and compare those: host noise is additive and positive
        # (scheduler preemptions, cache evictions), so the per-source
        # min converges on the true cost where a p50-vs-p50 comparison
        # keeps the jitter; the median across sources then summarizes
        per_source = {}
        for (r, s), v in lat[mode].items():
            per_source[s] = min(v, per_source.get(s, float("inf")))
        per_source_off = {}
        for (r, s), v in lat["off"].items():
            per_source_off[s] = min(v, per_source_off.get(s, float("inf")))
        ratios = [v / per_source_off[s] for s, v in per_source.items()]
        return 100.0 * (statistics.median(ratios) - 1.0)

    return {
        "queries_per_mode": len(lat["off"]),
        "statistic": "median over sources of best-of-rounds on/off ratio",
        "p50_off_ms": round(p50("off") * 1e3, 3),
        "p50_on_ms": round(p50("telemetry") * 1e3, 3),
        "overhead_pct": round(paired_overhead_pct("telemetry"), 2),
        "gate_pct": TELEMETRY_OVERHEAD_GATE_PCT,
        # full request tracing streams every engine span; informational
        "trace_p50_ms": round(p50("trace") * 1e3, 3),
        "trace_overhead_pct": round(paired_overhead_pct("trace"), 2),
    }


def apply_gate(report: dict, gate_pct: float) -> bool:
    ok = True
    acceptance = {"threshold_pct": gate_pct}
    for name, row in report["engines"].items():
        passed = row["trace_overhead_pct"] < gate_pct
        acceptance[f"{name}_trace_lt_threshold"] = passed
        ok = ok and passed
    telemetry = report["telemetry_overhead"]
    acceptance["telemetry_overhead_ok"] = (
        telemetry["overhead_pct"] <= telemetry["gate_pct"]
    )
    ok = ok and acceptance["telemetry_overhead_ok"]
    acceptance["all_ok"] = ok
    report["acceptance"] = acceptance
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument(
        "--repeats", type=int, default=5,
        help="timed runs per (engine, mode) after one warmup (default 5)",
    )
    ap.add_argument(
        "--gate", type=float, default=DEFAULT_GATE_PCT,
        help="max tracing-on overhead vs trace=False, percent (default 10)",
    )
    args = ap.parse_args(argv)
    report = measure(repeats=args.repeats)
    report["telemetry_overhead"] = measure_telemetry()
    ok = apply_gate(report, args.gate)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    print(text)
    for name, row in report["engines"].items():
        print(
            f"{name}: tracing on {row['trace_overhead_pct']:+.2f}% "
            f"vs trace=False",
            file=sys.stderr,
        )
    telemetry = report["telemetry_overhead"]
    print(
        f"service: telemetry {telemetry['overhead_pct']:+.2f}% "
        f"(gate {telemetry['gate_pct']:.0f}%) / request tracing "
        f"{telemetry['trace_overhead_pct']:+.2f}% vs bare warm p50",
        file=sys.stderr,
    )
    if not ok:
        print(
            f"GATE FAILED: tracing-on overhead exceeds "
            f"{args.gate:.1f}% or telemetry overhead exceeds "
            f"{telemetry['gate_pct']:.0f}% (see acceptance)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
