"""Observability-overhead gates: leaving the planes on must stay cheap.

``BENCHMARK.json`` runs with observability off on purpose, so the two
"what does switching it on cost" A/Bs live here, measured and gated
in-run (nothing is committed from this script):

**Engine tracing.** Per engine, the same run in two modes, timed in
back-to-back off/on pairs (first mode alternating); the overhead is the
median of the pairs' ratios:

* ``off`` — ``trace=False`` (NullTracer; the baseline);
* ``on``  — a real ``Tracer``: every span and instant written inline,
  and one columnar ``machine-work`` record per compute pass (per-machine
  columns plus a host stamp per runtime, taken only with a tracer on).

Gate: **tracing on adds less than 10% host time versus
``trace=False``**.

**Service telemetry and request tracing.** The same warm point-query
workload through fresh :class:`~repro.serve.GraphService` instances over
one resident session, queried back to back: bare vs ``telemetry_out``
(the always-on health plane) vs ``trace_out`` (request tracing: one
record per request, one per engine run holding that run's engine
trace). Gates: **telemetry on adds at most 5% to a request's warm
latency**, and **request tracing adds less than 15%**. Request tracing
is engine tracing (about 4% on these ~35 ms bfs runs) plus encoding each
run's ~115 engine records into its run record (about 2.2 ms, 6–7%; one
``machine-work`` record per compute pass, whose per-machine columns are
over half of those bytes), so it cannot meet the engine-tracing bound
of 10% with room for host noise.

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
#: max warm-latency cost of the telemetry ticker
TELEMETRY_OVERHEAD_GATE_PCT = 5.0
#: max warm-latency cost of request tracing (see the module docstring)
REQUEST_TRACE_GATE_PCT = 15.0
#: rounds over the miss sources, modes in rotating order (drift-cancelling)
OVERHEAD_ROUNDS = 10


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
            "statistic": "median of back-to-back on/off ratios "
                         "(1 warmup run per mode discarded)",
        },
        "engines": {},
    }
    for name in ENGINES:
        spec = get_engine(name)
        for mode in MODES:
            _run_once(spec, pg, mode)  # warmup (JIT-less, but caches)
        times: dict = {mode: [] for mode in MODES}
        ratios = []
        for i in range(repeats):
            # one off/on pair per repeat, first mode alternating, so a
            # change in host speed lands on both sides of a ratio
            for mode in MODES if i % 2 == 0 else MODES[::-1]:
                times[mode].append(_run_once(spec, pg, mode))
            ratios.append(times["on"][-1] / times["off"][-1])
        rows = {
            mode: {
                "median_s": statistics.median(ts),
                "runs_s": [round(t, 4) for t in sorted(ts)],
            }
            for mode, ts in times.items()
        }
        out["engines"][name] = {
            **rows,
            "trace_overhead_pct": round(
                100.0 * (statistics.median(ratios) - 1.0), 2
            ),
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
    """Warm latency with the telemetry ticker and request tracing on
    vs off.

    Each round opens three services over the same warm session: a bare
    one, one with ``telemetry_out`` (the always-on production health
    plane) and one with ``trace_out`` (request tracing, each engine
    run's trace included), so each plane is charged its own cost.
    Every source is then queried on all three back to back, in an order
    that rotates with the round and the source, so each on/off pair
    shares one moment of host load and no mode always goes first. All
    queries are engine runs: the cache is per-service and each service
    sees a source once.
    """
    modes = ("off", "telemetry", "trace")
    lat: dict = {mode: {} for mode in modes}
    with tempfile.TemporaryDirectory(prefix="repro-bench-obs-") as tmp:
        for r in range(rounds):
            services = {}
            for mode in modes:
                kwargs = {}
                if mode == "telemetry":
                    kwargs["telemetry_out"] = os.path.join(
                        tmp, f"{r}.telemetry.jsonl"
                    )
                if mode == "trace":
                    kwargs["trace_out"] = os.path.join(
                        tmp, f"{r}.trace.jsonl"
                    )
                services[mode] = GraphService(
                    session, engine=SERVE_ENGINE, max_wait=0.0, **kwargs
                )
            for i, s in enumerate(sources):
                k = (r + i) % len(modes)
                for mode in modes[k:] + modes[:k]:
                    served = services[mode].query("bfs", sources=[s])
                    assert not served.cached
                    lat[mode][(r, s)] = served.latency_s
            for svc in services.values():
                svc.close()

    def p50(mode):
        return statistics.median(lat[mode].values())

    def paired_overhead_pct(mode):
        # each (round, source) pair ran back to back, so host drift
        # cancels in its ratio; the median over pairs drops the pairs a
        # preemption landed in
        ratios = [v / lat["off"][key] for key, v in lat[mode].items()]
        return 100.0 * (statistics.median(ratios) - 1.0)

    return {
        "queries_per_mode": len(lat["off"]),
        "statistic": "median over (round, source) of back-to-back on/off "
                     "latency ratios",
        "p50_off_ms": round(p50("off") * 1e3, 3),
        "p50_on_ms": round(p50("telemetry") * 1e3, 3),
        "overhead_pct": round(paired_overhead_pct("telemetry"), 2),
        "gate_pct": TELEMETRY_OVERHEAD_GATE_PCT,
        "trace_p50_ms": round(p50("trace") * 1e3, 3),
        "trace_overhead_pct": round(paired_overhead_pct("trace"), 2),
        "trace_gate_pct": REQUEST_TRACE_GATE_PCT,
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
    acceptance["request_trace_overhead_ok"] = (
        telemetry["trace_overhead_pct"] < telemetry["trace_gate_pct"]
    )
    ok = ok and acceptance["telemetry_overhead_ok"]
    ok = ok and acceptance["request_trace_overhead_ok"]
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
        f"{telemetry['trace_overhead_pct']:+.2f}% "
        f"(gate {telemetry['trace_gate_pct']:.0f}%) vs a bare service",
        file=sys.stderr,
    )
    if not ok:
        print(
            f"GATE FAILED: tracing-on overhead exceeds "
            f"{args.gate:.1f}%, telemetry overhead exceeds "
            f"{telemetry['gate_pct']:.0f}% or request tracing exceeds "
            f"{telemetry['trace_gate_pct']:.0f}% (see acceptance)",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
