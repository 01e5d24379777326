"""Process-backend ruler: real wall-clock parallelism, bit-exact.

The execution-backend layer's pitch is that ``backend="process"`` buys
host wall-clock speedup while staying *bit-identical* to the serial
backend (same values, same RunStats, same traces — the equivalence
matrix in ``tests/integration/test_backend_equivalence.py`` is the
oracle). The process backend is outside ``BENCHMARK.json`` on purpose,
so this script is the one ruler for "is it faster": it prices the claim
on the dense-sweep PageRank workload (powerlaw 50k vertices / 600k
edges, 8 machines, lazy-block):

* ``serial``  — the inline lockstep backend (the baseline);
* ``process`` — the shared-memory worker pool at ``--workers`` workers,
  with the pool spawn cost (``startup_s``) reported separately from the
  steady-state ``run()`` wall time it amortizes over.

Nothing is committed from it: the report is printed (or ``--out``) and
the exit status is the in-run verdict. Bit-identity of the two backends'
values is asserted unconditionally; the **speedup ≥ 1.8× at 4 workers**
gate applies only where the host has at least as many cores as workers
— elsewhere it is recorded as ``skipped (N cores)``, never silently
passed.

Run: ``python benchmarks/bench_parallel.py [--quick] [--out report.json]``
"""

import argparse
import json
import os
import statistics
import sys
import time

import numpy as np

from repro.core.transmission import build_lazy_graph
from repro.graph.generators import powerlaw_graph
from repro.runtime.process_backend import ProcessBackend
from repro.runtime.registry import get_engine

NUM_VERTICES = 50_000
NUM_EDGES = 600_000
MACHINES = 8
ENGINE = "lazy-block"
DEFAULT_WORKERS = 4
DEFAULT_GATE = 1.8


def _run_once(spec, pg, workers=None):
    """One fresh engine run; returns (run_s, startup_s, values)."""
    program = spec.make_program("pagerank", tolerance=1e-3)
    backend = ProcessBackend(workers=workers) if workers else None
    engine = spec.cls(pg, program, backend=backend)
    startup_s = backend.startup_s if backend else 0.0
    t0 = time.perf_counter()
    result = engine.run()
    return time.perf_counter() - t0, startup_s, result.values


def measure(workers: int, repeats: int) -> dict:
    graph = powerlaw_graph(NUM_VERTICES, NUM_EDGES, seed=3)
    pg = build_lazy_graph(graph, MACHINES, seed=1)
    spec = get_engine(ENGINE)
    host_cpus = os.cpu_count() or 1
    report = {
        "config": {
            "graph": f"powerlaw({NUM_VERTICES}, {NUM_EDGES})",
            "machines": MACHINES,
            "engine": ENGINE,
            "algorithm": "pagerank(tolerance=1e-3)",
            "workers": workers,
            "repeats": repeats,
            "host_cpus": host_cpus,
            "statistic": "median (1 warmup run discarded)",
        },
    }
    values = {}
    for mode, w in (("serial", None), ("process", workers)):
        _, _, vals = _run_once(spec, pg, w)  # warmup; keep the values
        values[mode] = vals
        runs, startups = [], []
        for _ in range(repeats):
            run_s, startup_s, _ = _run_once(spec, pg, w)
            runs.append(run_s)
            startups.append(startup_s)
        report[mode] = {
            "median_s": statistics.median(runs),
            "runs_s": [round(t, 4) for t in sorted(runs)],
        }
        if w:
            report[mode]["startup_median_s"] = statistics.median(startups)
    report["bit_identical"] = bool(
        np.array_equal(values["serial"], values["process"])
    )
    report["speedup"] = (
        report["serial"]["median_s"] / report["process"]["median_s"]
    )
    return report


def apply_gate(report: dict, gate: float) -> bool:
    """Speedup gate, skipped honestly on hosts too small to express it."""
    cfg = report["config"]
    measurable = cfg["host_cpus"] >= cfg["workers"]
    acceptance = {
        "bit_identical": report["bit_identical"],
        "gate_speedup": gate,
        "measurable": measurable,
    }
    if measurable:
        acceptance["speedup_ok"] = report["speedup"] >= gate
        ok = report["bit_identical"] and acceptance["speedup_ok"]
    else:
        acceptance["speedup_ok"] = (
            f"skipped ({cfg['host_cpus']} host cores < "
            f"{cfg['workers']} workers)"
        )
        ok = report["bit_identical"]
    acceptance["all_ok"] = ok
    report["acceptance"] = acceptance
    return ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument(
        "--quick", action="store_true",
        help="1 timed repeat after warmup (same graph; CI smoke)",
    )
    ap.add_argument(
        "--repeats", type=int, default=3,
        help="timed runs per backend after one warmup (default 3)",
    )
    ap.add_argument(
        "--workers", type=int, default=DEFAULT_WORKERS,
        help=f"process-backend worker count (default {DEFAULT_WORKERS})",
    )
    ap.add_argument(
        "--gate", type=float, default=DEFAULT_GATE,
        help=f"min speedup vs serial when measurable (default {DEFAULT_GATE})",
    )
    args = ap.parse_args(argv)
    repeats = 1 if args.quick else args.repeats
    report = measure(workers=args.workers, repeats=repeats)
    report["config"]["quick"] = bool(args.quick)
    ok = apply_gate(report, args.gate)
    text = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    print(
        f"serial {report['serial']['median_s']:.3f}s vs process "
        f"{report['process']['median_s']:.3f}s @ {args.workers} workers "
        f"(+{report['process']['startup_median_s']:.3f}s spawn): "
        f"speedup {report['speedup']:.2f}x, "
        f"bit_identical={report['bit_identical']}, "
        f"gate={report['acceptance']['speedup_ok']}",
        file=sys.stderr,
    )
    if not ok:
        print("FAILURE: acceptance gate failed (see report)", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
