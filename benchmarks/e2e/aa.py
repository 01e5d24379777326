"""A/A check: do two sets of runs of the same code agree within bounds?

    python -m benchmarks.e2e.aa --sets 2 --runs 10 --out benchmarks/e2e/AA_REPORT.json

Each set runs every workload ``--runs`` times, run ``i`` with seed
``i + 1`` (so both sets see the same inputs), through the benchmark's
own command. Per workload and end-to-end metric it prints each set's
median, the spread inside a set (distance between the first and third
quartile over the median), the gap between the first two sets' medians
in the metric's "worse" direction, and the bound. It exits non-zero
when a gap or a spread (``setup_s`` spreads excepted, as in the
driver's check) exceeds its bound, or when a modeled metric differs
between two runs with the same seed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from lgbench import spec  # noqa: E402

#: must repeat exactly for one seed
EXACT = ("modeled_time_s", "modeled_speedup_vs_sync")


def one_run(workload: str, seed: int, seconds: float) -> dict:
    t0 = time.time()
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {done.returncode}:\n{done.stdout}"
        )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    got = {name: m["value"] for name, m in result["metrics"].items()}
    got["wall_s"] = time.time() - t0
    return got


def spread(values) -> float:
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--sets", type=int, default=2)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    p.add_argument("--out", help="write the report here as JSON")
    args = p.parse_args(argv)

    t0 = time.time()
    # values[set][workload][metric] -> one value per run
    values = [
        {w: {m: [] for m in spec.E2E_NAMES} for w in spec.WORKLOADS}
        for _ in range(args.sets)
    ]
    walls = {w: [] for w in spec.WORKLOADS}
    for s in range(args.sets):
        for i in range(args.runs):
            for workload in spec.WORKLOADS:
                got = one_run(workload, i + 1, args.seconds)
                for name in spec.E2E_NAMES:
                    values[s][workload][name].append(got[name])
                walls[workload].append(got["wall_s"])
                print(f"set {s + 1} seed {i + 1} {workload}: "
                      + " ".join(f"{k}={v:.5g}" for k, v in got.items()),
                      flush=True)

    rows = []
    bad = 0
    for workload in spec.WORKLOADS:
        for name, unit, better, bound in spec.END_TO_END:
            per_set = [values[s][workload][name] for s in range(args.sets)]
            medians = [statistics.median(v) for v in per_set]
            spreads = [spread(v) for v in per_set]
            gap = 0.0
            if args.sets >= 2:
                gap = (medians[1] - medians[0]) / medians[0]
                if better == "higher":
                    gap = -gap
            exact_ok = name not in EXACT or all(
                per_set[0] == v for v in per_set[1:]
            )
            spread_ok = name == "setup_s" or max(spreads) <= bound
            ok = gap <= bound and spread_ok and exact_ok
            bad += not ok
            rows.append({
                "workload": workload, "metric": name, "unit": unit,
                "better": better, "bound": bound, "medians": medians,
                "spreads": spreads, "gap": gap, "exact": exact_ok,
                "ok": ok, "values": per_set,
            })
            print(f"{workload:18s} {name:24s} "
                  + " ".join(f"med{s + 1}={m:.5g}"
                             for s, m in enumerate(medians))
                  + " " + " ".join(f"spread{s + 1}={x:.3f}"
                                   for s, x in enumerate(spreads))
                  + f" gap={gap:+.3f} bound={bound}"
                  + ("" if ok else "  <-- OUT OF BOUNDS"))
    report = {
        "sets": args.sets, "runs": args.runs, "seconds": args.seconds,
        "wall_s": time.time() - t0, "host_cpus": os.cpu_count(),
        "run_wall_s": {w: {"median": statistics.median(v), "max": max(v)}
                       for w, v in walls.items()},
        "out_of_bounds": bad, "rows": rows,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
