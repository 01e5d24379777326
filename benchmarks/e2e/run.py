"""The repo's one benchmark command.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in a child process and prints, as the last line of
standard output, ``{"correct", "attempted", "failed", "metrics"}``:
every end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``. Without ``--workload`` it runs all four workloads,
untraced then traced, and prints every metric by name with its unit.
It exits non-zero when an operation fails, when the program is not
beside it (``src/repro``), or when anything it started is still alive.

The child gets a fixed environment (one BLAS/OpenMP thread, a fixed
hash seed) and is started in the foreground with a timeout, so a hang
is killed and reaped; nothing is daemonised.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
#: the contract allows a run 180 s; a child is killed before that
CHILD_TIMEOUT_S = 170

PINNED_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", help="one workload (default: all four)")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="seconds one run measures (default: run_seconds)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--quick", action="store_true",
                   help="shrunk graphs for the tests; numbers never reported")
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p


def leaked() -> list:
    """What this process started and did not stop."""
    found = []
    if multiprocessing.active_children():
        found.append(f"child processes: {multiprocessing.active_children()}")
    try:
        os.waitpid(-1, os.WNOHANG)
        found.append("an unreaped child process")
    except ChildProcessError:
        pass
    threads = [
        t.name for t in threading.enumerate()
        if t is not threading.main_thread() and not t.daemon and t.is_alive()
    ]
    if threads:
        found.append(f"non-daemon threads: {threads}")
    return found


def result_line(outcome) -> str:
    from lgbench import spec

    units = dict(spec.E2E_UNITS)
    units.update(spec.LAYER_UNITS)
    return json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in outcome.metrics.items()
        },
    })


def check_outcome(outcome, trace: bool) -> list:
    """Contract checks on one run's metrics; returns what is wrong."""
    from lgbench import spec

    wrong = []
    names = spec.LAYER_NAMES if trace else spec.E2E_NAMES
    if list(outcome.metrics) != names:
        wrong.append("metric names differ from the spec")
    if outcome.attempted < 1:
        wrong.append("no operation was attempted")
    if not trace:
        values = list(outcome.metrics.values())
        if any(not v > 0 for v in values):
            wrong.append(f"an end-to-end metric is not positive: {values}")
        if len(set(values)) != len(values):
            wrong.append(f"two gated series are identical copies: {values}")
    return wrong


def child_main(args) -> int:
    """Run one workload in this process and print its result."""
    sys.path.insert(0, SRC)
    from lgbench import spec
    from lgbench.workloads import run_workload

    seconds = spec.RUN_SECONDS if args.seconds is None else args.seconds
    outcome, recorder = run_workload(
        args.workload, args.seed, seconds, bool(args.trace), args.quick
    )
    for key, val in outcome.detail.items():
        print(f"# {args.workload} {key} = {val}")
    print(f"# {args.workload} ops_attempted = {outcome.attempted} "
          f"ops_failed = {outcome.failed}")
    for what in outcome.failures[:20]:
        print(f"# {args.workload} FAILED: {what}")
    wrong = check_outcome(outcome, bool(args.trace))
    for what in wrong:
        print(f"# {args.workload} INVALID: {what}")
    if recorder is not None and not args.quick:
        os.makedirs(OUT, exist_ok=True)
        recorder.write(os.path.join(OUT, f"trace_{args.workload}.jsonl"))
    stray = leaked()
    for what in stray:
        print(f"# {args.workload} LEFT RUNNING: {what}")
    sys.stdout.flush()
    print(result_line(outcome), flush=True)
    return 1 if (outcome.failed or wrong or stray) else 0


def spawn(args, workload: str, trace: int, capture: bool):
    """Start one workload child in the foreground and wait for it."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--child",
        "--workload", workload, "--seed", str(args.seed),
        "--trace", str(trace),
    ]
    if args.seconds is not None:
        cmd += ["--seconds", str(args.seconds)]
    if args.quick:
        cmd.append("--quick")
    env = dict(os.environ)
    env.update(PINNED_ENV)
    # subprocess.run kills and reaps the child when the timeout expires
    return subprocess.run(
        cmd, env=env, timeout=CHILD_TIMEOUT_S, text=True,
        stdout=subprocess.PIPE if capture else None,
    )


def run_all(args) -> int:
    """All four workloads, untraced then traced, as one table."""
    from lgbench import spec

    status = 0
    for trace in (0, 1):
        for workload in spec.WORKLOADS:
            done = spawn(args, workload, trace, capture=True)
            status = status or done.returncode
            lines = done.stdout.strip().splitlines()
            for line in lines[:-1]:
                print(line)
            result = json.loads(lines[-1])
            print(f"== {workload} trace={trace} correct={result['correct']} "
                  f"ops_attempted={result['attempted']} "
                  f"ops_failed={result['failed']}"
                  + (" QUICK (not reportable)" if args.quick else ""))
            for name, m in result["metrics"].items():
                print(f"{workload:18s} {name:32s} {m['value']:.6g} {m['unit']}")
    return status


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"the program is not here: {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, HERE)
    if args.child:
        return child_main(args)
    if args.workload is None:
        status = run_all(args)
    else:
        from lgbench import spec

        if args.workload not in spec.WORKLOADS:
            print(f"unknown workload {args.workload!r}; known: "
                  f"{', '.join(spec.WORKLOADS)}", file=sys.stderr)
            return 2
        try:
            status = spawn(args, args.workload, args.trace,
                           capture=False).returncode
        except subprocess.TimeoutExpired:
            print(f"{args.workload} did not finish in {CHILD_TIMEOUT_S} s",
                  file=sys.stderr)
            status = 3
    stray = leaked()
    for what in stray:
        print(f"LEFT RUNNING: {what}", file=sys.stderr)
    return status or (4 if stray else 0)


if __name__ == "__main__":
    sys.exit(main())
