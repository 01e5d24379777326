"""Host-performance benchmarks for the hot simulation kernels.

Two entry points share this file:

* **pytest-benchmark tests** (below) — repeated timing of the
  vectorized kernels that dominate the simulator's host runtime, so a
  regression in the NumPy code paths (scatter-reduce, coherency
  staging, greedy partitioning) shows up as a wall-clock regression;
* **the regression harness** (``python benchmarks/bench_kernels.py
  --out BENCH_kernels.json``) — measures the kernel layer old-vs-new
  (``mode="generic"`` pins the historical per-call-flatten +
  ``ufunc.at`` path) per monoid and per frontier density, verifies
  bit-identity of buffers and of full modeled-cluster runs, and writes
  the committed ``BENCH_kernels.json``. ``--check <baseline.json>``
  exits non-zero when the new-path times regress more than 2× against
  the committed baseline (the CI smoke job).
"""

import argparse
import json
import sys
import time

import numpy as np

import pytest

from repro import kernels
from repro.algorithms import (
    ConnectedComponentsProgram,
    PageRankDeltaProgram,
    SSSPProgram,
)
from repro.core import CoherencyExchanger
from repro.core.transmission import build_lazy_graph
from repro.graph.generators import (
    attach_uniform_weights,
    erdos_renyi_graph,
    powerlaw_graph,
)
from repro.partition.coordinated_cut import coordinated_cut
from repro.runtime.machine_runtime import MachineRuntime


@pytest.fixture(scope="module")
def big_machine():
    """A single-machine runtime over a 200k-edge graph."""
    g = erdos_renyi_graph(20_000, 200_000, seed=1)
    pg = build_lazy_graph(g, 1, seed=1)
    return MachineRuntime(pg.machines[0], PageRankDeltaProgram())


def test_scatter_kernel_throughput(benchmark, big_machine):
    """Full-graph scatter: ~200k edge messages per call."""
    rt = big_machine
    idx = np.arange(rt.mg.num_local_vertices)
    deltas = np.ones(idx.size)

    def go():
        edges = rt.scatter(idx, deltas, track_delta=True)
        rt.msg[:] = rt.algebra.identity
        rt.has_msg[:] = False
        rt.clear_deltas(np.arange(rt.mg.num_local_vertices))
        return edges

    edges = benchmark(go)
    assert edges == rt.mg.num_local_edges
    # vectorized scatter should stay well above 1M edges/s on any host
    benchmark.extra_info["edges_per_call"] = edges


def test_take_ready_kernel(benchmark, big_machine):
    rt = big_machine
    rt.has_msg[:] = True
    rt.msg[:] = 1.0

    def go():
        idx, accum = rt.take_ready()
        rt.has_msg[:] = True
        rt.msg[:] = 1.0
        return idx.size

    n = benchmark(go)
    assert n == rt.mg.num_local_vertices


@pytest.fixture(scope="module")
def exchange_setup():
    g = powerlaw_graph(5_000, 60_000, seed=2)
    pg = build_lazy_graph(g, 16, seed=1)
    prog = ConnectedComponentsProgram()
    rts = [MachineRuntime(mg, prog) for mg in pg.machines]
    ex = CoherencyExchanger(pg, prog, rts)
    return pg, rts, ex


def test_coherency_exchange_kernel(benchmark, exchange_setup):
    """One full delta exchange over a 16-machine skewed layout."""
    pg, rts, ex = exchange_setup

    def go():
        for rt in rts:  # arm every replicated vertex with a delta
            rep = rt.mg.num_replicas > 1
            rt.delta_msg[rep] = 0.0
            rt.has_delta[rep] = True
        report = ex.exchange()
        for rt in rts:  # consume deliveries so the next round re-arms
            rt.msg[:] = rt.algebra.identity
            rt.has_msg[:] = False
        # reset the subsumption snapshot so every round ships again
        if ex._shared is not None:
            for mi, rt in enumerate(rts):
                ex._shared[mi][:] = rt.values()
        return report.messages

    msgs = benchmark(go)
    assert msgs > 0
    benchmark.extra_info["messages_per_exchange"] = msgs


def test_coordinated_cut_kernel(benchmark):
    """The greedy partitioner is the one deliberate Python loop; keep an
    eye on its throughput (edges placed per second)."""
    g = powerlaw_graph(3_000, 40_000, seed=3)
    assignment = benchmark(coordinated_cut, g, 16, 7)
    assert assignment.size == g.num_edges


# ======================================================================
# BENCH_kernels.json regression harness (CLI)
# ======================================================================
DENSITIES = (1.0, 0.6, 0.25, 0.05)


def _best_of(fn, reps):
    ts = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t0)
    return min(ts)


def _reset(rt):
    rt.msg[:] = rt.algebra.identity
    rt.has_msg[:] = False
    rt.delta_msg[:] = rt.algebra.identity
    rt.has_delta[:] = False


def _bits(a):
    return a.view(np.int64) if a.dtype == np.float64 else a


def bench_raw_kernels(n, m, reps):
    """Raw scatter_reduce (one ``ufunc.at``) on synthetic scatters.

    The floor every sweep path in ``scatter_path`` is built on: the
    indexed ``ufunc.at`` loops of NumPy ≥ 1.25 are the only per-call
    fold (``docs/performance.md`` has the numbers that retired the
    bincount and sort+reduceat alternatives).
    """
    from repro.api.vertex_program import MIN_ALGEBRA, SUM_ALGEBRA

    rng = np.random.default_rng(0)
    idx = rng.integers(0, n, m)
    vals = rng.random(m)
    out = {"n": n, "m": m, "cases": {}}
    for name, alg in (("sum", SUM_ALGEBRA), ("min", MIN_ALGEBRA)):
        t = _best_of(
            lambda: kernels.scatter_reduce(
                alg, np.full(n, alg.identity), idx, vals
            ),
            reps,
        )
        out["cases"][name] = {"ufunc_at_ms": t * 1e3}
    return out


def bench_scatter_path(n, m, reps):
    """End-to-end MachineRuntime.scatter, old path vs kernel layer.

    ``mode="generic"`` reproduces the pre-kernel code exactly (per-call
    flatten + ``edge_message`` + ``ufunc.at``); ``mode="auto"`` is the
    frontier-adaptive sweep with fused transforms and shared folds.
    Buffers are compared bit-for-bit between the modes at every density.
    """
    cases = {}
    for name, prog, weighted in (
        ("pagerank/sum", PageRankDeltaProgram(), False),
        ("cc/min", ConnectedComponentsProgram(), False),
        ("sssp/min", SSSPProgram(), True),
    ):
        g = erdos_renyi_graph(n, m, seed=1)
        if weighted:
            g = attach_uniform_weights(g, seed=2)
        pg = build_lazy_graph(g, 1, seed=1)
        rt = MachineRuntime(pg.machines[0], prog)
        nloc = rt.mg.num_local_vertices
        rng = np.random.default_rng(7)
        per_density = {}
        for density in DENSITIES:
            k = max(1, int(nloc * density))
            if density >= 1.0:
                idx = np.arange(nloc)
            else:
                idx = np.sort(rng.choice(nloc, size=k, replace=False))
            deltas = np.ones(idx.size)
            snap = {}
            for mode in ("generic", "auto"):
                with kernels.configured(mode=mode):
                    rt.scatter(idx, deltas, track_delta=True)
                snap[mode] = (
                    rt.msg.copy(), rt.delta_msg.copy(),
                    rt.has_msg.copy(), rt.has_delta.copy(),
                )
                _reset(rt)
            identical = all(
                np.array_equal(_bits(a), _bits(b))
                for a, b in zip(snap["generic"], snap["auto"])
            )
            times = {}
            for mode in ("generic", "auto"):
                def go():
                    with kernels.configured(mode=mode):
                        rt.scatter(idx, deltas, track_delta=True)
                    _reset(rt)
                times[mode] = _best_of(go, reps)
            per_density[str(density)] = {
                "old_ms": times["generic"] * 1e3,
                "new_ms": times["auto"] * 1e3,
                "speedup": times["generic"] / times["auto"],
                "identical": bool(identical),
                "frontier_edges": int(
                    (rt.out_plan.indptr[idx + 1] - rt.out_plan.indptr[idx]).sum()
                ),
            }
        cases[name] = per_density
    return {"n": n, "m": m, "densities": cases}


def bench_engine_matrix(machines, quick):
    """Full modeled-cluster runs, generic vs auto, must be bit-identical.

    Compares final values bit-for-bit and the whole RunStats dict
    (supersteps, coherency points, messages, modeled seconds, …) except
    the ``extra.kernel_*`` observability metrics, which legitimately
    differ between kernel modes.
    """
    from repro.powergraph.gas import GAS_ALGORITHM_NAMES
    from repro.run_api import ENGINE_NAMES, run
    from repro.runtime.registry import get_engine

    algos = ("pagerank", "cc") if quick else ("pagerank", "cc", "sssp", "kcore")
    engines = ENGINE_NAMES[:2] if quick else ENGINE_NAMES

    def strip(d):
        d = dict(d)
        for key in ("metrics", "extra"):
            d[key] = {
                k: v
                for k, v in d.get(key, {}).items()
                if not k.startswith(("kernel_", "extra.kernel_"))
            }
        return d

    combos = {}
    ok = True
    for engine in engines:
        for algo in algos:
            if (
                get_engine(engine).program_api == "gas"
                and algo not in GAS_ALGORITHM_NAMES
            ):
                continue  # kcore has a delta formulation only
            outs = {}
            for mode in ("generic", "auto"):
                with kernels.configured(mode=mode):
                    res = run(
                        "road-ca-mini", algo, engine=engine,
                        machines=machines, seed=3,
                    )
                outs[mode] = (res.values, strip(res.stats.to_dict()))
            v_id = bool(
                np.array_equal(
                    _bits(outs["generic"][0]), _bits(outs["auto"][0])
                )
            )
            s_id = outs["generic"][1] == outs["auto"][1]
            ok = ok and v_id and s_id
            st = outs["auto"][1]
            combos[f"{engine}/{algo}"] = {
                "values_identical": v_id,
                "stats_identical": bool(s_id),
                "supersteps": st.get("supersteps"),
                "coherency_points": st.get("coherency_points"),
                "comm_messages": st.get("comm_messages"),
            }
    return {"identical": bool(ok), "combos": combos}


def run_harness(args):
    # --quick trims repetitions and the engine matrix but keeps the graph
    # size, so its times stay comparable against a committed full baseline
    if args.quick:
        n, m, reps, machines = 20_000, 200_000, 5, 2
    else:
        n, m, reps, machines = 20_000, 200_000, 11, 4
    report = {
        "schema": "bench-kernels/v1",
        "numpy": np.__version__,
        "quick": bool(args.quick),
        "config_defaults": {
            k: getattr(kernels.get_config(), k)
            for k in ("mode", "dense_sweep_fraction", "dense_min_edges")
        },
        "raw_kernels": bench_raw_kernels(n, m, reps),
        "scatter_path": bench_scatter_path(n, m, reps),
        "engine_matrix": bench_engine_matrix(machines, args.quick),
    }
    sum_full = report["scatter_path"]["densities"]["pagerank/sum"]["1.0"]
    report["acceptance"] = {
        "sum_full_sweep_speedup": sum_full["speedup"],
        "sum_full_sweep_speedup_ok": sum_full["speedup"] >= 3.0,
        "all_bit_identical": bool(
            report["engine_matrix"]["identical"]
            and all(
                d["identical"]
                for case in report["scatter_path"]["densities"].values()
                for d in case.values()
            )
        ),
    }
    out = json.dumps(report, indent=2, sort_keys=True)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(out + "\n")
        print(f"wrote {args.out}")
    else:
        print(out)
    failures = []
    if not report["acceptance"]["all_bit_identical"]:
        failures.append("bit-identity violated")
    if args.check:
        with open(args.check) as fh:
            base = json.load(fh)
        for case, dens in base["scatter_path"]["densities"].items():
            for d, vals in dens.items():
                new = report["scatter_path"]["densities"][case][d]["new_ms"]
                # 2x ratio gate with a 0.5 ms absolute floor: sub-ms
                # cells (sparse low-density frontiers) jitter well past
                # 2x from timer noise alone on shared CI hosts
                if new > 2.0 * vals["new_ms"] + 0.5:
                    failures.append(
                        f"{case}@density={d}: {new:.3f}ms vs baseline "
                        f"{vals['new_ms']:.3f}ms (>2x)"
                    )
    for f in failures:
        print("REGRESSION:", f, file=sys.stderr)
    return 1 if failures else 0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", help="write the JSON report here")
    ap.add_argument(
        "--quick", action="store_true",
        help="small graph / few reps (CI smoke)",
    )
    ap.add_argument(
        "--check", metavar="BASELINE",
        help="fail (exit 1) if new-path times regress >2x vs this JSON",
    )
    return run_harness(ap.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
