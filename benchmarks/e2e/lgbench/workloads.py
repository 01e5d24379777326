"""The four workloads: inputs in, checked outputs and metrics out.

Each workload is one closed loop in one process on the serial backend.
An untraced run (``trace=False``) reports every end-to-end metric; a
traced run (``trace=True``) alternates untraced and wrapped samples on
one fresh session and reports every per-layer metric. Host times are
drift-corrected medians (see :mod:`lgbench.measure`); modeled times and
counts are exact.

What ``op_s`` times, per workload:

* ``pagerank_powerlaw`` / ``sssp_road`` — one converged ``session.run``
  on a warm session;
* ``serve_mix`` — wall of the closed loop divided by its queries (hits
  and misses together, two clients): the mean over rounds, because a
  round's time follows its number of misses and throughput is a total;
* ``dynamic_stream`` — ``session.apply(batch)`` plus the incremental
  ``bfs`` and ``pagerank`` runs that absorb it.
"""

from __future__ import annotations

import contextlib
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.algorithms.reference import pagerank_reference, sssp_reference
from repro.errors import ConvergenceError
from repro.partition.metrics import compute_partition_metrics
from repro.runtime.registry import get_engine
from repro.serve import GraphService
from repro.session import GraphSession

from . import inputs, spec
from .measure import (
    BLEND, SMALL_CALLS, HostReference, Sampler, median, peak_rss_mb,
    percentile,
)
from .tracing import Recorder, targets

__all__ = ["Outcome", "run_workload"]

ENGINE = "lazy-block"
BASELINE = "powergraph-sync"
SESSION_SEED = 0
PAGERANK_TOL = 1e-3
CLIENTS = 2
SERVE_SAMPLED = 20


@dataclass
class Outcome:
    """What one run of one workload produced."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    detail: Dict[str, Any] = field(default_factory=dict)
    failures: List[str] = field(default_factory=list)


class Ops:
    """Counts operations and the ones that failed or answered wrongly."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    def count(self, attempted: int, errors: List[str]) -> None:
        """``attempted`` operations of which ``errors`` raised."""
        self.attempted += attempted
        self.failures.extend(errors)

    def outcome(self, metrics, detail) -> Outcome:
        return Outcome(metrics, self.attempted, len(self.failures), detail,
                       self.failures)


class Budget:
    """Rounds until ``seconds`` have been measured (at least ``least``)."""

    def __init__(self, seconds: float, least: int) -> None:
        self.t0 = time.perf_counter()
        self.seconds = seconds
        self.least = least
        self.rounds = 0

    def more(self) -> bool:
        if self.rounds < self.least:
            return True
        elapsed = time.perf_counter() - self.t0
        # stop where the overshoot is at most half a round
        return elapsed + 0.5 * elapsed / self.rounds < self.seconds

    def done(self) -> None:
        self.rounds += 1


def _setup_probe(
    stack: contextlib.ExitStack, graph, machines: int,
    variants: Sequence[Tuple[str, Dict[str, Any]]],
) -> GraphSession:
    """Open a fresh session and materialise every artifact it caches.

    One ``max_supersteps=1`` run per algorithm variant builds the
    prepared graph, the partition and the CSR plans (plus one engine and
    one superstep, < 3 % of the total).
    """
    session = stack.enter_context(
        GraphSession.open(graph, machines=machines, seed=SESSION_SEED)
    )
    for alg, params in variants:
        try:
            session.run(alg, engine=ENGINE, max_supersteps=1, **params)
        except ConvergenceError:
            pass
    return session


def _sample_setup(
    sampler: Sampler, ops: Ops, graph, machines: int, variants
) -> None:
    with contextlib.ExitStack() as stack:
        session = sampler.sample(
            "setup", lambda: _setup_probe(stack, graph, machines, variants)
        )
        stats = session.artifact_stats()
        ops.check(
            stats["prepared_graphs"] >= 1
            and stats["prepared_graphs"] == stats["partitioned_graphs"]
            == stats["plans"],
            f"set-up left artifacts missing: {stats}",
        )


def _in_band(values, reference, tol: float) -> bool:
    """The repo's PageRank validation band (tests/integration)."""
    return bool(np.allclose(values, reference, atol=10 * tol, rtol=20 * tol))


def _sweeps(extra: Dict[str, float]) -> Dict[str, float]:
    out = {"sparse": 0.0, "dense": 0.0, "dense-full": 0.0}
    for key, val in extra.items():
        if key.startswith("kernel_scatter/") and key.endswith("_calls"):
            out[key.split("/")[1]] += val
    return out


def _sum_counts(all_stats) -> Dict[str, float]:
    """:func:`_run_counts` summed over several runs."""
    out: Dict[str, float] = {}
    for stats in all_stats:
        for key, val in _run_counts(stats).items():
            out[key] = out.get(key, 0.0) + val
    return out


def _run_counts(stats) -> Dict[str, float]:
    """Exact per-run counts behind modeled time, by layer."""
    extra = dict(stats.extra)
    sweeps = _sweeps(extra)
    return {
        "runtime.supersteps": stats.supersteps,
        "runtime.local_iterations": stats.local_iterations,
        "runtime.edge_traversals": stats.edge_traversals,
        "runtime.vertex_updates": stats.vertex_updates,
        "core.coherency_points": stats.coherency_points,
        "core.mode_switches": extra.get("mode_switches", 0.0),
        "kernels.sweeps_sparse": sweeps["sparse"],
        "kernels.sweeps_dense": sweeps["dense"],
        "kernels.sweeps_dense-full": sweeps["dense-full"],
        "comms.bytes": stats.comm_bytes,
        "comms.messages": stats.comm_messages,
        "comms.rounds": stats.comm_rounds,
        "comms.delta_a2a.bytes": extra.get("comms.delta_a2a.bytes", 0.0),
        "comms.delta_m2m.bytes": extra.get("comms.delta_m2m.bytes", 0.0),
        "cluster.global_syncs": stats.global_syncs,
        "cluster.modeled_compute_s": stats.compute_time_s,
        "cluster.modeled_comm_s": stats.comm_time_s,
        "cluster.modeled_sync_s": stats.sync_time_s,
    }


def _layer_metrics(values: Dict[str, float], ref: HostReference,
                   overhead_pct: float) -> Dict[str, float]:
    """Every per-layer metric; what the workload never ran reads 0."""
    out = {name: 0.0 for name in spec.LAYER_NAMES}
    for name, val in values.items():
        if name not in out:
            raise KeyError(f"not a per-layer metric: {name}")
        out[name] = float(val)
    out["host.cpus"] = float(os.cpu_count() or 1)
    out["host.calib_ms"] = ref.calib_ms
    out["trace.overhead_pct"] = overhead_pct
    return out


_RUN_PATH = (
    "session.run_overhead_s", "runtime.engine_init_s",
    "runtime.dispatch_overhead_s", "runtime.take_ready_s",
    "runtime.scatter_s", "algorithms.apply_s", "kernels.select_s",
    "kernels.reduce_s", "core.exchange_s", "core.deliver_s",
    "runtime.engine_untracked_s",
)


def _median_per_request(rec: Recorder, requests, names) -> Dict[str, float]:
    """Median over ``requests`` of each metric's summed self time."""
    if not requests:
        return dict.fromkeys(names, 0.0)
    by = rec.self_by_metric()
    return {
        name: median([by.get(r, {}).get(name, 0.0) for r in requests])
        for name in names
    }


def _setup_layers(rec: Recorder, setup_dur: float) -> Dict[str, float]:
    per = rec.self_by_metric().get("setup", {})
    four = ("graph.prepare_s", "partition.assign_s", "partition.build_s",
            "kernels.plan_build_s")
    out = {name: per.get(name, 0.0) for name in four}
    out["session.setup_untracked_s"] = setup_dur - sum(out.values())
    pm = compute_partition_metrics(rec.captured["pgraph"])
    out["partition.replication_factor"] = pm.replication_factor
    out["partition.edge_imbalance"] = pm.edge_balance
    return out


def _traced_setup(rec: Recorder, stack, graph, machines, variants):
    """The set-up probe under a root span; returns (session, duration)."""
    rec.request = "setup"
    root = rec.open("setup", "session")
    try:
        session = _setup_probe(stack, graph, machines, variants)
    finally:
        dur = rec.close(root)
    return session, dur


def _overhead_pct(sampler: Sampler, traced: str, untraced: str) -> float:
    if not sampler.count(traced) or not sampler.count(untraced):
        return 0.0
    return 100.0 * (sampler.median(traced) / sampler.median(untraced) - 1.0)


# ----------------------------------------------------------------------
# pagerank_powerlaw and sssp_road: one algorithm, run to convergence

@dataclass
class _Batch:
    graph: Callable[[int, bool], Any]
    machines: int
    quick_machines: int
    algorithm: str
    params: Dict[str, Any]
    warm_per_round: int
    check: Callable[[Any, Any], bool]
    #: which reference kernels a warm run's slow-down follows
    mix: Tuple[float, float, float]


def _check_pagerank(graph, result) -> bool:
    ref = pagerank_reference(graph, tol=1e-9)
    return bool(result.stats.converged) and _in_band(
        result.values, ref, PAGERANK_TOL
    )


def _check_sssp(graph, result) -> bool:
    return bool(result.stats.converged) and bool(
        np.array_equal(result.values, sssp_reference(graph, 0))
    )


_BATCH = {
    "pagerank_powerlaw": _Batch(
        inputs.pagerank_graph, 8, 4, "pagerank",
        {"tolerance": PAGERANK_TOL}, 2, _check_pagerank, BLEND,
    ),
    "sssp_road": _Batch(
        inputs.road_graph, 48, 16, "sssp", {"source": 0}, 1, _check_sssp,
        SMALL_CALLS,
    ),
}


def _batch_workload(name, seed, seconds, trace, quick):
    cfg = _BATCH[name]
    machines = cfg.quick_machines if quick else cfg.machines
    variants = [(cfg.algorithm, cfg.params)]
    graph = cfg.graph(seed, quick)
    ref = HostReference()
    sampler = Sampler(ref, {"warm": cfg.mix, "traced": cfg.mix})
    ops = Ops()
    detail: Dict[str, Any] = {
        "input_sha256": inputs.graph_sha256(graph),
        "vertices": graph.num_vertices, "edges": graph.num_edges,
        "machines": machines,
    }

    def run(session, **kw):
        return session.run(cfg.algorithm, engine=ENGINE, **cfg.params, **kw)

    rec = Recorder()
    tgs = targets(
        [get_engine(ENGINE).make_program(cfg.algorithm, **cfg.params)]
    ) if trace else []
    layers: Dict[str, float] = {}
    with contextlib.ExitStack() as stack:
        if trace:
            rec.install(tgs)
            try:
                main, setup_dur = _traced_setup(
                    rec, stack, graph, machines, variants
                )
            finally:
                rec.uninstall()
            layers.update(_setup_layers(rec, setup_dur))
        else:
            # the process's first set-up pays lazy imports: discarded
            main = _setup_probe(stack, graph, machines, variants)
        first = run(main)  # discarded warm-up sample; also the answer
        ops.check(cfg.check(graph, first), "lazy-block answer is wrong")
        sync = main.run(cfg.algorithm, engine=BASELINE, **cfg.params)
        ops.check(
            bool(sync.stats.converged), "powergraph-sync did not converge"
        )

        budget = Budget(seconds, least=3)
        traced_reps: List[int] = []
        while budget.more():
            if not trace:
                _sample_setup(sampler, ops, graph, machines, variants)
            for _ in range(cfg.warm_per_round):
                got = sampler.sample("warm", lambda: run(main))
                ops.check(
                    np.array_equal(got.values, first.values),
                    "warm run differs from the first run",
                )
            if trace:
                rec.request = budget.rounds
                rec.install(tgs)
                try:
                    got = sampler.sample("traced", lambda: run(main))
                finally:
                    rec.uninstall()
                traced_reps.append(budget.rounds)
                ops.check(
                    np.array_equal(got.values, first.values),
                    "traced run differs from the first run",
                )
            budget.done()

    modeled = float(first.stats.modeled_time_s)
    speedup = float(sync.stats.modeled_time_s) / modeled
    detail.update({
        "rounds": budget.rounds,
        "warm_samples": sampler.count("warm"),
        "warm_run_raw_s": sampler.raw_median("warm"),
        "supersteps": first.stats.supersteps,
        "host_calib_ms": ref.calib_ms,
    })
    if not trace:
        detail.update({
            "setup_samples": sampler.count("setup"),
            "setup_raw_s": sampler.raw_median("setup"),
            "cold_time_to_solution_s":
                sampler.median("setup") + sampler.median("warm"),
        })
        metrics = {
            "setup_s": sampler.median("setup"),
            "op_s": sampler.median("warm"),
            "modeled_time_s": modeled,
            "modeled_speedup_vs_sync": speedup,
            "peak_rss_mb": peak_rss_mb(),
        }
        return ops.outcome(metrics, detail), None

    layers.update(_median_per_request(rec, traced_reps, _RUN_PATH))
    layers.update(_run_counts(first.stats))
    calls = rec.calls("SerialBackend.dispatch")
    machine_calls = median([calls.get(r, 0) for r in traced_reps]) * machines
    warm_raw = sampler.raw_median("warm")
    layers["runtime.machine_calls"] = machine_calls
    layers["runtime.host_edges_per_s"] = first.stats.edge_traversals / warm_raw
    layers["runtime.us_per_machine_call"] = 1e6 * warm_raw / machine_calls
    layers["session.warm_run_s"] = sampler.median("warm")
    detail["trace_spans"] = len(rec.spans) + len(rec.hot)
    overhead = _overhead_pct(sampler, "traced", "warm")
    return ops.outcome(_layer_metrics(layers, ref, overhead), detail), rec


# ----------------------------------------------------------------------
# serve_mix: two closed-loop clients on one GraphService

_SERVE_VARIANTS = [
    ("bfs", {"source": 0}), ("ppr", {"seeds": [0]}), ("sssp", {"source": 0}),
]


def _direct(session, alg: str, sources: Sequence[int], engine: str):
    """The same query run straight on the session, unfused."""
    if alg in ("bfs", "sssp"):
        return session.run(alg, engine=engine, source=int(sources[0]))
    key = "seeds" if alg == "ppr" else "sources"
    return session.run(alg, engine=engine, **{key: [int(s) for s in sources]})


def _stratified(queries: list, size: int) -> list:
    """The first ``size`` answers in the mix's own proportions.

    A fixed composition keeps the modeled metrics, which are sums over
    this sample, from moving with how many ppr queries a seed drew.
    """
    out = []
    for alg, share in inputs.QUERY_MIX:
        of_kind = [q for q in queries if q[0] == alg]
        out.extend(of_kind[:max(1, round(share * size))])
    return out


def _client(svc, script, out: list, errors: list) -> None:
    for alg, source in script:
        t0 = time.perf_counter()
        try:
            served = svc.query(alg, sources=[source], timeout=120)
        except Exception as exc:  # counted as a failed op by the caller
            errors.append(f"{alg}({source}): {exc!r}")
            continue
        out.append((alg, source, t0, time.perf_counter(), served))


def _serve_round(svc, scripts, start: int, per_client: int):
    """One closed-loop round: every client sends its next queries."""
    done: List[list] = [[] for _ in scripts]
    errors: List[str] = []
    threads = [
        threading.Thread(
            target=_client,
            args=(svc, s[start:start + per_client], done[i], errors),
        )
        for i, s in enumerate(scripts)
    ]
    t0 = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - t0
    return wall, [q for client in done for q in client], errors


def _serve_workload(name, seed, seconds, trace, quick):
    machines = 4 if quick else 8
    per_client = 10 if quick else 40
    graph = inputs.service_graph(seed, quick)
    hot, scripts = inputs.query_script(
        graph.num_vertices, seed, CLIENTS, per_client, 80
    )
    ref = HostReference()
    sampler = Sampler(ref)
    ops = Ops()
    detail: Dict[str, Any] = {
        "input_sha256": inputs.graph_sha256(graph),
        "vertices": graph.num_vertices, "edges": graph.num_edges,
        "machines": machines, "clients": CLIENTS,
    }
    rec = Recorder()
    tgs = targets([
        get_engine(ENGINE).make_program(alg, **params)
        for alg, params in _SERVE_VARIANTS + [("msbfs", {"sources": [0]})]
    ]) if trace else []
    layers: Dict[str, float] = {}
    hits: List[float] = []
    misses: List[float] = []
    sampled: List[tuple] = []
    traced_queries: List[tuple] = []

    with contextlib.ExitStack() as stack:
        if trace:
            rec.install(tgs)
            try:
                main, setup_dur = _traced_setup(
                    rec, stack, graph, machines, _SERVE_VARIANTS
                )
            finally:
                rec.uninstall()
            layers.update(_setup_layers(rec, setup_dur))
            rec.request_per_run = True  # from here a request is one run
        else:
            main = _setup_probe(stack, graph, machines, _SERVE_VARIANTS)
        with GraphService(main, engine=ENGINE) as svc:
            # warm-up: every hot key asked once, one at a time, so the
            # LRU holds the hot set (unfused) before the loop starts and
            # the hit ratio does not depend on how many rounds fit
            prefill: list = []
            errors: List[str] = []
            _client(
                svc, [(alg, v) for alg, _ in inputs.QUERY_MIX for v in hot],
                prefill, errors,
            )
            ops.count(len(prefill) + len(errors), errors)
            budget = Budget(seconds, least=2)
            while budget.more() and (
                (budget.rounds + 1) * per_client <= len(scripts[0])
            ):
                start = budget.rounds * per_client
                traced_round = trace and budget.rounds % 2 == 1
                if not trace and budget.rounds % 3 == 0:
                    _sample_setup(sampler, ops, graph, machines,
                                  _SERVE_VARIANTS)
                if traced_round:
                    rec.install(tgs)
                try:
                    (wall, queries, errors), _, ratios = sampler.bracket(
                        lambda: _serve_round(svc, scripts, start, per_client)
                    )
                finally:
                    rec.uninstall()
                ops.count(CLIENTS * per_client, errors)
                kind = "traced" if traced_round else "round"
                sampler.add(kind, wall / (CLIENTS * per_client), ratios)
                if traced_round:
                    traced_queries.extend(queries)
                else:
                    factor = sampler.factor(kind, ratios)
                    for alg, source, t0, t1, served in queries:
                        (hits if served.cached else misses).append(
                            (t1 - t0) / factor
                        )
                if not sampled:
                    sampled = _stratified(queries, 2 if quick else SERVE_SAMPLED)
                budget.done()
            stats = svc.stats()

        # the service is closed: the session is ours again
        lazy_s = sync_s = 0.0
        sampled_stats = []
        for alg, source, _t0, _t1, served in sampled:
            lazy = _direct(main, alg, [source], ENGINE)
            sync = _direct(main, alg, [source], BASELINE)
            lazy_s += float(lazy.stats.modeled_time_s)
            sync_s += float(sync.stats.modeled_time_s)
            sampled_stats.append(lazy.stats)
            want = lazy
            if served.batched:
                fused = "msbfs" if alg == "bfs" else alg
                want = _direct(main, fused, served.sources_served, ENGINE)
            got = served.result.values
            if alg == "ppr":
                ok = bool(np.allclose(got, want.values, atol=1e-3, rtol=0))
            else:
                ok = bool(np.array_equal(got, want.values))
            ops.check(ok, f"served {alg}({source}) differs from a direct run")

    queries_run = sampler.count("round") * CLIENTS * per_client
    detail.update({
        "rounds": budget.rounds, "queries": queries_run,
        "hits": len(hits), "misses": len(misses),
        "round_raw_s_per_query": sampler.raw_median("round"),
        "host_calib_ms": ref.calib_ms,
    })
    by_kind = {
        "serve.queries_per_s": 1.0 / sampler.mean("round"),
        "serve.hit_latency_p50_ms": 1e3 * median(hits) if hits else 0.0,
        "serve.miss_latency_p50_ms": 1e3 * median(misses) if misses else 0.0,
        "serve.miss_latency_p95_ms":
            1e3 * percentile(misses, 95) if misses else 0.0,
    }
    detail.update(by_kind)
    if not trace:
        detail.update({
            "setup_samples": sampler.count("setup"),
            "setup_raw_s": sampler.raw_median("setup"),
        })
        metrics = {
            "setup_s": sampler.median("setup"),
            "op_s": sampler.mean("round"),
            "modeled_time_s": lazy_s,
            "modeled_speedup_vs_sync": sync_s / lazy_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        return ops.outcome(metrics, detail), None

    layers.update(by_kind)
    runs = [s for s in rec.named("GraphSession.run")
            if s["request"] != "setup"]
    run_ids = [s["request"] for s in runs]
    layers.update(_median_per_request(rec, run_ids, _RUN_PATH))
    layers.update(_sum_counts(sampled_stats))
    calls = rec.calls("SerialBackend.dispatch")
    layers["runtime.machine_calls"] = (
        median([calls.get(r, 0) for r in run_ids]) * machines
        if run_ids else 0.0
    )
    to_dict = rec.named("EngineResult.to_dict")
    from_dict = rec.named("EngineResult.from_dict")

    def dur(spans):
        return [s["end"] - s["start"] for s in spans]

    layers["serve.engine_run_s"] = median(dur(runs)) if runs else 0.0
    layers["serve.serialize_s"] = median(dur(to_dict)) if to_dict else 0.0
    layers["serve.deserialize_s"] = (
        median(dur(from_dict)) if from_dict else 0.0
    )
    served_spans = sorted(
        runs + to_dict + from_dict, key=lambda s: s["start"]
    )
    waits = []
    for _alg, _src, t0, t1, _served in traced_queries:
        busy = sum(
            s["end"] - s["start"] for s in served_spans
            if s["start"] >= t0 and s["end"] <= t1
        )
        waits.append(max(0.0, (t1 - t0) - busy))
    layers["serve.queue_wait_s"] = median(waits) if waits else 0.0
    misses_n = stats.get("serve.cache_misses", 0.0)
    batches = stats.get("serve.batches", 0.0)
    layers["serve.cache_hit_ratio"] = stats.get("serve.cache_hit_rate", 0.0)
    layers["serve.runs_per_miss"] = (
        stats.get("serve.runs", 0.0) / misses_n if misses_n else 0.0
    )
    layers["serve.fused_queries"] = stats.get("serve.fused_queries", 0.0)
    layers["serve.batches"] = batches
    layers["serve.mean_batch_size"] = (
        stats.get("serve.queries", 0.0) / batches if batches else 0.0
    )
    detail["trace_spans"] = len(rec.spans) + len(rec.hot)
    overhead = _overhead_pct(sampler, "traced", "round")
    return ops.outcome(_layer_metrics(layers, ref, overhead), detail), rec


# ----------------------------------------------------------------------
# dynamic_stream: mutation batches absorbed by incremental runs

_DYNAMIC_VARIANTS = [
    ("bfs", {"source": 0}), ("pagerank", {"tolerance": PAGERANK_TOL}),
]
#: batches every run absorbs; the exact metrics are sums over these
DYNAMIC_LEAST = 6
#: of those, the batches after which a cold recompute checks the answer
DYNAMIC_CHECKPOINTS = (3, 6)


def _dynamic_workload(name, seed, seconds, trace, quick):
    machines = 4 if quick else 8
    graph = inputs.service_graph(seed, quick)
    stream = inputs.mutation_stream(graph, seed, 12 if quick else 64)
    ref = HostReference()
    # a batch is PartitionedGraph.build's large arrays plus
    # graph_delta's interpreter work, not many small calls
    sampler = Sampler(ref, {
        kind + suffix: BLEND
        for kind in ("apply", "incremental", "op") for suffix in ("", "_traced")
    })
    ops = Ops()
    detail: Dict[str, Any] = {
        "input_sha256": inputs.graph_sha256(graph),
        "vertices": graph.num_vertices, "edges": graph.num_edges,
        "machines": machines,
    }
    rec = Recorder()
    tgs = targets([
        get_engine(ENGINE).make_program(alg, **params)
        for alg, params in _DYNAMIC_VARIANTS
    ]) if trace else []
    layers: Dict[str, float] = {}

    def runs(session, engine=ENGINE, **kw):
        return [
            session.run(alg, engine=engine, **params, **kw)
            for alg, params in _DYNAMIC_VARIANTS
        ]

    modeled = lazy_at_check = sync_at_check = 0.0
    inc_steps_at_check = cold_steps_at_check = 0
    warm_steps: List[float] = []
    reseeded: List[float] = []
    unchanged: List[float] = []
    traced_batches: List[int] = []
    counted_stats: list = []
    lambda_first = lambda_last = 0.0

    with contextlib.ExitStack() as stack:
        if trace:
            rec.install(tgs)
            try:
                main, setup_dur = _traced_setup(
                    rec, stack, graph, machines, _DYNAMIC_VARIANTS
                )
            finally:
                rec.uninstall()
            layers.update(_setup_layers(rec, setup_dur))
        else:
            main = _setup_probe(stack, graph, machines, _DYNAMIC_VARIANTS)
        for got in runs(main):  # warm-up full runs record the fixpoints
            ops.check(bool(got.stats.converged), "warm-up run diverged")

        def absorb(batch):
            t0 = time.perf_counter()
            applied = main.apply(batch)
            t1 = time.perf_counter()
            inc = runs(main, incremental=True)
            return applied, inc, t1 - t0, time.perf_counter() - t1

        def check(index, inc, with_sync):
            """Cold recompute on the patched graph checks the warm answer."""
            nonlocal lazy_at_check, sync_at_check
            nonlocal inc_steps_at_check, cold_steps_at_check
            cold = sampler.sample("cold", lambda: runs(main))
            ops.check(
                np.array_equal(inc[0].values, cold[0].values),
                f"batch {index}: incremental bfs != cold bfs",
            )
            ops.check(
                _in_band(inc[1].values, cold[1].values, PAGERANK_TOL),
                f"batch {index}: incremental pagerank outside the band",
            )
            inc_steps_at_check += sum(r.stats.supersteps for r in inc)
            cold_steps_at_check += sum(r.stats.supersteps for r in cold)
            if with_sync:
                sync = runs(main, engine=BASELINE)
                lazy_at_check += sum(
                    float(r.stats.modeled_time_s) for r in inc
                )
                sync_at_check += sum(
                    float(r.stats.modeled_time_s) for r in sync
                )

        index = 0
        inc: list = []
        budget = Budget(seconds, least=DYNAMIC_LEAST)
        while budget.more() and budget.rounds < len(stream):
            index = budget.rounds + 1  # batches count from 1
            traced_batch = trace and index % 2 == 0
            if not trace and index % 4 == 1:
                _sample_setup(sampler, ops, graph, machines,
                              _DYNAMIC_VARIANTS)
            if traced_batch:
                rec.request = index
                rec.install(tgs)
                traced_batches.append(index)
            try:
                (applied, inc, apply_s, inc_s), _, ratios = sampler.bracket(
                    lambda: absorb(stream[budget.rounds])
                )
            finally:
                rec.uninstall()
            if index > 1:  # batch 1 is the discarded warm-up sample
                suffix = "_traced" if traced_batch else ""
                sampler.add("apply" + suffix, apply_s, ratios)
                sampler.add("incremental" + suffix, inc_s, ratios)
                sampler.add("op" + suffix, apply_s + inc_s, ratios)
            ops.check(
                applied.graph_version == index
                and applied.edges_added == inputs.BATCH_EDGES,
                f"batch {index} was not applied as generated",
            )
            for got in inc:
                ops.check(
                    bool(got.stats.converged)
                    and got.stats.extra.get("warm_start") == 1,
                    f"batch {index}: {got.algorithm} was not a warm start",
                )
            if index <= DYNAMIC_LEAST:
                modeled += sum(float(r.stats.modeled_time_s) for r in inc)
                counted_stats.extend(r.stats for r in inc)
            if index == 1:
                lambda_first = max(
                    p.lambda_before for p in applied.patches.values()
                )
            lambda_last = applied.worst_lambda
            warm_steps.append(sum(r.stats.supersteps for r in inc))
            reseeded.append(
                sum(r.stats.extra.get("warm_reseeded", 0.0) for r in inc)
                / (len(inc) * graph.num_vertices)
            )
            unchanged.append(float(np.mean([
                len(p.machines_unchanged) for p in applied.patches.values()
            ])))
            budget.done()
            if index in DYNAMIC_CHECKPOINTS:
                check(index, inc, with_sync=True)
        if index not in DYNAMIC_CHECKPOINTS:
            check(index, inc, with_sync=False)

    by_kind = {
        "session.apply_latency_p50_ms": 1e3 * sampler.median("apply"),
        "session.incremental_run_s": sampler.median("incremental"),
    }
    detail.update(by_kind)
    detail.update({
        "batches": budget.rounds,
        "op_raw_s": sampler.raw_median("op"),
        "cold_recompute_s": sampler.median("cold"),
        "host_calib_ms": ref.calib_ms,
    })
    if not trace:
        detail.update({
            "setup_samples": sampler.count("setup"),
            "setup_raw_s": sampler.raw_median("setup"),
        })
        metrics = {
            "setup_s": sampler.median("setup"),
            "op_s": sampler.median("op"),
            "modeled_time_s": modeled,
            "modeled_speedup_vs_sync": sync_at_check / lazy_at_check,
            "peak_rss_mb": peak_rss_mb(),
        }
        return ops.outcome(metrics, detail), None

    layers.update(by_kind)
    by = rec.self_by_metric()
    per_batch = [by.get(b, {}) for b in traced_batches]

    def med(key: str) -> float:
        return median([p.get(key, 0.0) for p in per_batch])

    layers.update({k: med(k) for k in _RUN_PATH})
    layers.update(_sum_counts(counted_stats))
    calls = rec.calls("SerialBackend.dispatch")
    layers["runtime.machine_calls"] = (
        median([calls.get(b, 0) for b in traced_batches]) * machines
    )
    layers["graph.validate_s"] = med("graph.validate_s")
    layers["graph.apply_batch_s"] = med("graph.apply_batch_s")
    layers["partition.patch_s"] = med("partition.patch_s")
    # inside a batch the only PartitionedGraph.build / CSRPlan calls are
    # patch_partition's rebuild and the changed machines' plans
    layers["partition.patch_build_s"] = med("partition.build_s")
    layers["kernels.plan_rebuild_s"] = med("kernels.plan_build_s")

    def total(name: str, batch: int) -> float:
        return sum(s["end"] - s["start"] for s in rec.named(name)
                   if s["request"] == batch)

    def count(name: str, batch: int) -> int:
        return sum(1 for s in rec.named(name) if s["request"] == batch)

    engine_init = get_engine(ENGINE).cls.__name__ + ".__init__"
    layers["kernels.plans_rebuilt"] = median(
        [count("CSRPlan.__init__", b) for b in traced_batches]
    )
    layers["runtime.warm_plan_s"] = median(
        [total("session.plan_warm_start", b) for b in traced_batches]
    )
    layers["runtime.warm_graph_delta_s"] = median(
        [total("warm_start.graph_delta", b) for b in traced_batches]
    )
    layers["runtime.warm_engine_s"] = median([
        total(engine_init, b) + total("BaseEngine.run", b)
        for b in traced_batches
    ])
    layers["runtime.collect_state_s"] = med("runtime.collect_state_s")
    layers["runtime.cold_recompute_s"] = sampler.median("cold")
    layers["partition.machines_unchanged"] = median(unchanged)
    layers["partition.lambda_drift"] = lambda_last / lambda_first - 1.0
    layers["runtime.warm_supersteps"] = median(warm_steps)
    layers["runtime.warm_reseeded_ratio"] = median(reseeded)
    layers["runtime.warm_superstep_ratio"] = (
        inc_steps_at_check / cold_steps_at_check
    )
    detail["trace_spans"] = len(rec.spans) + len(rec.hot)
    overhead = _overhead_pct(sampler, "op_traced", "op")
    return ops.outcome(_layer_metrics(layers, ref, overhead), detail), rec


_WORKLOADS = {
    "pagerank_powerlaw": _batch_workload,
    "sssp_road": _batch_workload,
    "serve_mix": _serve_workload,
    "dynamic_stream": _dynamic_workload,
}


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, quick: bool = False,
) -> Tuple[Outcome, Optional[Recorder]]:
    """Run one workload; a traced run also returns its span recorder."""
    return _WORKLOADS[name](name, seed, seconds, trace, quick)
