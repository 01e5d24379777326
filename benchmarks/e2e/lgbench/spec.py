"""Names, units and bounds of the benchmark — the one place they live.

``BENCHMARK.json`` at the repo root must list exactly these workloads
and metrics (``tests/test_spec.py`` compares the two), and every run
prints exactly these metric names: ``--trace 0`` every end-to-end
metric, ``--trace 1`` every per-layer metric.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

#: seconds one run measures (the driver passes it as ``--seconds``)
RUN_SECONDS = 24

#: workload name -> why it exists (one line, <= 200 chars)
WORKLOADS: Dict[str, str] = {
    "pagerank_powerlaw": (
        "powerlaw(50k,600k) x 8 machines, lazy-block PageRank: few big "
        "machines, dense sweeps, lambda 2.6; kernel throughput, the "
        "exchange and coordinated_cut's per-edge loop dominate"
    ),
    "sssp_road": (
        "road grid 150x150 x 48 machines, lazy-block SSSP: 38k tiny "
        "sparse machine calls, lambda 1.5; per-call overhead dominates, "
        "kernel arithmetic is almost nothing"
    ),
    "serve_mix": (
        "2 closed-loop clients on one GraphService, bfs/ppr/sssp point "
        "queries, key space 13x the LRU: queueing, batching, fusion, "
        "cache and (de)serialisation are most of a request"
    ),
    "dynamic_stream": (
        "mutation batches (16 removals + 16 insertions) then "
        "incremental bfs + pagerank: patch_partition and "
        "plan_warm_start, the mutation paths the cold workloads never run"
    ),
}

#: (name, unit, better, bound) — every one is reported by every workload
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", "lower", 0.25),
    ("op_s", "s", "lower", 0.25),
    ("modeled_time_s", "s", "lower", 0.20),
    ("modeled_speedup_vs_sync", "ratio", "higher", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.10),
]

#: (name, unit, better) — layer = module name under src/repro/; a layer
#: metric a workload does not exercise reads 0
PER_LAYER: List[Tuple[str, str, str]] = [
    # what op_s is made of, per workload (host seconds, drift-corrected
    # like op_s itself)
    ("session.warm_run_s", "s", "lower"),
    ("serve.queries_per_s", "1/s", "higher"),
    ("serve.hit_latency_p50_ms", "ms", "lower"),
    ("serve.miss_latency_p50_ms", "ms", "lower"),
    ("serve.miss_latency_p95_ms", "ms", "lower"),
    ("session.apply_latency_p50_ms", "ms", "lower"),
    ("session.incremental_run_s", "s", "lower"),
    # set-up path
    ("graph.prepare_s", "s", "lower"),
    ("partition.assign_s", "s", "lower"),
    ("partition.build_s", "s", "lower"),
    ("kernels.plan_build_s", "s", "lower"),
    ("session.setup_untracked_s", "s", "lower"),
    ("partition.replication_factor", "ratio", "lower"),
    ("partition.edge_imbalance", "ratio", "lower"),
    # run path (span self time, median per warm run / miss / batch)
    ("session.run_overhead_s", "s", "lower"),
    ("runtime.engine_init_s", "s", "lower"),
    ("runtime.dispatch_overhead_s", "s", "lower"),
    ("runtime.take_ready_s", "s", "lower"),
    ("runtime.scatter_s", "s", "lower"),
    ("algorithms.apply_s", "s", "lower"),
    ("kernels.select_s", "s", "lower"),
    ("kernels.reduce_s", "s", "lower"),
    ("core.exchange_s", "s", "lower"),
    ("core.deliver_s", "s", "lower"),
    ("runtime.engine_untracked_s", "s", "lower"),
    ("runtime.host_edges_per_s", "1/s", "higher"),
    ("runtime.us_per_machine_call", "us", "lower"),
    # counts that explain modeled time (exact)
    ("runtime.supersteps", "count", "lower"),
    ("runtime.local_iterations", "count", "lower"),
    ("runtime.edge_traversals", "count", "lower"),
    ("runtime.vertex_updates", "count", "lower"),
    ("runtime.machine_calls", "count", "lower"),
    ("core.coherency_points", "count", "lower"),
    ("core.mode_switches", "count", "lower"),
    ("kernels.sweeps_sparse", "count", "lower"),
    ("kernels.sweeps_dense", "count", "lower"),
    ("kernels.sweeps_dense-full", "count", "lower"),
    ("comms.bytes", "B", "lower"),
    ("comms.messages", "count", "lower"),
    ("comms.rounds", "count", "lower"),
    ("comms.delta_a2a.bytes", "B", "lower"),
    ("comms.delta_m2m.bytes", "B", "lower"),
    ("cluster.global_syncs", "count", "lower"),
    ("cluster.modeled_compute_s", "s", "lower"),
    ("cluster.modeled_comm_s", "s", "lower"),
    ("cluster.modeled_sync_s", "s", "lower"),
    # serve
    ("serve.engine_run_s", "s", "lower"),
    ("serve.serialize_s", "s", "lower"),
    ("serve.deserialize_s", "s", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.cache_hit_ratio", "ratio", "higher"),
    ("serve.runs_per_miss", "ratio", "lower"),
    ("serve.fused_queries", "count", "higher"),
    ("serve.batches", "count", "lower"),
    ("serve.mean_batch_size", "ratio", "higher"),
    # dynamic: apply path
    ("graph.validate_s", "s", "lower"),
    ("graph.apply_batch_s", "s", "lower"),
    ("partition.patch_s", "s", "lower"),
    ("partition.patch_build_s", "s", "lower"),
    ("kernels.plan_rebuild_s", "s", "lower"),
    ("kernels.plans_rebuilt", "count", "lower"),
    ("partition.machines_unchanged", "count", "higher"),
    ("partition.lambda_drift", "ratio", "lower"),
    # dynamic: incremental path
    ("runtime.warm_plan_s", "s", "lower"),
    ("runtime.warm_graph_delta_s", "s", "lower"),
    ("runtime.warm_engine_s", "s", "lower"),
    ("runtime.collect_state_s", "s", "lower"),
    ("runtime.cold_recompute_s", "s", "lower"),
    ("runtime.warm_supersteps", "count", "lower"),
    ("runtime.warm_reseeded_ratio", "ratio", "lower"),
    ("runtime.warm_superstep_ratio", "ratio", "lower"),
    # host
    ("host.cpus", "count", "higher"),
    ("host.calib_ms", "ms", "lower"),
    ("trace.overhead_pct", "%", "lower"),
]

E2E_NAMES = [m[0] for m in END_TO_END]
E2E_UNITS = {m[0]: m[1] for m in END_TO_END}
LAYER_NAMES = [m[0] for m in PER_LAYER]
LAYER_UNITS = {m[0]: m[1] for m in PER_LAYER}


def benchmark_json() -> dict:
    """The contents ``BENCHMARK.json`` must have."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
