"""Command-line interface: ``python -m repro <command>``.

Mirrors how the paper's toolkits are driven from the shell:

* ``run``      — one algorithm × graph × engine, prints the stats line;
* ``compare``  — lazy vs PowerGraph Sync (a Fig 9/10/11 row);
* ``datasets`` — the Table 1 registry;
* ``info``     — structural properties of one graph;
* ``sweep``    — machine-count scaling series (a Fig 12 panel);
* ``analyze``  — the one text reader of every recorded file; its
  sections follow from the file's kind (``repro.obs.records``): a run
  trace gets the per-phase / totals / decisions tables, then the
  critical path and stragglers, with LensAuditor anomalies on stderr
  (``--strict`` exits 3 on any); a serve trace the request
  waterfalls / cost attribution and the service counters (exit 3 when
  the exactness contracts fail); a telemetry file the service view
  (``--follow`` tails it, ``--p95-ms`` / ``--min-hit-rate`` /
  ``--max-queue-depth`` gate it, exit 4 on violation); a ``mutate
  --out`` stream the re-convergence / λ-drift table; two run traces
  (``analyze A B``) their totals and coherency decisions side by side.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from repro.algorithms import program_names
from repro.bench.harness import compare_lazy_vs_sync, session_for
from repro.bench.reporting import format_series, format_table
from repro.graph.datasets import dataset_info, dataset_names, load_dataset
from repro.graph.properties import compute_properties
from repro.core.policy import controller_names, named_policy
from repro.obs.records import TRACE_FORMATS
from repro.partition.base import PARTITIONER_NAMES
from repro.run_api import run
from repro.runtime.registry import engine_names

POLICY_NAMES = controller_names()

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LazyGraph (PPoPP'18) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_session(p):
        """The resident graph: dataset, cluster size and partitioning."""
        p.add_argument(
            "--graph", default="road-ca-mini",
            help="dataset name (default: road-ca-mini)",
        )
        p.add_argument("--machines", type=int, default=48)
        p.add_argument(
            "--partitioner", default="coordinated",
            choices=list(PARTITIONER_NAMES),
        )
        p.add_argument("--seed", type=int, default=0)

    def add_algorithm(p, required=True, help=None):
        """The algorithm and its parameters."""
        p.add_argument(
            "--algorithm", "--algo",
            required=required,
            choices=list(program_names()),
            help=help,
        )
        p.add_argument("--k", type=int, help="k-core K")
        p.add_argument("--source", type=int, help="SSSP/BFS source vertex")
        p.add_argument("--tolerance", type=float, help="PageRank/PPR tolerance")
        p.add_argument(
            "--seeds", help="comma-separated PPR seed vertices (e.g. 0,7,42)"
        )
        p.add_argument(
            "--sources",
            help="comma-separated source vertices (msbfs / serving queries)",
        )

    p_run = sub.add_parser("run", help="run one engine and print its stats")
    add_session(p_run)
    add_algorithm(p_run)
    p_run.add_argument(
        "--engine", default="lazy-block", choices=list(engine_names())
    )
    p_run.add_argument(
        "--policy", choices=list(POLICY_NAMES),
        help="named coherency policy (its rule + wire mode + "
             "max_delta_age in one knob; lazy engines)",
    )
    p_run.add_argument(
        "--policy-opt", action="append", metavar="K=V", default=[],
        help="override one policy field or rule option, e.g. "
             "--policy-opt max_delta_age=4 --policy-opt ev_threshold=5 "
             "(repeatable)",
    )
    p_run.add_argument("--top", type=int, default=0, help="print top-N vertices")
    p_run.add_argument(
        "--trace", action="store_true",
        help="trace the run and plot its per-superstep active counts "
             "and modeled time (the superstep spans' 'active')",
    )
    p_run.add_argument(
        "--trace-out", metavar="PATH",
        help="write the structured execution trace to PATH",
    )
    p_run.add_argument(
        "--trace-format", default="jsonl", choices=list(TRACE_FORMATS),
        help="trace file format: jsonl or chrome (chrome://tracing)",
    )
    p_run.add_argument(
        "--lens", action="store_true",
        help="enable the coherency lens (lazy engines): replica "
             "staleness/divergence probes + the decision audit log",
    )

    def add_serving(p):
        p.add_argument(
            "--engine", default="lazy-block", choices=list(engine_names())
        )
        p.add_argument(
            "--policy", choices=list(POLICY_NAMES),
            help="named coherency policy every query runs under",
        )
        p.add_argument(
            "--max-batch", type=int, default=8,
            help="max queries fused per batching window (default 8)",
        )
        p.add_argument(
            "--max-wait", type=float, default=0.002,
            help="seconds to wait for batchable stragglers (default 0.002)",
        )
        p.add_argument(
            "--cache-size", type=int, default=128,
            help="LRU capacity in distinct query keys (0 disables)",
        )
        p.add_argument(
            "--batch-mode", default="fused", choices=["fused", "exact"],
            help="fuse compatible point queries into one multi-source "
                 "sweep (fused, default) or only share identical queries "
                 "(exact)",
        )
        p.add_argument(
            "--top", type=int, default=0,
            help="include the top-N vertices in each answer",
        )
        p.add_argument(
            "--trace-out", metavar="PATH",
            help="write the serve trace (one record per request, one "
                 "per engine run with its engine trace) to PATH; analyze "
                 "with 'repro analyze PATH'",
        )
        p.add_argument(
            "--telemetry-out", metavar="PATH",
            help="append service telemetry ticks (queue depth, hit "
                 "rate, latency quantiles) to PATH; view, tail and "
                 "gate with 'repro analyze PATH'",
        )
        p.add_argument(
            "--telemetry-interval", type=float, default=1.0, metavar="S",
            help="telemetry sampling interval in seconds (default 1.0)",
        )
        p.add_argument(
            "--telemetry-window", type=float, default=60.0, metavar="S",
            help="sliding-window horizon for per-class latency "
                 "quantiles (default 60)",
        )

    p_srv = sub.add_parser(
        "serve",
        help="resident query service: one request per stdin line, one "
             "JSON answer per line",
    )
    add_session(p_srv)
    add_serving(p_srv)

    p_qry = sub.add_parser(
        "query",
        help="run one query through a resident session/service "
             "(--repeat shows warm-session + cache behavior)",
    )
    add_session(p_qry)
    add_algorithm(p_qry)
    add_serving(p_qry)
    p_qry.add_argument(
        "--repeat", type=int, default=1,
        help="issue the query N times back-to-back (default 1)",
    )
    p_qry.add_argument(
        "--json", action="store_true",
        help="print one JSON record per query (request id, latency, "
             "cache-hit flag) instead of the human table",
    )

    p_mut = sub.add_parser(
        "mutate",
        help="apply mutation batches to a resident graph and re-converge "
             "incrementally; emits one JSONL event per apply/run",
    )
    add_session(p_mut)
    p_mut.add_argument(
        "--engine", default="lazy-block", choices=list(engine_names())
    )
    add_algorithm(
        p_mut, required=False,
        help="algorithm to re-converge after each batch (a cold "
             "baseline run records the fixpoint first)",
    )
    p_mut.add_argument(
        "--batch", action="append", default=[], metavar="PATH",
        help="JSON mutation batch file, applied in order (repeatable); "
             "'-' reads one JSON batch per stdin line",
    )
    p_mut.add_argument(
        "--batch-json", action="append", default=[], metavar="JSON",
        help="inline JSON mutation batch (repeatable), e.g. "
             "'{\"add_edges\": [[0, 9]], \"remove_edges\": [[3, 4]]}'",
    )
    p_mut.add_argument(
        "--compare-cold", action="store_true",
        help="also re-run from scratch after each batch and report the "
             "superstep / modeled-time ratio",
    )
    p_mut.add_argument(
        "--out", metavar="PATH",
        help="also write the JSONL events to PATH (analyze with "
             "'repro analyze PATH')",
    )

    p_cmp = sub.add_parser("compare", help="lazy vs PowerGraph Sync")
    add_session(p_cmp)
    add_algorithm(p_cmp)

    sub.add_parser("datasets", help="list the Table 1 dataset registry")

    p_info = sub.add_parser("info", help="structural properties of a graph")
    p_info.add_argument("--graph", required=True)

    p_sweep = sub.add_parser("sweep", help="machine-count scaling series")
    add_session(p_sweep)
    add_algorithm(p_sweep)
    p_sweep.add_argument(
        "--machine-counts",
        default="8,16,24,32,40,48",
        help="comma-separated machine counts",
    )

    p_fig = sub.add_parser(
        "figures", help="regenerate every table/figure to a results dir"
    )
    p_fig.add_argument("--out", default="results", help="output directory")

    p_val = sub.add_parser(
        "validate",
        help="check lazy ≡ eager ≡ reference on a graph file (paper §3.5)",
    )
    p_val.add_argument(
        "--graph-file", required=True,
        help="edge list / SNAP .txt / DIMACS .gr / .npz graph file",
    )
    p_val.add_argument(
        "--algorithm", default="all",
        choices=["all", "pagerank", "sssp", "cc", "kcore", "bfs"],
    )
    p_val.add_argument("--machines", type=int, default=8)
    p_val.add_argument("--seed", type=int, default=0)

    p_ana = sub.add_parser(
        "analyze",
        help="text analysis of a recorded file, by what it contains: "
             "phase / totals / decision tables + critical path, lens "
             "timeline and stragglers + audit of a run trace, request "
             "waterfalls + cost attribution of a serve trace, the "
             "service view (tail, SLO gate) of a telemetry file, "
             "re-convergence + lambda drift of a mutation stream; two "
             "run traces' totals side by side",
    )
    p_ana.add_argument(
        "trace", nargs="+",
        help="file written by run/serve --trace-out, serve "
             "--telemetry-out or mutate --out; or two run traces (A B) "
             "to compare",
    )
    p_ana.add_argument(
        "--json", action="store_true",
        help="print the full analysis as JSON instead of text",
    )
    p_ana.add_argument(
        "--json-out", metavar="PATH",
        help="also write the JSON analysis to PATH",
    )
    p_ana.add_argument(
        "--max-rows", type=int, default=40,
        help="rows shown in the text tables (default 40)",
    )
    p_ana.add_argument(
        "--run-id", type=int, metavar="N",
        help="narrow a serve trace to engine run N and print "
             "that run's analysis (run ids: the serve analysis' runs "
             "table)",
    )
    p_ana.add_argument(
        "--strict", action="store_true",
        help="run trace: exit with code 3 when the LensAuditor flags "
             "any anomaly",
    )
    p_ana.add_argument(
        "--follow", action="store_true",
        help="telemetry: block and re-render on every new tick "
             "(Ctrl-C to stop)",
    )
    p_ana.add_argument(
        "--ticks", type=int, default=0, metavar="N",
        help="with --follow: exit after N ticks (0 = until interrupted)",
    )
    p_ana.add_argument(
        "--p95-ms", type=float, metavar="MS",
        help="telemetry gate (exit 4 on violation): max cumulative p95 "
             "latency in milliseconds",
    )
    p_ana.add_argument(
        "--min-hit-rate", type=float, metavar="X",
        help="telemetry gate: min cumulative cache hit rate in [0, 1]",
    )
    p_ana.add_argument(
        "--max-queue-depth", type=int, metavar="N",
        help="telemetry gate: max sampled queue depth over all ticks",
    )

    return parser


def _algorithm_params(args) -> dict:
    params = {}
    if args.k is not None:
        params["k"] = args.k
    if args.source is not None:
        params["source"] = args.source
    if args.tolerance is not None:
        params["tolerance"] = args.tolerance
    if getattr(args, "seeds", None):
        params["seeds"] = [int(s) for s in args.seeds.split(",") if s]
    if getattr(args, "sources", None):
        params["sources"] = [int(s) for s in args.sources.split(",") if s]
    return params


def _coerce_opt(value: str):
    """K=V values: int, then float, then the literal string."""
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            pass
    return value


def _resolve_cli_policy(args):
    """Build the run's CoherencyPolicy from --policy / --policy-opt."""
    opts = {}
    for item in args.policy_opt:
        if "=" not in item:
            raise SystemExit(f"--policy-opt expects K=V, got {item!r}")
        key, _, value = item.partition("=")
        opts[key] = _coerce_opt(value)
    return named_policy(args.policy, opts)


def _cmd_run(args) -> int:
    kwargs = _algorithm_params(args)
    result = run(
        args.graph,
        args.algorithm,
        engine=args.engine,
        machines=args.machines,
        partitioner=args.partitioner,
        policy=_resolve_cli_policy(args),
        seed=args.seed,
        trace=getattr(args, "trace", False),
        trace_out=getattr(args, "trace_out", None),
        trace_format=getattr(args, "trace_format", None) or "jsonl",
        lens=getattr(args, "lens", False),
        **kwargs,
    )
    print(f"{result.engine}/{result.algorithm} on {args.graph} "
          f"({args.machines} machines): {result.stats.summary()}")
    if getattr(args, "trace_out", None):
        print(f"trace written to {args.trace_out} "
              f"({getattr(args, 'trace_format', None) or 'jsonl'})")
    if getattr(args, "trace", False):
        from repro.bench.plots import timeline_plot

        print(timeline_plot(result.trace))
    if args.top:
        order = np.argsort(result.values)[::-1][: args.top]
        rows = [[int(v), round(float(result.values[v]), 4)] for v in order]
        print(format_table(["vertex", "value"], rows, title=f"top {args.top}"))
    return 0


def _open_service(args):
    """A (session, service) pair from serve/query arguments."""
    from repro.serve import GraphService
    from repro.session import GraphSession

    session = GraphSession.open(
        args.graph, machines=args.machines,
        partitioner=args.partitioner, seed=args.seed,
    )
    service = GraphService(
        session,
        engine=args.engine,
        policy=args.policy,
        max_batch=args.max_batch,
        max_wait=args.max_wait,
        cache_size=args.cache_size,
        batch_mode=args.batch_mode,
        trace_out=getattr(args, "trace_out", None),
        telemetry_out=getattr(args, "telemetry_out", None),
        telemetry_interval=getattr(args, "telemetry_interval", 1.0),
        telemetry_window=getattr(args, "telemetry_window", 60.0),
    )
    return session, service


def _served_row(served, top: int = 0) -> dict:
    """One served answer as a JSON-serializable record."""
    row = {
        "request_id": served.request_id,
        "algorithm": served.result.algorithm,
        "engine": served.result.engine,
        "sources": list(served.request.sources),
        "sources_served": list(served.sources_served),
        "cached": served.cached,
        "batched": served.batched,
        "batch_size": served.batch_size,
        "latency_s": round(served.latency_s, 6),
        "engine_cost_s": round(served.engine_cost_s, 9),
        "supersteps": served.result.stats.supersteps,
        "modeled_time_s": round(served.result.stats.modeled_time_s, 6),
        "converged": served.result.stats.converged,
    }
    if top:
        values = served.result.values
        order = np.argsort(values)[::-1][:top]
        row["top"] = [[int(v), float(values[v])] for v in order]
    return row


def _parse_query_line(line: str) -> dict:
    """One stdin request: JSON object, or ``<algorithm> [srcs] [k=v...]``.

    A JSON object with a ``mutate`` key — or a line of the form
    ``mutate {...batch json...}`` — is a graph mutation; everything
    else is a query.
    """
    import json

    if line.startswith("{"):
        obj = json.loads(line)
        if "mutate" in obj:
            return {"mutate": obj["mutate"]}
        return {
            "algorithm": obj["algorithm"],
            "sources": obj.get("sources", ()),
            "params": obj.get("params", {}),
        }
    parts = line.split(None, 1)
    if parts[0] == "mutate":
        if len(parts) < 2 or not parts[1].lstrip().startswith("{"):
            raise ValueError(
                "mutate verb takes a JSON batch: mutate "
                '{"add_edges": [[0, 9]], ...}'
            )
        return {"mutate": json.loads(parts[1])}
    parts = line.split()
    algorithm, sources, params = parts[0], (), {}
    for token in parts[1:]:
        if "=" in token:
            key, _, value = token.partition("=")
            params[key] = _coerce_opt(value)
        else:
            sources = tuple(int(s) for s in token.split(",") if s)
    return {"algorithm": algorithm, "sources": sources, "params": params}


def _cmd_serve(args) -> int:
    import json

    session, service = _open_service(args)
    with session, service:
        print(
            f"serving {args.graph} ({args.machines} machines, engine "
            f"{args.engine}, batch={args.batch_mode}); one request per "
            f"line: '<algorithm> [src,src,...] [k=v ...]' or JSON",
            file=sys.stderr,
        )
        from repro.graph.mutation import MutationBatch

        pending = []
        errors = 0
        for line in sys.stdin:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                req = _parse_query_line(line)
                if "mutate" in req:
                    fut = service.submit_mutation(
                        MutationBatch.from_dict(req["mutate"])
                    )
                    pending.append(("mutate", fut))
                else:
                    fut = service.submit(
                        req["algorithm"], req["sources"], **req["params"]
                    )
                    pending.append(("query", fut))
            except Exception as exc:
                errors += 1
                print(json.dumps({"error": str(exc), "line": line}))
                continue
        for kind, fut in pending:
            try:
                if kind == "mutate":
                    applied = fut.result()
                    print(json.dumps({"mutate": applied.to_dict()}))
                else:
                    print(json.dumps(_served_row(fut.result(), top=args.top)))
            except Exception as exc:
                errors += 1
                print(json.dumps({"error": str(exc)}))
        print(json.dumps(service.stats()), file=sys.stderr)
    return 1 if errors else 0


def _cmd_query(args) -> int:
    import json

    params = _algorithm_params(args)
    sources = params.pop("sources", [])
    session, service = _open_service(args)
    with session, service:
        rows = []
        for i in range(max(1, args.repeat)):
            served = service.query(args.algorithm, sources, **params)
            if args.json:
                print(json.dumps(_served_row(served, top=args.top)))
                continue
            rows.append(
                [
                    i,
                    served.request_id,
                    round(served.latency_s * 1e3, 3),
                    served.cached,
                    served.batched,
                    served.result.stats.supersteps,
                ]
            )
        if args.json:
            print(json.dumps(service.stats()), file=sys.stderr)
            return 0
        print(
            format_table(
                ["#", "req", "latency_ms", "cached", "batched", "supersteps"],
                rows,
                title=f"{args.algorithm}{list(sources) or ''} on "
                      f"{args.graph} ({args.machines} machines)",
            )
        )
        if args.top:
            values = served.result.values
            order = np.argsort(values)[::-1][: args.top]
            print(
                format_table(
                    ["vertex", "value"],
                    [[int(v), round(float(values[v]), 4)] for v in order],
                    title=f"top {args.top}",
                )
            )
        stats = service.stats()
        print(
            f"runs={stats.get('serve.runs', 0):.0f} "
            f"cache_hit_rate={stats['serve.cache_hit_rate']:.2f} "
            f"(session reused the prepared graph/partition across "
            f"{max(1, args.repeat)} queries)"
        )
    return 0


def _cmd_mutate(args) -> int:
    import json

    from repro.graph.mutation import MutationBatch
    from repro.obs.records import RecordWriter, encode
    from repro.session import GraphSession

    batches = []
    try:
        for text in args.batch_json:
            batches.append(MutationBatch.from_dict(json.loads(text)))
        for path in args.batch:
            if path == "-":
                for line in sys.stdin:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        batches.append(
                            MutationBatch.from_dict(json.loads(line))
                        )
            else:
                with open(path, "r", encoding="utf-8") as fh:
                    batches.append(MutationBatch.from_dict(json.load(fh)))
    except Exception as exc:
        print(f"mutate: bad batch: {exc}", file=sys.stderr)
        return 2
    if not batches:
        print(
            "mutate: no batches given (--batch / --batch-json)",
            file=sys.stderr,
        )
        return 2

    params = _algorithm_params(args) if args.algorithm else {}
    out = RecordWriter(args.out, "mutations") if args.out else None

    def emit(event):
        print(encode(event))
        if out is not None:
            out.write(event)

    def run_record(result, mode):
        rec = {
            "event": "run",
            "mode": mode,
            "graph_version": session.graph_version,
            "algorithm": args.algorithm,
            "supersteps": result.stats.supersteps,
            "modeled_time_s": result.stats.modeled_time_s,
        }
        if mode == "incremental":
            extra = result.stats.extra
            rec["warm_start"] = int(extra.get("warm_start", 0))
            rec["reseeded"] = int(extra.get("warm_reseeded", 0))
            rec["injections"] = int(extra.get("warm_injections", 0))
        return rec

    session = GraphSession.open(
        args.graph, machines=args.machines,
        partitioner=args.partitioner, seed=args.seed,
    )
    with session:
        if args.algorithm:
            baseline = session.run(
                args.algorithm, engine=args.engine, **params
            )
            emit(run_record(baseline, "baseline"))
        for batch in batches:
            applied = session.apply(batch)
            emit({"event": "apply", **applied.to_dict()})
            if args.algorithm:
                inc = session.run(
                    args.algorithm, engine=args.engine,
                    incremental=True, **params,
                )
                rec = run_record(inc, "incremental")
                if args.compare_cold:
                    cold = session.run(
                        args.algorithm, engine=args.engine, **params
                    )
                    rec["cold_supersteps"] = cold.stats.supersteps
                    rec["cold_modeled_time_s"] = cold.stats.modeled_time_s
                emit(rec)
    if out is not None:
        out.close()
        print(f"mutation stream written to {args.out}", file=sys.stderr)
    return 0


def _cmd_compare(args) -> int:
    row = compare_lazy_vs_sync(
        args.graph,
        args.algorithm,
        machines=args.machines,
        partitioner=args.partitioner,
        seed=args.seed,
        params=_algorithm_params(args),
    )
    print(
        format_table(
            ["metric", "value"],
            [
                ["speedup (lazy vs sync)", round(row["speedup"], 3)],
                ["sync time (s)", round(row["sync_time_s"], 4)],
                ["lazy time (s)", round(row["lazy_time_s"], 4)],
                ["normalized syncs", round(row["norm_syncs"], 3)],
                ["normalized traffic", round(row["norm_traffic"], 3)],
            ],
            title=f"{args.algorithm} on {args.graph}, {args.machines} machines",
        )
    )
    return 0


def _cmd_datasets(_args) -> int:
    rows = []
    for name in dataset_names():
        info = dataset_info(name)
        g = load_dataset(name)
        rows.append(
            [name, info.category, g.num_vertices, g.num_edges,
             round(g.ev_ratio, 2), info.paper_name]
        )
    print(
        format_table(
            ["name", "class", "#V", "#E", "E/V", "paper graph"],
            rows,
            title="registered datasets (Table 1 analogs)",
        )
    )
    return 0


def _cmd_info(args) -> int:
    g = load_dataset(args.graph)
    p = compute_properties(g)
    rows = [[k, getattr(p, k)] for k in (
        "num_vertices", "num_edges", "ev_ratio", "max_out_degree",
        "max_in_degree", "mean_degree", "degree_gini",
        "num_weak_components", "giant_component_fraction",
        "diameter_estimate",
    )]
    rows = [[k, round(v, 4) if isinstance(v, float) else v] for k, v in rows]
    print(format_table(["property", "value"], rows, title=args.graph))
    return 0


def _cmd_sweep(args) -> int:
    counts = [int(x) for x in args.machine_counts.split(",") if x]
    kwargs = _algorithm_params(args)
    series = {"powergraph-sync": [], "lazy-block": []}
    for P in counts:
        # one session per machine count: both engines share its partition
        session = session_for(args.graph, P, args.partitioner, args.seed)
        for engine in series:
            r = session.run(args.algorithm, engine=engine, **kwargs)
            series[engine].append(round(r.stats.modeled_time_s, 4))
    print(
        format_series(
            "machines", counts, series,
            title=f"{args.algorithm} on {args.graph} — modeled seconds",
        )
    )
    return 0


def _load_graph_file(path: str):
    from repro.graph.io import load_dimacs, load_edge_list, load_npz

    if path.endswith(".gr"):
        return load_dimacs(path)
    if path.endswith(".npz"):
        return load_npz(path)
    return load_edge_list(path)


def _cmd_validate(args) -> int:
    from repro.algorithms import (
        bfs_reference,
        cc_reference,
        kcore_reference,
        pagerank_reference,
        make_program,
        sssp_reference,
    )
    from repro.errors import GraphFormatError
    from repro.run_api import prepare_graph

    try:
        graph = _load_graph_file(args.graph_file)
    except (OSError, GraphFormatError) as exc:
        print(f"validate: {exc}", file=sys.stderr)
        return 2
    print(f"loaded {graph!r}")
    algorithms = (
        ["pagerank", "sssp", "cc", "kcore", "bfs"]
        if args.algorithm == "all"
        else [args.algorithm]
    )
    references = {
        "pagerank": lambda g: pagerank_reference(g),
        "sssp": lambda g: sssp_reference(g, 0),
        "cc": cc_reference,
        "kcore": lambda g: kcore_reference(g, 3),
        "bfs": lambda g: bfs_reference(g, 0),
    }
    params = {"kcore": {"k": 3}, "sssp": {"source": 0}, "bfs": {"source": 0}}
    rows = []
    failures = 0
    for alg in algorithms:
        prog = make_program(alg, **params.get(alg, {}))
        g = prepare_graph(graph, prog, seed=args.seed)
        ref = references[alg](g)
        verdicts = []
        for engine in ("powergraph-sync", "lazy-block", "lazy-vertex"):
            result = run(
                g, make_program(alg, **params.get(alg, {})),
                engine=engine, machines=args.machines, seed=args.seed,
            )
            got = np.nan_to_num(result.values, posinf=1e18)
            want = np.nan_to_num(ref, posinf=1e18)
            tol = 5e-2 if alg == "pagerank" else 0.0
            ok = bool(np.allclose(got, want, atol=tol, rtol=tol))
            verdicts.append(ok)
            failures += not ok
        rows.append([alg, *("OK" if v else "MISMATCH" for v in verdicts)])
    print(
        format_table(
            ["algorithm", "eager vs reference", "lazy-block vs reference",
             "lazy-vertex vs reference"],
            rows,
            title=f"§3.5 equivalence on {args.graph_file} ({args.machines} machines)",
        )
    )
    if failures:
        print(f"{failures} mismatches — see above")
        return 1
    print("all engines match the single-machine reference")
    return 0


def _cmd_analyze(args) -> int:
    import json

    from repro.obs import critical_path, mutation_report, request_trace
    from repro.obs.audit import LensAuditor
    from repro.obs.records import iter_follow, load_trace
    from repro.obs.report import format_comparison, format_report, summarize_trace
    from repro.obs.telemetry import check_slo, format_service, service_sample

    if len(args.trace) > 2:
        print(f"analyze: reads one file, or two run traces (A B); got "
              f"{len(args.trace)} files", file=sys.stderr)
        return 2
    traces = []
    for path in args.trace:
        try:
            trace = load_trace(path)
        except (OSError, ValueError) as exc:
            print(f"analyze: {exc}", file=sys.stderr)
            return 2
        if len(args.trace) == 2 and trace.kind != "run":
            print(f"analyze: {path} is a {trace.kind} file; analyze A B "
                  f"compares two run traces", file=sys.stderr)
            return 2
        traces.append(trace)
    path, trace = args.trace[0], traces[0]
    if len(traces) == 2 and (args.strict or args.run_id is not None):
        print("analyze: --strict and --run-id read one file, not A B",
              file=sys.stderr)
        return 2
    thresholds = {
        "p95_ms": args.p95_ms,
        "min_hit_rate": args.min_hit_rate,
        "max_queue_depth": args.max_queue_depth,
    }
    gated = any(v is not None for v in thresholds.values())
    if (gated or args.follow) and trace.kind != "telemetry":
        print(
            f"analyze: --follow and the SLO thresholds read a telemetry "
            f"file; {path} is a {trace.kind} file",
            file=sys.stderr,
        )
        return 2
    if gated and args.follow:
        print("analyze: --follow tails a live file and the SLO thresholds "
              "gate a finished one; give one or the other", file=sys.stderr)
        return 2
    if args.follow:
        try:
            for seen, tick in enumerate(iter_follow(path), start=1):
                print(format_service(tick) + "\n")
                if seen == args.ticks:
                    break
        except KeyboardInterrupt:
            pass
        return 0

    # sections follow from the kind; `notes` go to stderr
    status, notes = 0, []
    if len(traces) == 2:
        labels = [os.path.basename(p) for p in args.trace]
        summaries = [summarize_trace(t) for t in traces]
        analysis = {"labels": labels, "runs": summaries}
        text = format_comparison(summaries, labels)
    elif trace.kind == "telemetry":
        analysis = service_sample(trace)
        text = format_service(analysis)
        if gated:
            violations = check_slo(trace, **thresholds)
            analysis = {**analysis, "slo_violations": violations}
            text += "\n\n" + (
                "\n".join(f"SLO VIOLATION: {v}" for v in violations)
                or "slo: all thresholds satisfied"
            )
            status = 4 if violations else 0
    elif trace.kind == "mutations":
        analysis = mutation_report.analyze_mutation_stream(trace.events)
        text = mutation_report.format_mutation_analysis(
            analysis, max_rows=args.max_rows
        )
    elif trace.kind == "serve" and args.run_id is None:
        try:
            analysis = request_trace.analyze_serve_trace(trace)
        except ValueError as exc:
            print(f"analyze: {path}: {exc}", file=sys.stderr)
            return 2
        text = request_trace.format_serve_analysis(
            analysis, max_rows=args.max_rows
        )
        sample = service_sample(trace)
        if sample:
            text += "\n\n" + format_service(sample)
        totals = analysis["totals"]
        if not (totals["latency_exact"] and totals["attribution_exact"]):
            notes.append(
                "analyze: serve-trace exactness check FAILED (latency or "
                "cost attribution does not reconstruct)"
            )
            status = 3
    else:  # a run trace, or one engine run of a serve trace
        if args.run_id is not None:
            trace = critical_path.extract_run(trace, args.run_id)
            if not trace.spans:
                print(f"analyze: {path} holds no engine run "
                      f"{args.run_id}", file=sys.stderr)
                return 2
        try:
            analysis = critical_path.analyze_trace(trace)
        except ValueError as exc:
            print(f"analyze: {path}: {exc}", file=sys.stderr)
            return 2
        analysis["report"] = summarize_trace(trace)
        text = (
            format_report(analysis["report"]) + "\n\n"
            + critical_path.format_analysis(analysis, max_rows=args.max_rows)
        )
        untracked = trace.meta.get("untracked_charges") or {}
        if sum(untracked.values()) > 0:
            notes.append(
                f"\nWARNING: {sum(untracked.values()):.6f}s of model-time "
                f"charges were NOT attributed to any span "
                f"({', '.join(f'{k}={v:.6f}s' for k, v in sorted(untracked.items()))}).\n"
                f"WARNING: the per-phase table does not tile the run; "
                f"treat phase shares as lower bounds."
            )
        anomalies = LensAuditor(trace).audit()
        notes += [str(anomaly) for anomaly in anomalies]
        if args.strict and anomalies:
            notes.append(
                f"strict mode: {len(anomalies)} anomaly(ies) flagged"
            )
            status = 3
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(analysis, fh, indent=2, sort_keys=True)
        notes.append(f"analysis JSON written to {args.json_out}")
    print(json.dumps(analysis, indent=2, sort_keys=True) if args.json else text)
    for line in notes:
        print(line, file=sys.stderr)
    return status


def _cmd_figures(args) -> int:
    from repro.bench.persistence import write_results

    write_results(args.out)
    print(f"wrote {os.path.join(args.out, 'results.json')} and RESULTS.md")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "serve": _cmd_serve,
    "query": _cmd_query,
    "mutate": _cmd_mutate,
    "compare": _cmd_compare,
    "datasets": _cmd_datasets,
    "info": _cmd_info,
    "sweep": _cmd_sweep,
    "figures": _cmd_figures,
    "validate": _cmd_validate,
    "analyze": _cmd_analyze,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
