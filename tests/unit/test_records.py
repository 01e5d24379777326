"""One observability file format, behind one module — pinned.

``repro.obs.records`` owns how the four kinds of recorded file (run
trace, serve trace, telemetry, mutation stream) are laid out on disk.
These tests keep it that way (the ``test_no_field_on_both_config_types``
pattern): an AST scan that fails when a second reader, a second header
writer or one of the deleted loaders / renderings grows back, the exact
command surface, and a round trip per kind — through today's writers and
through recorded files (``tests/data/parent_*``). The run, telemetry and
mutation files were produced by running commit ``8511722``. The serve
file was re-recorded on purpose when the serve trace became one record
per request and one per engine run, with
``printf 'ppr 0\nppr 0\n' | repro serve --graph road-ca-mini
--machines 2 --max-wait 0.5 --trace-out tests/data/parent_serve.trace.jsonl``;
a file from the older per-leg writer still loads, and ``repro analyze``
refuses it (exit 2).
"""

import ast
import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs.records import KINDS, RecordWriter, TraceData, load_trace

SRC = Path(__file__).parent.parent.parent / "src" / "repro"
DATA = Path(__file__).parent.parent / "data"
PARENT_FILES = {
    "run": DATA / "parent_run.trace.jsonl",
    "serve": DATA / "parent_serve.trace.jsonl",
    "telemetry": DATA / "parent_telemetry.jsonl",
    "mutations": DATA / "parent_mutations.jsonl",
}
#: obs + the CLI: everything that could grow a private reader again
SCANNED = sorted((SRC / "obs").glob("*.py")) + [SRC / "cli.py"]

DELETED_NAMES = {
    "load_telemetry", "load_mutation_stream", "is_telemetry_file",
    "is_serve_trace", "is_mutation_stream", "format_top",
    "format_service_report", "summarize_telemetry", "_load_chrome",
    "_load_jsonl",
    # the process backend and the layers that only served it (one way
    # to run an op, to emit a machine event, to probe the lens)
    "ProcessBackend", "WorkerPool", "ExecutionBackend", "resolve_backend",
    "ShardedObs", "MachineCollector", "ProbeSample",
    # the op protocol and the controllers' private sampler
    "OpContext", "OP_HANDLERS", "SignalTap",
    # the interval-model layer and the named-policy registry (a policy
    # name is one row of the paper rule's table)
    "IntervalModel", "AdaptiveIntervalModel", "SimpleIntervalModel",
    "NeverLazyModel", "make_interval_model", "PaperRuleController",
    "register_policy", "get_policy", "policy_names", "_POLICIES",
    # the HTML dashboard: `repro analyze` is the one reader
    "render_dashboard", "render_compare_dashboard",
    # the streaming trace sinks (export_trace is the one run-trace
    # writer) and the registry facade over RunStats.extra (a plain dict)
    "Sink", "InMemorySink", "JsonlSink", "ChromeTraceSink", "ExtraView",
}


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _call_name(node):
    """``json.loads(...)`` -> "json.loads"; ``open(...)`` -> "open"."""
    f = node.func
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
        return f"{f.value.id}.{f.attr}"
    return f.id if isinstance(f, ast.Name) else ""


def _open_mode(node):
    if len(node.args) > 1 and isinstance(node.args[1], ast.Constant):
        return node.args[1].value
    for kw in node.keywords:
        if kw.arg == "mode" and isinstance(kw.value, ast.Constant):
            return kw.value.value
    return "r"


def _reads(node):
    """Calls under ``node`` that parse JSON or open a path for reading."""
    found = []
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Call):
            continue
        name = _call_name(sub)
        if name in ("json.loads", "json.load") or (
            name == "open" and "r" in _open_mode(sub)
        ):
            found.append(name)
    return found


class TestOneFormatOwner:
    def test_only_records_reads_an_observability_file(self):
        for path in SCANNED:
            if path.name in ("records.py", "cli.py"):
                continue
            assert _reads(_tree(path)) == [], path.name
        assert _reads(_tree(SRC / "obs" / "records.py"))
        # the CLI reads its *inputs* (query lines, mutation batches) and
        # nothing else; every recorded file goes through load_trace
        readers = {
            fn.name
            for fn in ast.walk(_tree(SRC / "cli.py"))
            if isinstance(fn, ast.FunctionDef) and _reads(fn)
        }
        assert readers == {"_parse_query_line", "_cmd_mutate"}

    def test_only_records_writes_a_header(self):
        for path in SCANNED:
            headers = [
                node.value
                for node in ast.walk(_tree(path))
                if isinstance(node, ast.Constant)
                and node.value in ("trace_header", "telemetry_header")
            ]
            assert bool(headers) == (path.name == "records.py"), path.name

    @pytest.mark.parametrize("module,writer", [
        ("obs/records.py", "export_trace"),
        ("obs/request_trace.py", "ServeTraceWriter"),
        ("obs/telemetry.py", "TelemetrySink"),
        ("cli.py", "_cmd_mutate"),
    ])
    def test_the_four_writers_go_through_record_writer(self, module, writer):
        (node,) = [
            n for n in ast.walk(_tree(SRC / module))
            if isinstance(n, (ast.ClassDef, ast.FunctionDef))
            and n.name == writer
        ]
        calls = [
            (_call_name(c), c) for c in ast.walk(node)
            if isinstance(c, ast.Call)
        ]
        names = {name for name, _ in calls}
        assert "RecordWriter" in names
        assert not names & {"json.dumps", "json.dump", "os.makedirs"}
        # (`mutate` opens its --batch input files, read-only)
        assert all(
            _open_mode(c) == "r" for name, c in calls if name == "open"
        )

    def test_deleted_names_are_defined_nowhere(self):
        for path in sorted(SRC.rglob("*.py")):
            defined = set()
            for node in ast.walk(_tree(path)):
                if isinstance(
                    node, (ast.FunctionDef, ast.ClassDef, ast.AsyncFunctionDef)
                ):
                    defined.add(node.name)
                elif isinstance(node, ast.Name) and isinstance(
                    node.ctx, ast.Store
                ):
                    defined.add(node.id)
                elif isinstance(node, ast.alias):
                    defined.add(node.asname or node.name)
            assert not defined & DELETED_NAMES, path

    def test_lens_has_no_sharded_option(self):
        import inspect

        from repro.obs.lens import CoherencyLens

        assert "sharded" not in inspect.signature(CoherencyLens).parameters


class TestCommandSurface:
    def test_exactly_the_eleven_subcommands(self):
        (sub,) = [
            a for a in build_parser()._actions if hasattr(a, "choices")
            and a.dest == "command"
        ]
        assert set(sub.choices) == {
            "run", "serve", "query", "mutate", "compare", "datasets",
            "info", "sweep", "figures", "validate", "analyze",
        }

    def test_analyze_has_only_flags_that_existed_before(self):
        (sub,) = [
            a for a in build_parser()._actions if hasattr(a, "choices")
            and a.dest == "command"
        ]
        flags = {
            opt
            for action in sub.choices["analyze"]._actions
            for opt in action.option_strings
        }
        assert flags == {
            "-h", "--help",
            "--json", "--json-out", "--max-rows", "--run-id",  # analyze
            "--strict",                                        # report
            "--follow", "--ticks",                             # top
            "--p95-ms", "--min-hit-rate", "--max-queue-depth",  # slo
        }

    @pytest.mark.parametrize("command", ["report", "top", "slo", "dashboard"])
    def test_folded_commands_are_gone(self, command):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "some.jsonl"])

    def test_dashboard_module_is_gone(self):
        import importlib

        with pytest.raises(ImportError):
            importlib.import_module("repro.obs.dashboard")


def _records(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestRoundTripPerKind:
    def test_run_trace_writer(self, tmp_path):
        from repro.obs import Tracer, export_trace
        from repro.obs.records import trace_from_tracer

        tracer = Tracer()
        with tracer.span("superstep", category="superstep") as ss:
            with tracer.span("gather", category="phase"):
                tracer.instant("probe", x=1)
            ss.set(active=3)
        tracer.finish(engine="toy")
        path = tmp_path / "nested" / "run.jsonl"  # parent dir is created
        export_trace(tracer, str(path), "jsonl")
        loaded = load_trace(str(path))
        assert loaded.kind == "run"
        assert loaded == trace_from_tracer(tracer)

    def test_serve_trace_and_telemetry_writers(self, er_graph, tmp_path):
        from repro.serve import GraphService
        from repro.session import GraphSession

        trace, telemetry = tmp_path / "s.jsonl", tmp_path / "t.jsonl"
        with GraphSession.open(er_graph, machines=2, seed=0) as session:
            with GraphService(
                session, max_wait=0.0, trace_out=str(trace),
                telemetry_out=str(telemetry), telemetry_interval=10.0,
            ) as svc:
                svc.query("bfs", sources=[0])
        served = load_trace(str(trace))
        assert served.kind == "serve"
        assert served.meta["service_stats"]["serve.queries"] == 1.0
        assert any(s["name"] == "serve.request" for s in served.spans)
        ticks = load_trace(str(telemetry))
        assert ticks.kind == "telemetry"
        assert ticks.ticks and ticks.meta["interval_s"] == 10.0

    def test_mutation_stream_writer(self, tmp_path, capsys):
        path = tmp_path / "m.jsonl"
        assert main(["mutate", "--graph", "road-ca-mini", "--machines", "2",
                     "--batch-json", '{"add_edges": [[0, 17]]}',
                     "--out", str(path)]) == 0
        loaded = load_trace(str(path))
        assert loaded.kind == "mutations"
        assert [e["event"] for e in loaded.events] == ["apply"]
        # what was printed is what was written, record for record
        assert capsys.readouterr().out.splitlines() == (
            path.read_text().splitlines()
        )

    @pytest.mark.parametrize("kind", KINDS)
    def test_parent_commit_files_load_identically(self, kind, tmp_path):
        records = _records(PARENT_FILES[kind])
        loaded = load_trace(str(PARENT_FILES[kind]))
        assert loaded.kind == kind
        # every record the parent's writer emitted is in the view …
        by_type = {"span": loaded.spans, "instant": loaded.instants,
                   "counter": loaded.counters, "telemetry": loaded.ticks}
        for rtype, got in by_type.items():
            assert got == [r for r in records if r.get("type") == rtype]
        assert loaded.events == [r for r in records if "event" in r]
        if kind in ("run", "serve"):
            assert loaded.spans and loaded.meta["stats" if kind == "run"
                                                else "service_stats"]
        # … and it is the view of the same records written today
        header_fields = {
            k: v for k, v in records[0].items()
            if k in ("interval_s", "window_s", "t_start_unix")
        }
        rewritten = tmp_path / "rewritten.jsonl"
        writer = RecordWriter(str(rewritten), kind, **header_fields)
        for record in records:
            if not record.get("type", "").endswith("_header"):
                writer.write(record)
        writer.close()
        assert load_trace(str(rewritten)) == loaded

    def test_headerless_trace_is_a_run_trace(self, tmp_path):
        path = tmp_path / "bare.jsonl"
        path.write_text('{"type": "run_meta", "meta": {"engine": "x"}}\n')
        assert load_trace(str(path)) == TraceData(meta={"engine": "x"})
