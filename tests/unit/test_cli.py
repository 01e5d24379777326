"""Unit tests for the command-line interface."""

import re
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from tests.unit.test_records import PARENT_FILES


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc"]
        )
        assert args.engine == "lazy-block"
        assert args.machines == 48

    def test_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "g", "--algorithm", "cc", "--engine", "bogus"]
            )

    def test_rejects_unknown_algorithm(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--graph", "g", "--algorithm", "nope"])

    @pytest.mark.parametrize("command", [
        ["run", "--graph", "road-ca-mini", "--algorithm", "cc"],
        ["serve", "--graph", "road-ca-mini"],
        ["query", "--graph", "road-ca-mini", "--algo", "bfs", "--source", "0"],
    ], ids=lambda argv: argv[0])
    @pytest.mark.parametrize("flag", [["--backend", "process"], ["--workers", "2"]],
                             ids=lambda f: f[0])
    def test_process_backend_flags_are_gone(self, command, flag, capsys):
        build_parser().parse_args(command)
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(command + flag)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        ["--lens-rollup-after", "10"], ["--lens-rollup-every", "0"],
    ], ids=lambda f: f[0])
    def test_lens_rollup_flags_are_gone(self, flag, capsys):
        # the rollup is a constant; `--lens-rollup-every 0` used to be a
        # bare ValueError traceback from the lens constructor
        command = ["run", "--graph", "road-ca-mini", "--algorithm", "cc", "--lens"]
        build_parser().parse_args(command)
        with pytest.raises(SystemExit) as exit_:
            build_parser().parse_args(command + flag)
        assert exit_.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestSharedFlagGroups:
    """``serve`` and ``mutate`` take the session flags (and ``mutate``
    the algorithm parameters) from the helpers every command uses; the
    namespaces are the ones the commands parsed when each declared its
    own copies."""

    @pytest.mark.parametrize("argv, expected", [
        (["serve", "--graph", "g", "--machines", "4", "--partitioner",
          "random", "--seed", "3", "--policy", "simple"],
         {"batch_mode": "fused", "cache_size": 128, "command": "serve",
          "engine": "lazy-block", "graph": "g", "machines": 4,
          "max_batch": 8, "max_wait": 0.002, "partitioner": "random",
          "policy": "simple", "seed": 3, "telemetry_interval": 1.0,
          "telemetry_out": None, "telemetry_window": 60.0, "top": 0,
          "trace_out": None}),
        (["mutate"],
         {"algorithm": None, "batch": [], "batch_json": [],
          "command": "mutate", "compare_cold": False,
          "engine": "lazy-block", "graph": "road-ca-mini", "k": None,
          "machines": 48, "out": None, "partitioner": "coordinated",
          "seed": 0, "seeds": None, "source": None, "sources": None,
          "tolerance": None}),
        (["mutate", "--graph", "g", "--machines", "4", "--partitioner",
          "random", "--seed", "3", "--algo", "ppr", "--k", "2",
          "--source", "5", "--tolerance", "0.01", "--seeds", "1,2",
          "--sources", "3,4", "--batch", "b.json"],
         {"algorithm": "ppr", "batch": ["b.json"], "batch_json": [],
          "command": "mutate", "compare_cold": False,
          "engine": "lazy-block", "graph": "g", "k": 2, "machines": 4,
          "out": None, "partitioner": "random", "seed": 3,
          "seeds": "1,2", "source": 5, "sources": "3,4",
          "tolerance": 0.01}),
    ], ids=["serve", "mutate-defaults", "mutate-all"])
    def test_namespaces_unchanged(self, argv, expected):
        assert vars(build_parser().parse_args(argv)) == expected


class TestCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "web-uk-mini" in out
        assert "UK-2005" in out

    def test_info(self, capsys):
        assert main(["info", "--graph", "road-ca-mini"]) == 0
        out = capsys.readouterr().out
        assert "diameter_estimate" in out

    def test_run(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4", "--top", "2"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "converged=True" in out
        assert "top 2" in out

    def test_run_with_algorithm_params(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "kcore",
             "--machines", "4", "--k", "3", "--engine", "powergraph-sync"]
        )
        assert rc == 0
        assert "powergraph-sync/kcore" in capsys.readouterr().out

    def test_compare(self, capsys):
        rc = main(
            ["compare", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "normalized traffic" in out

    def test_sweep(self, capsys):
        rc = main(
            ["sweep", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machine-counts", "2,4"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "lazy-block" in out and "powergraph-sync" in out

    def test_run_trace(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4", "--trace"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "active" in out and "supersteps:" in out

    def test_validate_ok(self, capsys, tmp_path, er_weighted):
        from repro.graph.io import save_edge_list

        path = tmp_path / "g.txt"
        save_edge_list(er_weighted, path)
        rc = main(
            ["validate", "--graph-file", str(path), "--algorithm", "cc",
             "--machines", "3"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "OK" in out and "MISMATCH" not in out
        # one column per engine: eager, Algorithm 1 and Algorithm 2
        assert "lazy-vertex vs reference" in out
        (row,) = [line for line in out.splitlines() if line.split()[:1] == ["cc"]]
        assert row.split().count("OK") == 3

    def test_validate_dimacs_input(self, capsys, tmp_path, er_weighted):
        from repro.graph.io import save_dimacs

        path = tmp_path / "g.gr"
        save_dimacs(er_weighted, path)
        rc = main(
            ["validate", "--graph-file", str(path), "--algorithm", "sssp",
             "--machines", "3"]
        )
        assert rc == 0

    def test_validate_missing_file_is_one_line(self, capsys, tmp_path):
        path = tmp_path / "absent.txt"
        assert main(["validate", "--graph-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("validate: ") and str(path) in line

    def test_validate_malformed_line_names_path_and_line(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1\n1 two\n")
        assert main(["validate", "--graph-file", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith(f"validate: {path}:2: ")

    @pytest.mark.parametrize("command", [
        ["run", "--algorithm", "cc"], ["serve"],
    ], ids=lambda argv: argv[0])
    def test_unknown_partitioner_is_a_usage_error(self, command, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(command + ["--partitioner", "bogus"])
        assert exit_.value.code == 2
        err = capsys.readouterr().err
        assert "bogus" in err
        assert "coordinated" in err and "hybrid" in err


class TestLensCli:
    def _write_lens_trace(self, tmp_path):
        path = tmp_path / "run.trace.jsonl"
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-block", "--lens",
             "--trace-out", str(path)]
        )
        assert rc == 0
        return path

    def test_run_lens_flag_rejected_on_eager_engine(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="lens"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine",
                 "powergraph-sync", "--lens"]
            )

    def test_report_on_clean_lens_trace(self, capsys, tmp_path):
        path = self._write_lens_trace(tmp_path)
        capsys.readouterr()
        assert main(["analyze", str(path), "--strict"]) == 0
        captured = capsys.readouterr()
        assert "WARNING" not in captured.err

    def test_report_strict_exits_3_on_anomaly(self, capsys, tmp_path):
        import json

        path = self._write_lens_trace(tmp_path)
        doctored = tmp_path / "doctored.trace.jsonl"
        with open(path) as src, open(doctored, "w") as dst:
            for line in src:
                rec = json.loads(line)
                if rec.get("name") == "lens-exchange":
                    rec["attrs"]["mass_after"] = 99.0
                dst.write(json.dumps(rec) + "\n")
        capsys.readouterr()
        assert main(["analyze", str(doctored)]) == 0  # warn-only by default
        assert "pending-after-exchange" in capsys.readouterr().err
        assert main(["analyze", str(doctored), "--strict"]) == 3

    def test_report_warns_on_untracked_charges(self, capsys, tmp_path):
        import json

        path = tmp_path / "t.jsonl"
        records = [
            {"type": "trace_header", "format": "repro-trace", "version": 1},
            {"type": "run_meta", "meta": {
                "engine": "x", "untracked_charges": {"comm": 0.5}}},
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["analyze", str(path)]) == 0
        err = capsys.readouterr().err
        assert "WARNING" in err and "NOT attributed" in err


class TestPolicyCli:
    def test_run_with_named_policy(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-vertex",
             "--policy", "simple"]
        )
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_run_with_policy_opts(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--machines", "4", "--engine", "lazy-vertex",
             "--policy", "paper", "--policy-opt", "ev_threshold=5",
             "--policy-opt", "max_delta_age=4"]
        )
        assert rc == 0
        assert "converged=True" in capsys.readouterr().out

    def test_policy_opt_alone_implies_paper_policy(self, capsys):
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
             "--machines", "4", "--engine", "lazy-vertex",
             "--policy-opt", "max_delta_age=2"]
        )
        assert rc == 0

    def test_malformed_policy_opt_rejected(self):
        with pytest.raises(SystemExit, match="K=V"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm", "cc",
                 "--machines", "4", "--engine", "lazy-vertex",
                 "--policy-opt", "max_delta_age"]
            )

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "g", "--algorithm", "cc",
                 "--policy", "bogus"]
            )

    def test_removed_interval_flag_is_unknown(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine", "lazy-block",
                 "--interval", "simple"]
            )

    def test_policy_opt_interval_replaces_the_flag(self):
        # the strategies are named policies now: --policy simple runs,
        # --policy-opt interval=... is an unknown option
        rc = main(
            ["run", "--graph", "road-ca-mini", "--algorithm",
             "pagerank", "--machines", "4", "--engine", "lazy-block",
             "--policy", "simple"]
        )
        assert rc == 0
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="has no option interval"):
            main(["run", "--algorithm", "pagerank", "--engine",
                  "lazy-block", "--policy-opt", "interval=simple"])

    def test_policy_rejected_on_eager_engine(self):
        from repro.errors import ConfigError

        with pytest.raises(ConfigError, match="eagerly coherent"):
            main(
                ["run", "--graph", "road-ca-mini", "--algorithm",
                 "pagerank", "--machines", "4", "--engine",
                 "powergraph-sync", "--policy", "paper"]
            )


def _run_cli(argv, stdin=""):
    """``main(argv)`` with stdin fed and stdout captured: (rc, stdout)."""
    import contextlib
    import io

    out = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out):
        mp.setattr("sys.stdin", io.StringIO(stdin))
        rc = main(argv)
    return rc, out.getvalue()


class TestServingCli:
    """The serve → analyze (trace, telemetry, SLO gate) recipe."""

    @pytest.fixture(scope="class")
    def served(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("serve")
        trace, telemetry = tmp / "serve.trace.jsonl", tmp / "telemetry.jsonl"
        rc, out = _run_cli(
            ["serve", "--graph", "road-ca-mini", "--machines", "8",
             "--max-wait", "0.5", "--trace-out", str(trace),
             "--telemetry-out", str(telemetry),
             "--telemetry-interval", "0.2"],
            stdin="bfs 0\nbfs 7\nppr 0,5\nbfs 0\n",
        )
        assert rc == 0
        return out, str(trace), str(telemetry), tmp

    def test_serve_answers_every_stdin_line(self, served):
        import json

        answers = [json.loads(line) for line in served[0].splitlines()]
        assert [a["sources"] for a in answers] == [[0], [7], [0, 5], [0]]
        assert all(a["converged"] for a in answers)

    def test_analyze_serve_trace_is_exact(self, served, capsys):
        assert main(["analyze", served[1]]) == 0
        out = capsys.readouterr().out
        assert "serve trace — 4 requests" in out
        assert "latency reconstruction: exact for every request" in out
        assert "shares sum bit-exactly" in out

    def test_analyze_run_id_narrows_to_one_engine_run(self, served, capsys):
        assert main(["analyze", served[1], "--run-id", "1"]) == 0
        assert "critical-path analysis" in capsys.readouterr().out

    def test_analyze_unknown_run_id_is_exit_2(self, served, capsys):
        assert main(["analyze", served[1], "--run-id", "99"]) == 2
        captured = capsys.readouterr()
        assert "holds no engine run 99" in captured.err
        assert captured.out == ""  # not an all-zero analysis

    def test_analyze_exits_3_when_exactness_fails(self, served, capsys):
        import json

        doctored = served[3] / "doctored.trace.jsonl"
        with open(served[1]) as src, open(doctored, "w") as dst:
            for line in src:
                rec = json.loads(line)
                if rec.get("name") == "serve.request":
                    rec["attrs"]["latency_s"] += 1.0
                dst.write(json.dumps(rec) + "\n")
        assert main(["analyze", str(doctored)]) == 3
        assert "exactness check FAILED" in capsys.readouterr().err

    def test_removed_reader_flags_are_unknown(self, served):
        for flag in ("--serve", "--mutations"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["analyze", served[1], flag])

    def test_analyze_prints_serve_counters_as_integers(self, served, capsys):
        assert main(["analyze", served[1]]) == 0
        # the closing serve.* counters go through the one service
        # rendering: integral counters print as integers
        out = capsys.readouterr().out
        assert re.search(r"serve\.queries +4\n", out)

    def test_top_and_report_read_telemetry(self, served, capsys):
        assert main(["analyze", served[2]]) == 0
        out = capsys.readouterr().out
        assert "queries 4  runs 2" in out
        assert "service telemetry" in out
        assert main(["analyze", served[2], "--follow", "--ticks", "1"]) == 0
        assert "service telemetry — seq 0" in capsys.readouterr().out
        # a trace is not telemetry
        assert main(["analyze", served[1], "--follow"]) == 2

    def test_slo_gate(self, served, capsys):
        assert main(["analyze", served[2], "--p95-ms", "60000",
                     "--max-queue-depth", "64"]) == 0
        assert main(["analyze", served[2], "--p95-ms", "0.0001"]) == 4
        assert "SLO VIOLATION" in capsys.readouterr().out
        # a threshold needs a telemetry file, and a finished one
        assert main(["analyze", served[1], "--p95-ms", "1"]) == 2
        assert "is a serve file" in capsys.readouterr().err
        assert main(["analyze", served[2], "--p95-ms", "1", "--follow"]) == 2

    def test_query_repeat_hits_the_cache(self, capsys):
        import json

        rc = main(["query", "--algo", "bfs", "--source", "0", "--repeat", "2",
                   "--machines", "8", "--json"])
        assert rc == 0
        rows = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert [r["cached"] for r in rows] == [False, True]


class TestMutateCli:
    BATCH = '{"add_edges": [[0, 17], [42, 7]], "remove_vertices": [9]}'

    def test_mutate_stream_then_analyze(self, capsys, tmp_path):
        import json

        events = tmp_path / "mutate.events.jsonl"
        rc = main(["mutate", "--graph", "road-ca-mini", "--machines", "8",
                   "--algorithm", "pagerank", "--compare-cold",
                   "--batch-json", self.BATCH, "--out", str(events)])
        assert rc == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == events.read_text().splitlines()
        kinds = [json.loads(line)["event"] for line in printed]
        assert kinds == ["run", "apply", "run"]
        assert main(["analyze", str(events)]) == 0
        out = capsys.readouterr().out
        assert "mutation stream" in out and "totals: 1 batches" in out

    def test_mutate_without_batches_exits_2(self, capsys):
        assert main(["mutate", "--graph", "road-ca-mini"]) == 2
        assert "no batches" in capsys.readouterr().err


class TestAnalyzeCli:
    def test_lens_run_report_analyze(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.trace.jsonl"
        assert main(
            ["run", "--graph", "road-ca-mini", "--algorithm", "pagerank",
             "--engine", "lazy-block", "--machines", "8", "--lens",
             "--trace-out", str(trace)]
        ) == 0
        analysis = tmp_path / "run.analysis.json"
        assert main(["analyze", str(trace), "--strict",
                     "--json-out", str(analysis)]) == 0
        captured = capsys.readouterr()
        assert "per-phase modeled time" in captured.out
        assert "critical-path analysis" in captured.out
        assert "analysis JSON written" in captured.err
        document = json.loads(analysis.read_text())
        # today's top-level critical-path keys plus the report's dict
        assert document["critical_path"] and document["report"]["phases"]

    def test_analyze_json_prints_the_document(self, capsys, tmp_path):
        import json

        trace = tmp_path / "run.trace.jsonl"
        main(["run", "--graph", "road-ca-mini", "--algorithm", "cc",
              "--machines", "4", "--trace-out", str(trace)])
        capsys.readouterr()
        assert main(["analyze", str(trace), "--json"]) == 0
        assert json.loads(capsys.readouterr().out)


#: one file per kind, written by the parent commit's four writers
RECORDED = {kind: str(path) for kind, path in PARENT_FILES.items()}
#: the heading only that kind's `analyze` sections print
HEADING = {
    "run": "critical-path analysis —",
    "serve": "serve trace —",
    "telemetry": "service telemetry —",
    "mutations": "mutation stream",
}


class TestReadersNeverAnswerTheWrongKindQuietly:
    @pytest.mark.parametrize("kind", list(RECORDED))
    def test_analyze_sections_follow_from_the_kind(
        self, kind, capsys, tmp_path
    ):
        # the parent answered a telemetry file with an all-zero
        # critical-path analysis, and `report` answered a mutation
        # stream with an empty phase table, both exit 0. The recorded
        # run trace is the per-machine writer's, which analyze refuses
        # (TestOneDamagePolicy): the run kind reads a fresh one.
        path = RECORDED[kind]
        if kind == "run":
            path = str(tmp_path / "run.jsonl")
            assert main(["run", "--graph", "road-ca-mini", "--algorithm",
                         "pagerank", "--machines", "4",
                         "--trace-out", path]) == 0
            capsys.readouterr()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        for other, heading in HEADING.items():
            assert (heading in out) == (other == kind), (kind, other)
        assert ("per-phase modeled time" in out) == (kind == "run")

    def test_unrecognisable_file_is_one_stderr_line(self, capsys, tmp_path):
        import json

        from repro.obs import chrome_trace_document

        junk = tmp_path / "junk.jsonl"
        junk.write_text('{"neither": "a type", "nor": "an event"}\n')
        chrome = tmp_path / "export.json"
        chrome.write_text(json.dumps(chrome_trace_document([], {})))
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        for path in (junk, chrome, empty, tmp_path / "missing.jsonl"):
            assert main(["analyze", str(path)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""  # never a table of zeros
            assert captured.err.count("\n") == 1
            assert captured.err.startswith("analyze: ")
        assert main(["analyze", str(chrome)]) == 2
        assert "--trace-format jsonl" in capsys.readouterr().err

    def test_threshold_or_follow_on_a_non_telemetry_file_exits_2(self, capsys):
        for kind in ("run", "serve", "mutations"):
            for flags in (["--p95-ms", "5"], ["--min-hit-rate", "0.1"],
                          ["--max-queue-depth", "3"], ["--follow"]):
                assert main(["analyze", RECORDED[kind], *flags]) == 2
                assert f"is a {kind} file" in capsys.readouterr().err


class TestTimelineAndComparison:
    """The per-superstep lens timeline of a run trace, and ``analyze A B``
    setting two run traces side by side."""

    @staticmethod
    def _trace(tmp_path, name, *flags):
        path = tmp_path / name
        assert main(["run", "--graph", "road-ca-mini", "--algorithm",
                     "pagerank", "--machines", "4", *flags,
                     "--trace-out", str(path)]) == 0
        return str(path)

    def test_eager_trace_prints_no_lens_columns(self, capsys, tmp_path):
        import json

        path = self._trace(tmp_path, "sync.jsonl", "--engine", "powergraph-sync")
        capsys.readouterr()
        assert main(["analyze", path]) == 0
        out = capsys.readouterr().out
        assert "per-superstep gating" in out
        assert "lens timeline" not in out and "pending mass" not in out
        # the JSON rows carry the timeline keys, empty
        assert main(["analyze", path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["supersteps"]
        assert rows
        for row in rows:
            assert row["pending_mass"] is None and row["drift_max"] is None
            assert row["channel_bytes"] == {} and row["exchanges"] == 0

    @pytest.mark.parametrize("engine", ["lazy-block", "lazy-vertex"])
    def test_active_column_needs_no_trace_flag(self, capsys, tmp_path, engine):
        import json

        # --trace-out alone (no --trace): the superstep spans carry active
        path = self._trace(tmp_path, "lens.jsonl", "--engine", engine, "--lens")
        capsys.readouterr()
        assert main(["analyze", path, "--json"]) == 0
        rows = json.loads(capsys.readouterr().out)["supersteps"]
        actives = [row["active"] for row in rows]
        assert actives and None not in actives
        assert actives[-1] == 0

    def test_max_rows_bounds_the_timeline(self, capsys, tmp_path):
        path = self._trace(tmp_path, "lens.jsonl", "--engine", "lazy-block", "--lens")
        capsys.readouterr()
        assert main(["analyze", path, "--max-rows", "2"]) == 0
        table = re.search(
            r"per-superstep gating \+ lens timeline \(first 2 of \d+\)\n(.*?)\n\n",
            capsys.readouterr().out, re.S,
        ).group(1).splitlines()
        assert len(table) == 4  # header, rule, two rows
        for column in ("pending mass", "drift", "bytes", "exchanges", "active"):
            assert column in table[0]

    def test_a_b_sets_two_runs_side_by_side(self, capsys, tmp_path):
        import json

        from repro.obs.records import load_trace

        paths = [
            self._trace(tmp_path, f"age{age}.jsonl", "--engine", "lazy-vertex",
                        "--lens", "--policy-opt", f"max_delta_age={age}")
            for age in (3, 1)
        ]
        points = [load_trace(p).stats["coherency_points"] for p in paths]
        assert points[0] != points[1]
        capsys.readouterr()
        assert main(["analyze", *paths]) == 0
        out = capsys.readouterr().out
        assert "age3.jsonl" in out and "age1.jsonl" in out
        for label in ("coherency points", "coherency / exchange"):
            row = re.search(rf"{label} +(\d+) +(\d+)\n", out)
            assert [int(n) for n in row.groups()] == points
        assert main(["analyze", *paths, "--json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["labels"] == ["age3.jsonl", "age1.jsonl"]
        assert [r["totals"]["coherency_points"] for r in document["runs"]] == points

    @pytest.mark.parametrize("kind", ["serve", "telemetry"])
    def test_a_b_refuses_a_file_that_is_not_a_run_trace(self, kind, capsys):
        for pair in ([RECORDED["run"], RECORDED[kind]],
                     [RECORDED[kind], RECORDED["run"]]):
            assert main(["analyze", *pair]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.count("\n") == 1
            assert f"is a {kind} file" in captured.err

    def test_a_third_file_is_refused(self, capsys):
        assert main(["analyze", *[RECORDED["run"]] * 3]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "3 files" in captured.err


class TestOneDamagePolicy:
    """A writer killed mid-write costs the record it was writing, loudly;
    damage anywhere else is an error naming the line."""

    @staticmethod
    def _cut(tmp_path, kind, keep_lines, tail):
        lines = Path(RECORDED[kind]).read_text().splitlines(keepends=True)
        path = tmp_path / f"{kind}.cut.jsonl"
        path.write_text("".join(lines[:keep_lines]) + tail)
        return path

    def test_serve_trace_cut_mid_record_still_analyses(self, capsys, tmp_path):
        lines = Path(RECORDED["serve"]).read_text().splitlines()
        # cut inside the second (last) request's one record
        last = max(
            i for i, line in enumerate(lines) if '"serve.request"' in line
        )
        path = self._cut(tmp_path, "serve", last, lines[last][:60])
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"{path}:{last + 1}: " in captured.err
        assert "truncated final line dropped" in captured.err
        # request 1 is whole; request 2 is the dropped line, and the run
        # it rode is cut short
        assert "serve trace — 1 requests, 0 engine runs" in captured.out
        assert "1 more cut short by a truncated file" in captured.out
        assert "latency reconstruction: exact for every request" in captured.out

    def test_old_per_leg_serve_trace_is_refused(self, capsys, tmp_path):
        import json

        # a request as the per-leg writer wrote it: a root span without
        # leg widths (its four leg spans beside it)
        path = tmp_path / "old.serve.jsonl"
        records = [
            {"type": "trace_header", "format": "repro-trace",
             "version": 1, "profile": "serve"},
            {"type": "span", "id": 1, "parent": None, "cat": "serve",
             "name": "serve.request",
             "attrs": {"request_id": 1, "algorithm": "bfs",
                       "outcome": "ok", "latency_s": 0.5, "dur_s": 0.5}},
        ] + [
            {"type": "span", "id": 2 + i, "parent": 1, "cat": "serve",
             "name": name, "attrs": {"request_id": 1, "dur_s": 0.125}}
            for i, name in enumerate(("serve.queue", "serve.batch",
                                      "serve.run", "serve.serialize"))
        ]
        path.write_text("".join(json.dumps(r) + "\n" for r in records))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # not an all-zero waterfall
        assert captured.err.count("\n") == 1
        assert "old per-leg layout" in captured.err

    def test_per_machine_run_trace_is_refused(self, capsys):
        # the recorded run trace holds 4 apply-machine spans and 2
        # machine-work instants: the writer before one machine-work span
        # per compute pass, whose machine sections would read as empty
        assert main(["analyze", RECORDED["run"]]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1
        assert "per-machine writer (6 " in captured.err

    def test_telemetry_cut_mid_tick_still_renders(self, capsys, tmp_path):
        path = self._cut(tmp_path, "telemetry", 2, '{"type": "telemetry", "se')
        assert main(["analyze", str(path)]) == 0
        captured = capsys.readouterr()
        assert f"{path}:3: " in captured.err
        assert "1 ticks" in captured.out

    @pytest.mark.parametrize("kind", ["serve", "telemetry"])
    def test_corrupt_interior_line_fails_loudly(self, kind, capsys, tmp_path):
        lines = Path(RECORDED[kind]).read_text().splitlines(keepends=True)
        if kind == "telemetry":  # the fixture is two lines; make four
            lines += [lines[1], lines[1]]
        lines[2] = lines[2][:40] + "\n"
        path = tmp_path / f"{kind}.corrupt.jsonl"
        path.write_text("".join(lines))
        assert main(["analyze", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{path}:3: malformed record" in captured.err
        # the loader raises a ValueError that names the line, not a
        # bare JSONDecodeError
        from repro.obs import load_trace

        with pytest.raises(ValueError, match=re.escape(f"{path}:3:")):
            load_trace(str(path))


class TestFiguresCli:
    def test_figures_rewrites_the_committed_files(self, tmp_path, monkeypatch):
        """The committed document through ``repro figures`` reproduces
        ``results/`` byte for byte (rendering + serialization glue)."""
        import json
        import os

        import repro.bench.persistence as persistence

        results = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir, "results"
        )
        with open(os.path.join(results, "results.json")) as fh:
            committed = json.load(fh)
        monkeypatch.setattr(
            persistence, "collect_all_figures", lambda: committed
        )
        assert main(["figures", "--out", str(tmp_path)]) == 0
        for name in ("results.json", "RESULTS.md"):
            with open(os.path.join(results, name)) as fh:
                assert (tmp_path / name).read_text() == fh.read(), name
