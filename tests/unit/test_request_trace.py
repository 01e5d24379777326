"""Request-scoped tracing: exact latency reconstruction + cost splits.

The serve trace's contract is bit-exactness: every request's reported
latency must be reproducible from the four leg widths in its one
record, and every engine run's modeled time must be reproducible from
its riders' attributed shares. These tests drive a real
:class:`GraphService` with ``trace_out`` and assert both invariants on
the written file, the file's shape (one record per request, one per
engine run holding that run's own trace), plus the :func:`split_cost`
arithmetic in isolation.
"""

import json
import math

import pytest

from repro.obs.critical_path import analyze_trace, extract_run
from repro.obs.records import load_trace
from repro.obs.request_trace import (
    LEGS,
    RequestContext,
    analyze_serve_trace,
    format_serve_analysis,
    split_cost,
)
from repro.serve import GraphService
from repro.session import GraphSession

MACHINES = 4


@pytest.fixture
def session(er_graph):
    with GraphSession.open(er_graph, machines=MACHINES, seed=0) as s:
        yield s


def _traced_service(session, tmp_path, **kwargs):
    path = tmp_path / "serve.trace.jsonl"
    svc = GraphService(
        session, max_wait=0.0, trace_out=str(path), **kwargs
    )
    return svc, path


class TestSplitCost:
    def test_empty_and_singleton(self):
        assert split_cost(1.5, 0) == []
        assert split_cost(1.5, 1) == [1.5]

    @pytest.mark.parametrize("total", [
        0.0, 1.0, 0.1, 0.2013573919, 1e-12, 7.0, 123456.789,
        math.pi, 2.0 / 3.0,
    ])
    @pytest.mark.parametrize("n", [2, 3, 4, 7, 8, 100])
    def test_left_to_right_sum_is_bit_exact(self, total, n):
        shares = split_cost(total, n)
        assert len(shares) == n
        acc = 0.0
        for s in shares:
            acc = acc + s
        assert acc == total  # bit-for-bit, not approx

    def test_shares_roundtrip_json(self):
        # the trace writes shares through json; floats must survive
        shares = split_cost(0.2013573919, 3)
        back = json.loads(json.dumps(shares))
        acc = 0.0
        for s in back:
            acc = acc + s
        assert acc == 0.2013573919


class TestRequestContext:
    def test_latency_is_leg_sum(self):
        ctx = RequestContext(request_id=1, algorithm="bfs")
        ctx.t_dispatch = ctx.t_enqueue + 0.25
        ctx.t_run0 = ctx.t_dispatch + 0.125
        ctx.t_run1 = ctx.t_run0 + 0.5
        ctx.t_done = ctx.t_run1 + 0.0625
        widths = ctx.leg_widths()
        assert list(widths) == list(LEGS)
        acc = 0.0
        for name in LEGS:
            acc = acc + widths[name]
        assert ctx.latency_s == acc

    def test_cache_hit_has_zero_run_width(self):
        ctx = RequestContext(request_id=2, algorithm="bfs")
        ctx.t_dispatch = ctx.t_enqueue + 0.1
        ctx.t_run0 = ctx.t_run1 = ctx.t_dispatch + 0.01
        ctx.t_done = ctx.t_run1 + 0.02
        assert ctx.run_s == 0.0
        assert ctx.latency_s == ctx.queue_s + ctx.batch_s + ctx.handout_s


class TestServeTraceEndToEnd:
    def test_latency_reconstruction_is_exact(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            first = svc.query("bfs", sources=[0])
            hit = svc.query("bfs", sources=[0])
        trace = load_trace(str(path))
        assert trace.kind == "serve"
        analysis = analyze_serve_trace(trace)
        assert analysis["totals"]["latency_exact"]
        rows = {r["request_id"]: r for r in analysis["requests"]}
        # reported ServedResult latency equals the trace's re-summed legs
        assert rows[first.request_id]["latency_s"] == first.latency_s
        assert rows[hit.request_id]["latency_s"] == hit.latency_s

    def test_fused_attribution_sums_bit_exactly(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            from concurrent.futures import Future

            from repro.serve import QueryRequest
            from repro.serve.service import _Pending as P

            batch = []
            for source in (0, 7, 11):
                req = QueryRequest.make("bfs", [source])
                batch.append(P(req, Future(), RequestContext(
                    request_id=next(svc._req_ids),
                    algorithm=req.algorithm,
                    sources=req.sources,
                )))
                svc._inflight += 1
            svc._serve_batch(batch)
            served = [p.future.result(timeout=0) for p in batch]
        modeled = float(served[0].result.stats.modeled_time_s)
        acc = 0.0
        for s in served:
            acc = acc + s.engine_cost_s
        assert acc == modeled
        analysis = analyze_serve_trace(load_trace(str(path)))
        assert analysis["totals"]["attribution_exact"]
        (run,) = analysis["runs"]
        assert run["riders"] == 3
        assert run["attributed_s"] == run["modeled_time_s"]

    def test_cache_hit_attributes_zero_and_records_key(
        self, session, tmp_path
    ):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            miss = svc.query("bfs", sources=[4])
            hit = svc.query("bfs", sources=[4])
        assert hit.cached and hit.engine_cost_s == 0.0
        assert hit.cache_key is not None
        assert miss.cache_key is None  # misses carry no artifact key
        analysis = analyze_serve_trace(load_trace(str(path)))
        rows = {r["request_id"]: r for r in analysis["requests"]}
        hit_row = rows[hit.request_id]
        assert hit_row["cached"]
        assert hit_row["engine_cost_s"] == 0.0
        assert hit_row["run_s"] == 0.0
        assert hit_row["cache_key"] == hit.cache_key
        # only the miss consumed engine time
        assert analysis["totals"]["attributed_cost_s"] == (
            rows[miss.request_id]["engine_cost_s"]
        )

    def test_run_record_holds_the_runs_own_trace(self, session, tmp_path):
        from repro.obs import Tracer

        captured = []

        class Capturing(Tracer):
            def __init__(self):
                super().__init__()
                captured.append(self)

        svc, path = _traced_service(session, tmp_path)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("repro.serve.service.Tracer", Capturing)
            with svc:
                served = svc.query("bfs", sources=[0])
        (tracer,) = captured
        trace = load_trace(str(path))
        (run,) = [s for s in trace.spans if s["name"] == "serve.engine-run"]
        assert served.request_id in run["attrs"]["request_ids"]
        # the run's Tracer stream, verbatim: no id offset, no re-parent,
        # no clock rebase, no run_id tag, run_meta kept in place
        assert run["records"] == json.loads(json.dumps(tracer.records))
        assert run["records"][-1]["type"] == "run_meta"
        # `--run-id` reads it as a standalone run trace: the
        # critical-path accounting tiles the run's modeled time
        sub = extract_run(trace, run["attrs"]["run_id"])
        assert sub.spans and sub.kind == "run"
        analysis = analyze_trace(sub)
        modeled = run["attrs"]["modeled_time_s"]
        assert analysis["total_modeled_s"] == modeled
        assert (
            analysis["bootstrap_s"] + analysis["supersteps_s"]
            + analysis["untracked_s"]
        ) == pytest.approx(modeled, rel=1e-9, abs=1e-12)
        assert extract_run(trace, run["attrs"]["run_id"] + 1).spans == []

    def test_one_record_per_request_and_per_run(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            served = [
                svc.query("bfs", sources=[0]),   # run 1
                svc.query("bfs", sources=[0]),   # hit
                svc.query("ppr", sources=[3]),   # run 2
                svc.query("bfs", sources=[5]),   # run 3
                svc.query("ppr", sources=[3]),   # hit
            ]
        trace = load_trace(str(path))
        # every record after the header is a request, a run or run_meta
        assert trace.instants == [] and trace.counters == []
        names = [s["name"] for s in trace.spans]
        assert sorted(names) == sorted(
            ["serve.request"] * 5 + ["serve.engine-run"] * 3
        )
        requests = [s["attrs"] for s in trace.spans
                    if s["name"] == "serve.request"]
        assert sorted(r["request_id"] for r in requests) == sorted(
            s.request_id for s in served
        )
        for attrs in requests:
            assert set(LEGS) <= set(attrs)

    def test_old_per_leg_layout_is_refused(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            svc.query("bfs", sources=[0])
        trace = load_trace(str(path))
        for span in trace.spans:
            for leg in LEGS:
                span["attrs"].pop(leg, None)
        with pytest.raises(ValueError, match="old per-leg layout"):
            analyze_serve_trace(trace)

    def test_error_requests_marked_in_trace(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            fut = svc.submit("bfs", sources=[0, 1])  # multi-source bfs
            with pytest.raises(Exception):
                fut.result(timeout=30)
        analysis = analyze_serve_trace(load_trace(str(path)))
        assert analysis["totals"]["errors"] == 1
        (row,) = analysis["requests"]
        assert row["outcome"] == "error"
        assert analysis["totals"]["latency_exact"]

    def test_format_renders_all_tables(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            svc.query("bfs", sources=[0])
            svc.query("bfs", sources=[0])
        text = format_serve_analysis(
            analyze_serve_trace(load_trace(str(path)))
        )
        assert "per-request waterfall" in text
        assert "cost by query class" in text
        assert "exact for every request" in text
        assert "bit-exactly" in text

    def test_trace_file_parses_as_standard_trace(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            svc.query("bfs", sources=[0])
        with open(path, encoding="utf-8") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "repro-trace"
        assert header["profile"] == "serve"
        trace = load_trace(str(path))
        assert trace.meta.get("service") is True
        assert trace.meta.get("service_stats", {}).get("serve.queries") == 1.0
