"""Request-scoped tracing: exact latency reconstruction + cost splits.

The serve trace's contract is bit-exactness: every request's reported
latency must be reproducible from its four leg spans, and every engine
run's modeled time must be reproducible from its riders' attributed
shares. These tests drive a real :class:`GraphService` with
``trace_out`` and assert both invariants on the written file, plus the
:func:`split_cost` arithmetic in isolation.
"""

import json
import math

import pytest

from repro.obs.records import load_trace
from repro.obs.request_trace import (
    LEG_NAMES,
    RequestContext,
    analyze_serve_trace,
    format_serve_analysis,
    split_cost,
)
from repro.serve import GraphService
from repro.serve.service import _Pending  # noqa: F401  (idiom reference)
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
        assert list(widths) == list(LEG_NAMES)
        acc = 0.0
        for name in LEG_NAMES:
            acc = acc + widths[name]
        assert ctx.latency_s == acc

    def test_cache_hit_has_zero_run_width(self):
        ctx = RequestContext(request_id=2, algorithm="bfs")
        ctx.t_dispatch = ctx.t_enqueue + 0.1
        ctx.t_run0 = ctx.t_run1 = ctx.t_dispatch + 0.01
        ctx.t_done = ctx.t_run1 + 0.02
        assert ctx.run_s == 0.0
        assert ctx.latency_s == ctx.queue_s + ctx.batch_s + ctx.serialize_s


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

            batch = [
                P(QueryRequest.make("bfs", [0]), Future()),
                P(QueryRequest.make("bfs", [7]), Future()),
                P(QueryRequest.make("bfs", [11]), Future()),
            ]
            for p in batch:
                p.ctx = RequestContext(
                    request_id=next(svc._req_ids),
                    algorithm=p.request.algorithm,
                    sources=p.request.sources,
                )
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

    def test_engine_spans_join_under_run_id(self, session, tmp_path):
        svc, path = _traced_service(session, tmp_path)
        with svc:
            served = svc.query("bfs", sources=[0])
        trace = load_trace(str(path))
        run_spans = [
            s for s in trace.spans
            if s.get("cat") == "serve" and s["name"] == "serve.engine-run"
        ]
        assert len(run_spans) == 1
        run_span = run_spans[0]
        run_id = run_span["attrs"]["run_id"]
        assert served.request_id in run_span["attrs"]["request_ids"]
        # the engine's own records appear, tagged and re-parented
        engine = [
            s for s in trace.spans
            if s.get("cat") != "serve"
            and (s.get("attrs") or {}).get("run_id") == run_id
        ]
        assert engine, "no engine spans merged into the serve trace"
        top = [s for s in engine if s.get("parent") == run_span["id"]]
        assert top, "engine roots not re-parented under serve.engine-run"
        # ids were offset into the writer's id space: all unique
        ids = [s["id"] for s in trace.spans]
        assert len(ids) == len(set(ids))

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
