"""Service telemetry plane: schema, sliding windows, SLO gate.

The telemetry file is a versioned JSONL stream ``repro analyze`` views,
tails (``--follow``) and gates (the SLO thresholds); these tests pin the
header/tick schema, the per-class sliding-window quantiles, the
threshold gate's pass/violate behavior and the one service rendering.
"""

import json
import threading

import pytest

from repro.obs.records import (
    FORMAT_VERSION,
    TELEMETRY_FORMAT,
    TraceData,
    iter_follow,
    load_trace,
)
from repro.obs.telemetry import (
    TelemetrySink,
    _ClassWindow,
    check_slo,
    format_service,
    service_sample,
)
from repro.serve import GraphService
from repro.session import GraphSession

MACHINES = 4


@pytest.fixture
def session(er_graph):
    with GraphSession.open(er_graph, machines=MACHINES, seed=0) as s:
        yield s


class _FakeService:
    """Minimal telemetry_snapshot provider for sink-only tests."""

    def __init__(self):
        self.snapshot = {
            "queue_depth": 2,
            "inflight": 3,
            "cache": {"entries": 1, "capacity": 8},
            "counters": {"serve.queries": 5.0},
            "hit_rate": 0.4,
            "latency": {},
            "session": {},
        }

    def telemetry_snapshot(self):
        return dict(self.snapshot)


class TestClassWindow:
    def test_quantiles_over_window(self):
        win = _ClassWindow(window_s=60.0)
        for i, lat in enumerate([0.010, 0.020, 0.030, 0.040]):
            win.observe(float(i), lat, cached=(i % 2 == 0))
        snap = win.snapshot(now=4.0)
        assert snap["count"] == 4
        assert snap["cache_hits"] == 2
        assert snap["hit_rate"] == 0.5
        assert snap["p50_ms"] == 30.0
        assert snap["p95_ms"] == 40.0
        assert snap["p99_ms"] == 40.0

    def test_one_nearest_rank_quantile_for_telemetry_and_analyze(self):
        from repro.obs import request_trace, telemetry
        from repro.obs.metrics import nearest_rank

        assert telemetry.nearest_rank is nearest_rank
        assert request_trace.nearest_rank is nearest_rank
        values = [0.010, 0.020, 0.030, 0.040]
        assert [nearest_rank(values, q) for q in (0.0, 0.5, 0.95, 1.0)] == [
            0.010, 0.030, 0.040, 0.040,
        ]
        assert nearest_rank([], 0.5) == 0.0

    def test_old_events_age_out(self):
        win = _ClassWindow(window_s=10.0)
        win.observe(0.0, 1.0, cached=False)
        win.observe(100.0, 0.005, cached=True)
        snap = win.snapshot(now=100.0)
        assert snap["count"] == 1
        assert snap["p50_ms"] == 5.0


class TestSinkFileFormat:
    def test_header_then_ticks(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(
            _FakeService(), str(path), interval_s=10.0, window_s=30.0
        )
        sink.observe("bfs", 0.025, cached=False)
        sink.tick()
        sink.close()
        lines = [
            json.loads(x)
            for x in path.read_text().splitlines() if x.strip()
        ]
        header, ticks = lines[0], lines[1:]
        assert header["type"] == "telemetry_header"
        assert header["format"] == TELEMETRY_FORMAT
        assert header["version"] == FORMAT_VERSION
        assert header["interval_s"] == 10.0
        assert header["window_s"] == 30.0
        assert len(ticks) >= 2  # explicit tick + final tick on close
        tick = ticks[0]
        assert tick["type"] == "telemetry"
        assert tick["seq"] == 0
        assert tick["queue_depth"] == 2 and tick["inflight"] == 3
        assert tick["classes"]["bfs"]["count"] == 1
        assert tick["classes"]["_all"]["count"] == 1
        assert tick["classes"]["bfs"]["p50_ms"] == 25.0
        assert load_trace(str(path)).kind == "telemetry"

    def test_sniff_rejects_non_telemetry(self, tmp_path):
        other = tmp_path / "trace.jsonl"
        other.write_text('{"type": "trace_header", "format": "repro-trace"}\n')
        assert load_trace(str(other)).kind == "run"
        with pytest.raises(OSError):
            load_trace(str(tmp_path / "missing.jsonl"))

    def test_load_drops_truncated_tail(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(
            _FakeService(), str(path), interval_s=10.0
        )
        sink.tick()
        sink.close()
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"type": "telemetry", "seq": 99, "trunc')
        data = load_trace(str(path))
        assert all(t["seq"] != 99 for t in data.ticks)
        assert data.meta["format"] == TELEMETRY_FORMAT

    def test_snapshot_errors_keep_ticker_alive(self, tmp_path):
        class Broken:
            def telemetry_snapshot(self):
                raise RuntimeError("mid-close")

        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(Broken(), str(path), interval_s=10.0)
        rec = sink.tick()
        sink.close()
        assert "error" in rec
        assert load_trace(str(path)).ticks


class TestSloGate:
    def _data(self, p95_s=0.05, hit_rate=0.5, queue_depths=(0, 3, 1)):
        ticks = []
        for i, q in enumerate(queue_depths):
            ticks.append({
                "type": "telemetry", "seq": i, "queue_depth": q,
                "hit_rate": hit_rate,
                "latency": {"count": 4, "p95": p95_s},
            })
        return TraceData(kind="telemetry", ticks=ticks)

    def test_pass(self):
        data = self._data()
        assert check_slo(data, p95_ms=100.0) == []
        assert check_slo(data, min_hit_rate=0.25) == []
        assert check_slo(data, max_queue_depth=3) == []

    def test_each_threshold_violates_independently(self):
        data = self._data()
        (v,) = check_slo(data, p95_ms=10.0)
        assert "p95" in v
        (v,) = check_slo(data, min_hit_rate=0.9)
        assert "hit rate" in v
        (v,) = check_slo(data, max_queue_depth=2)  # max over ticks is 3
        assert "queue depth" in v
        assert len(check_slo(
            data, p95_ms=10.0, min_hit_rate=0.9, max_queue_depth=2
        )) == 3

    def test_empty_file_is_a_violation(self):
        assert check_slo(TraceData(kind="telemetry"), p95_ms=1.0)


class TestRenderers:
    """One rendering for a live tick, a telemetry file's summary and a
    serve trace's closing counters (the test names predate the merge of
    ``format_top`` / ``format_service_report`` into it)."""

    def test_format_top_serial_backend(self):
        tick = {
            "type": "telemetry", "seq": 3, "uptime_s": 1.5,
            "queue_depth": 1, "inflight": 2, "window_s": 60.0,
            "cache": {"entries": 4, "capacity": 128}, "hit_rate": 0.25,
            "counters": {"serve.queries": 8.0, "serve.runs": 6.0},
            "latency": {"count": 8.0, "p50": 0.01, "p95": 0.02, "p99": 0.03},
            "classes": {"_all": {"count": 8, "hit_rate": 0.25,
                                 "p50_ms": 10.0, "p95_ms": 20.0,
                                 "p99_ms": 30.0}},
            "session": {"graph_version": 0, "runs_completed": 6,
                        "prepared_graphs": 1, "plans": 1},
            "pool": None,
        }
        text = format_service(tick)
        assert "seq 3" in text and "queue 1" in text
        # ticks written while there was a process backend carry a
        # "pool" key; it is read past, whatever it holds
        assert "worker pool" not in text
        heartbeat = {"spawned": 4, "idle": 4, "closed": False,
                     "ops_dispatched": 12, "last_op_age_s": 0.5}
        assert format_service({**tick, "pool": heartbeat}) == text
        assert "p95 20.000 ms" in text
        # counters are floats on the wire; integral ones print as integers
        assert "queries 8  runs 6  batches 0  fused 0" in text
        assert "n=8" in text and "n=8.0" not in text

    def test_service_report_renders(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(_FakeService(), str(path), interval_s=10.0)
        sink.observe("bfs", 0.025, cached=True)
        sink.tick()
        sink.close()
        summary = service_sample(load_trace(str(path)))
        assert summary["queue_depth_max"] == 2
        assert summary["ticks"] == 2 and summary["interval_s"] == 10.0
        summary["counters"]["serve.queries"] = 1234567.0
        text = format_service(summary)
        assert "1234567" in text  # not 1.23457e+06
        assert "service telemetry" in text
        assert "2 ticks (interval 10.0s), max queue depth 2" in text
        assert "cache 1/8" in text
        assert "sliding window (60s)" in text

    def test_serve_trace_closing_counters_render_the_same_way(self):
        # the stats a serve trace's run_meta records at close reduce to
        # the same view; no tick-only section is invented for them
        trace = TraceData(kind="serve", meta={"service_stats": {
            "serve.queries": 3.0, "serve.batches": 1.0,
            "serve.cache_hit_rate": 0.5,
            "serve.latency_s": {"count": 3.0, "p50": 0.01, "p95": 0.02},
        }})
        text = format_service(service_sample(trace))
        assert "queries 3  runs 0  batches 1  fused 0  (hit rate 0.50)" in text
        assert "serve.batches      1" in text and "1.000" not in text
        assert "n=3" in text
        assert "worker pool" not in text and "sliding window" not in text
        assert service_sample(TraceData(kind="serve")) == {}

    def test_iter_follow_yields_and_stops(self, tmp_path):
        path = tmp_path / "t.jsonl"
        sink = TelemetrySink(_FakeService(), str(path), interval_s=10.0)
        sink.tick()
        sink.tick()
        sink.close()
        stop = threading.Event()
        got = []
        for rec in iter_follow(str(path), poll_s=0.01, stop=stop):
            got.append(rec["seq"])
            if len(got) == 2:
                stop.set()
        assert got[:2] == [0, 1]


class TestLiveServiceTelemetry:
    def test_end_to_end_ticks_with_real_service(self, session, tmp_path):
        path = tmp_path / "service.telemetry.jsonl"
        with GraphService(
            session, max_wait=0.0, telemetry_out=str(path),
            telemetry_interval=10.0,  # rely on the final tick at close
        ) as svc:
            svc.query("bfs", sources=[0])
            svc.query("bfs", sources=[0])
        data = load_trace(str(path))
        assert data.ticks, "no final tick written on close"
        last = data.ticks[-1]
        assert last["counters"]["serve.queries"] == 2.0
        assert last["hit_rate"] == 0.5
        assert last["classes"]["bfs"]["count"] == 2
        assert last["classes"]["bfs"]["cache_hits"] == 1
        assert last["inflight"] == 0 and last["queue_depth"] == 0
        assert last["session"]["runs_completed"] >= 1
        assert check_slo(data, p95_ms=600000.0, min_hit_rate=0.5) == []
