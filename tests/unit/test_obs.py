"""Unit tests for the observability layer (repro.obs).

Covers the tracer's span nesting and charge attribution, the metrics
registry semantics, the JSONL export round-trip, and the validity of the
Chrome ``trace_event`` export.
"""

import json

import pytest

from repro.cluster.stats import RunStats
from repro.obs import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_TRACER,
    Tracer,
    chrome_trace_document,
    export_trace,
    load_trace,
    summarize_trace,
)
from repro.obs.chrome import CLUSTER_PID, HOST_PID


class TestSpanNesting:
    def test_parent_child_links(self):
        t = Tracer()
        with t.span("outer", category="superstep"):
            with t.span("inner", category="phase"):
                pass
        t.finish()
        spans = {s["name"]: s for s in t.spans()}
        assert spans["inner"]["parent"] == spans["outer"]["id"]
        assert spans["outer"]["parent"] is None
        # children close before parents (emission order is close order)
        names = [s["name"] for s in t.spans()]
        assert names == ["inner", "outer"]

    def test_forgotten_child_closed_implicitly(self):
        t = Tracer()
        outer = t.span("outer")
        t.span("forgotten")
        outer.end()
        assert [s["name"] for s in t.spans()] == ["forgotten", "outer"]

    def test_finish_closes_open_spans_and_is_idempotent(self):
        t = Tracer()
        t.span("left-open")
        t.finish(run="x")
        t.finish(run="y")  # no-op
        assert len(t.spans()) == 1
        assert t.meta["run"] == "x"
        metas = [r for r in t.records if r["type"] == "run_meta"]
        assert len(metas) == 1

    def test_attrs_via_set_and_kwargs(self):
        t = Tracer()
        with t.span("s", category="phase", fixed=1) as sp:
            sp.set(late=2)
        rec = t.spans()[0]
        assert rec["attrs"] == {"fixed": 1, "late": 2}

    def test_charges_attributed_to_innermost_span(self):
        t = Tracer()
        stats = RunStats()
        t.bind_stats(stats)
        with t.span("outer", category="superstep"):
            stats.add_sync(0.25)
            with t.span("inner", category="phase"):
                stats.add_comm(1.0)
        stats.add_comm(0.5)  # outside any span -> untracked
        t.finish()
        spans = {s["name"]: s for s in t.spans()}
        assert spans["inner"]["charges"] == {"comm": 1.0}
        assert spans["outer"]["charges"] == {"sync": 0.25}
        assert t.untracked["comm"] == 0.5
        assert t.meta["untracked_charges"]["comm"] == 0.5
        # model clock tracked the ledger
        assert t.model_now == pytest.approx(stats.modeled_time_s)

    def test_model_durations_tile_the_ledger(self):
        t = Tracer()
        stats = RunStats()
        t.bind_stats(stats)
        for _ in range(3):
            with t.span("p", category="phase"):
                stats.add_comm(0.125)
                stats.add_sync(0.5)
        t.finish()
        total = sum(s["model_t1"] - s["model_t0"] for s in t.spans("phase"))
        assert total == pytest.approx(stats.modeled_time_s, abs=1e-12)

    def test_null_tracer_is_inert(self):
        with NULL_TRACER.span("x", category="phase") as sp:
            sp.set(a=1)
        NULL_TRACER.instant("x")
        NULL_TRACER.finish()
        assert NULL_TRACER.enabled is False


class TestMetricsRegistry:
    def test_counter_monotone(self):
        c = Counter("c")
        c.inc()
        c.inc(2.5)
        assert c.export() == 3.5
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_gauge_last_write_wins(self):
        g = Gauge("g")
        g.set(5)
        g.set(2)
        assert g.export() == 2.0

    def test_histogram_summary_and_buckets(self):
        h = Histogram("h", buckets=[1.0, 10.0])
        for v in (0.5, 5.0, 50.0, 7.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == pytest.approx(62.5)
        assert h.mean == pytest.approx(15.625)
        assert h.min == 0.5 and h.max == 50.0
        assert h.bucket_counts == [1, 2, 1]  # <=1, <=10, +inf
        exported = h.export()
        assert exported["count"] == 4.0
        assert exported["le_1"] == 1.0

    def test_histogram_weighted_observe(self):
        h = Histogram("h", buckets=[2.0, 8.0])
        h.observe(1.0, count=3)
        h.observe(5.0, count=2)
        assert h.count == 5
        assert h.sum == pytest.approx(13.0)
        assert h.bucket_counts == [3, 2, 0]
        with pytest.raises(ValueError):
            h.observe(1.0, count=0)

    def test_histogram_quantiles_interpolate_buckets(self):
        h = Histogram("h", buckets=[10.0, 20.0, 30.0])
        for v in range(1, 21):  # uniform 1..20 over the first two buckets
            h.observe(float(v))
        exported = h.export()
        # p50 lands at the first-bucket boundary, p95/p99 inside (10, 20]
        assert exported["p50"] == pytest.approx(10.0, abs=1.0)
        assert 10.0 < exported["p95"] <= 20.0
        assert exported["p99"] > exported["p95"] - 1e-9
        assert exported["p99"] <= 20.0

    def test_histogram_quantiles_clamped_to_observed_range(self):
        h = Histogram("h", buckets=[100.0])
        h.observe(42.0)
        # single observation: every quantile is that observation
        assert h.quantile(0.5) == pytest.approx(42.0)
        assert h.quantile(0.99) == pytest.approx(42.0)

    def test_histogram_quantiles_edge_cases(self):
        empty = Histogram("e", buckets=[1.0])
        assert empty.quantile(0.5) == 0.0
        bucketless = Histogram("b")
        bucketless.observe(0.0)
        bucketless.observe(10.0)
        assert bucketless.quantile(0.5) == pytest.approx(5.0)
        with pytest.raises(ValueError):
            bucketless.quantile(1.5)

    def test_histogram_quantiles_never_nan_on_infinite_observations(self):
        # SSSP distances start at +inf; short runs can observe them
        # directly. inf - inf in the interpolation used to yield NaN.
        import math

        both = Histogram("b", buckets=[1.0, 10.0])
        both.observe(math.inf)
        both.observe(-math.inf)
        bucketless = Histogram("bl")
        bucketless.observe(math.inf)
        bucketless.observe(0.0)
        single = Histogram("s", buckets=[1.0])
        single.observe(math.inf)
        for h in (both, bucketless, single):
            for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
                assert not math.isnan(h.quantile(q)), (h.name, q)
        # the exported quantiles (what `repro report` prints) are
        # NaN-free too (sum/mean of a mixed ±inf stream stay undefined
        # by design — that is the data, not an interpolation artifact)
        for h in (both, bucketless, single):
            export = h.export()
            for key in ("p50", "p95", "p99", "min", "max"):
                assert not math.isnan(export[key]), (h.name, key)

    def test_histogram_single_bucket_single_observation(self):
        # one observation landing in the open-ended last bucket: min ==
        # max, so every quantile is the observation itself
        h = Histogram("one", buckets=[1.0])
        h.observe(5.0)
        assert h.quantile(0.5) == pytest.approx(5.0)
        assert h.quantile(0.99) == pytest.approx(5.0)

    def test_registry_get_or_create(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert "a" in reg and len(reg) == 1

    def test_registry_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")

    def test_registry_export(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(2)
        reg.gauge("b").set(7)
        out = reg.export()
        assert out == {"a": 2.0, "b": 7.0}

    def test_extra_view_round_trip(self):
        # extra is a plain dict: dumped once (sorted, floats), not
        # mirrored into the registry
        stats = RunStats()
        stats.extra["mode_switches"] = 3
        stats.bump("probes", 2)
        stats.bump("probes")
        assert type(stats.extra) is dict
        assert stats.extra == {"mode_switches": 3, "probes": 3.0}
        assert len(stats.metrics) == 0
        dump = stats.to_dict()
        assert list(dump["extra"]) == ["mode_switches", "probes"]
        assert all(type(v) is float for v in dump["extra"].values())
        assert dump["metrics"] == {}
        stats.metrics.gauge("lens.drift_max").set(0.5)
        dump = stats.to_dict()
        assert not [k for k in dump["metrics"] if k.startswith("extra.")]
        restored = RunStats.from_dict(dump)
        assert restored.extra == {"mode_switches": 3.0, "probes": 3.0}
        assert isinstance(restored.metrics.get("lens.drift_max"), Gauge)
        assert restored.to_dict() == dump


def _traced_run():
    """A tiny synthetic run exercising every record type."""
    t = Tracer()
    stats = RunStats()
    t.bind_stats(stats)
    with t.span("superstep", category="superstep", superstep=0) as ss:
        with t.span("gather", category="phase") as sp:
            stats.add_comm(0.25)
            sp.set(msgs=10)
        # one compute pass over two runtimes: machines 0–1, machine 2
        t.emit_closed_span("machine-work", "machine", t.host_epoch,
                           t.host_epoch + 0.003, {
                               "superstep": 0, "edges": [4, 0, 2],
                               "applies": [1, 0, 1],
                               "busy_s": [0.5, 0.0, 0.25],
                               "host_s": [[0, 0.002], [2, 0.001]],
                           })
        ss.set(active=42)
    t.instant("decision", do_local=True)
    t.finish(engine="test", algorithm="unit", stats=stats.to_dict())
    return t


class TestSinks:
    def test_jsonl_round_trip(self, tmp_path):
        t = _traced_run()
        path = tmp_path / "trace.jsonl"
        export_trace(t, str(path), "jsonl")
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["type"] == "trace_header"
        assert lines[0]["format"] == "repro-trace"
        types = {l["type"] for l in lines[1:]}
        assert types == {"span", "instant", "run_meta"}
        # load_trace reconstructs the same structure
        trace = load_trace(str(path))
        assert len(trace.spans) == len(t.spans())
        assert trace.meta["engine"] == "test"
        gather = [s for s in trace.spans if s["name"] == "gather"][0]
        assert gather["charges"]["comm"] == 0.25

    def test_export_rejects_unknown_format(self, tmp_path):
        with pytest.raises(ValueError):
            export_trace(_traced_run(), str(tmp_path / "x"), "protobuf")


class TestChromeExport:
    def test_document_structure(self, tmp_path):
        t = _traced_run()
        path = tmp_path / "trace.json"
        export_trace(t, str(path), "chrome")
        doc = json.loads(path.read_text())
        assert set(doc) >= {"traceEvents", "displayTimeUnit", "otherData"}
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases >= {"X", "i", "C", "M"}
        # every event is on one of the two declared processes
        assert {e["pid"] for e in events} <= {CLUSTER_PID, HOST_PID}
        names = {e["name"] for e in events if e["ph"] == "M"}
        assert "process_name" in names

    def test_span_axes(self):
        t = _traced_run()
        doc = chrome_trace_document(t.records, t.meta)
        xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        (gather,) = [e for e in xs if e["name"] == "gather"]
        # phase span -> modeled-cluster-time axis
        assert gather["pid"] == CLUSTER_PID
        assert gather["args"]["charge_comm_s"] == 0.25
        # a compute pass -> one host-axis event per runtime, end to end,
        # tid = the runtime's first machine, args its columns' slice
        work = [e for e in xs if e["name"] == "machine-work"]
        assert [(e["pid"], e["tid"]) for e in work] == [
            (HOST_PID, 0), (HOST_PID, 2),
        ]
        assert work[0]["dur"] == pytest.approx(2000.0)
        assert work[1]["ts"] == pytest.approx(work[0]["ts"] + 2000.0)
        assert work[0]["args"]["edges"] == [4, 0]
        assert work[1]["args"]["busy_s"] == [0.25]
        threads = {
            e["tid"]: e["args"]["name"] for e in doc["traceEvents"]
            if e["name"] == "thread_name"
        }
        assert threads == {0: "machines 0–1", 2: "machine 2"}
        # the superstep span's active -> one counter sample at its end
        (sample,) = [e for e in doc["traceEvents"] if e["ph"] == "C"]
        (superstep,) = [e for e in xs if e["name"] == "superstep"]
        assert sample["name"] == "active_vertices"
        assert sample["args"] == {"value": 42}
        assert sample["ts"] == superstep["ts"] + superstep["dur"] == 250000.0
        # ts/dur are non-negative microseconds
        for e in xs:
            assert e["ts"] >= 0.0 and e["dur"] >= 0.0


class TestReportDistributions:
    """Histogram quantiles (p50/p95/p99) surface in the trace report."""

    def test_histogram_exports_summarized(self):
        from repro.obs.records import TraceData
        from repro.obs.report import format_report

        trace = TraceData(meta={"stats": {"metrics": {
            "lens.staleness": {
                "count": 10, "mean": 2.0, "p50": 1.0,
                "p95": 4.0, "p99": 6.0, "max": 8.0,
            },
            "lens.drift_max": 0.5,  # gauge: no quantiles to report
        }}})
        summary = summarize_trace(trace)
        dists = summary["distributions"]
        assert [d["name"] for d in dists] == ["lens.staleness"]
        assert dists[0]["p95"] == 4.0 and dists[0]["count"] == 10
        text = format_report(summary)
        assert "distributions" in text
        assert "p95" in text and "lens.staleness" in text

    def test_no_histograms_no_section(self):
        from repro.obs.records import TraceData
        from repro.obs.report import format_report

        trace = TraceData(meta={"stats": {"metrics": {"gauge_only": 1.0}}})
        summary = summarize_trace(trace)
        assert summary["distributions"] == []
        assert "distributions" not in format_report(summary)

    def test_lens_run_report_carries_quantiles(self):
        from repro.obs.records import trace_from_tracer
        from repro.run_api import run

        tracer = Tracer()
        run("road-ca-mini", "pagerank", engine="lazy-vertex", machines=4,
            seed=0, tracer=tracer, lens=True)
        summary = summarize_trace(trace_from_tracer(tracer))
        names = {d["name"] for d in summary["distributions"]}
        assert "lens.staleness" in names
        assert "lens.pending_mass" in names
        for d in summary["distributions"]:
            assert d["p50"] <= d["p95"] <= d["p99"] <= d["max"]
