"""Unit tests for the critical-path / straggler analyzer on synthetic traces.

Built by hand so every gating rule is exercised deliberately: a compute-
dominated leg gates on its slowest machine, a comm/sync leg on its
priced channel, a settle leg (compute charge, no machine spans of its
own) on the superstep's running straggler, and an all-idle superstep on
the control barrier. The integration matrix checks the same invariants
on real engine traces; the timeline columns are checked against the
lens records of real lazy-engine runs.
"""

import pytest

from repro.obs import Tracer
from repro.obs.critical_path import analyze_trace, format_analysis
from repro.obs.records import TraceData, trace_from_tracer
from repro.run_api import run


def _span(id_, parent, name, cat, t0, t1, charges=None, **attrs):
    return {
        "type": "span", "id": id_, "parent": parent, "name": name,
        "cat": cat, "model_t0": t0, "model_t1": t1,
        "charges": charges or {}, "attrs": attrs,
    }


def _pass(id_, parent, busy_s, superstep, host_s=None):
    """One compute pass's ``machine-work`` record: per-machine columns,
    and host seconds per runtime (here: one runtime per machine, each
    taking its machine's modeled seconds)."""
    if host_s is None:
        host_s = [[m, b] for m, b in enumerate(busy_s)]
    s = _span(id_, parent, "machine-work", "machine", 0.0, 0.0,
              superstep=superstep, busy_s=list(busy_s),
              edges=[0] * len(busy_s), applies=[0] * len(busy_s),
              host_s=host_s)
    s.update(host_t0=0.0, host_t1=sum(h for _, h in host_s))
    return s


def _make_trace():
    """Three supersteps covering each gating rule, in emission order."""
    spans = [
        _span(1, None, "bootstrap", "phase", 0.0, 0.1,
              {"compute": 0.1}),
        # superstep 0: compute-dominated gather (machine 1 slower) wins
        # over a comm-priced apply leg
        _pass(2, 3, busy_s=[0.12, 0.25], superstep=0),
        _span(3, 7, "gather", "phase", 0.1, 0.35,
              {"compute": 0.2, "comm": 0.05}, superstep=0),
        _span(5, 7, "apply", "phase", 0.35, 0.5,
              {"comm": 0.1, "sync": 0.05}, superstep=0),
        _span(7, None, "superstep", "superstep", 0.1, 0.5, superstep=0),
        # superstep 1: a comm-dominated coherency exchange (a2a wire)
        _span(8, 9, "coherency", "phase", 0.5, 0.8,
              {"comm": 0.25, "sync": 0.05}, superstep=1,
              mode="all_to_all"),
        _span(9, None, "superstep", "superstep", 0.5, 0.9, superstep=1),
        # superstep 2: all legs zero-width -> idle, control barrier
        _span(10, 11, "termination-probe", "phase", 0.9, 0.9, {},
              superstep=2),
        _span(11, None, "superstep", "superstep", 0.9, 0.9, superstep=2),
    ]
    return TraceData(
        spans=spans,
        meta={
            "engine": "toy", "algorithm": "pagerank", "machines": 2,
            "replication_factor": 1.5,
            "untracked_charges": {"comm": 0.05},
            "stats": {"modeled_time_s": 0.95, "compute_skew": 1.3},
        },
    )


class TestGatingRules:
    def test_compute_leg_gates_on_slowest_machine(self):
        a = analyze_trace(_make_trace())
        gate = a["supersteps"][0]["gating"]
        assert gate == {
            "kind": "machine", "machine": 1, "busy_s": 0.25, "leg": "gather",
        }

    def test_comm_leg_gates_on_mode_channel(self):
        a = analyze_trace(_make_trace())
        gate = a["supersteps"][1]["gating"]
        assert gate["kind"] == "channel"
        assert gate["channel"] == "delta_a2a"
        assert gate["leg"] == "coherency"

    def test_idle_superstep_gates_on_control_barrier(self):
        a = analyze_trace(_make_trace())
        gate = a["supersteps"][2]["gating"]
        assert gate == {
            "kind": "channel", "channel": "control",
            "leg": "termination-probe",
        }

    def test_every_superstep_names_a_gate(self):
        a = analyze_trace(_make_trace())
        for row in a["supersteps"]:
            gate = row["gating"]
            assert gate["kind"] in ("machine", "channel")
            assert ("machine" in gate) or ("channel" in gate)

    def test_settle_leg_falls_back_to_running_straggler(self):
        # a compute-charged leg with no passes of its own inherits the
        # superstep's accumulated per-machine busy (the local stage's
        # passes, summed)
        trace = TraceData(
            spans=[
                _pass(4, 1, busy_s=[0.25, 0.05], superstep=0),
                _pass(5, 1, busy_s=[0.1, 0.1], superstep=0),
                _span(1, 2, "local-computation", "phase", 0.0, 0.0, {},
                      superstep=0),
                _span(3, 2, "coherency", "phase", 0.0, 0.4,
                      {"compute": 0.3, "comm": 0.1}, superstep=0,
                      mode="mirrors_to_master"),
                _span(2, None, "superstep", "superstep", 0.0, 0.4,
                      superstep=0),
            ],
            meta={"machines": 2, "stats": {"modeled_time_s": 0.4}},
        )
        a = analyze_trace(trace)
        gate = a["supersteps"][0]["gating"]
        assert gate["kind"] == "machine"
        assert gate["machine"] == 0
        assert gate["busy_s"] == pytest.approx(0.35)


    def test_a_leg_without_work_has_no_gating_machine(self):
        a = analyze_trace(_make_trace())
        legs = {leg["name"]: leg for leg in a["supersteps"][0]["legs"]}
        assert legs["gather"]["machine"] == 1
        assert legs["apply"]["machine"] is None


class TestPerMachineWriterIsRefused:
    @pytest.mark.parametrize("record", [
        {"type": "span", "id": 9, "parent": 3, "name": "apply-machine",
         "cat": "machine", "model_t0": 0.0, "model_t1": 0.0,
         "attrs": {"machine": 0, "busy_s": 0.1}},
        {"type": "instant", "name": "machine-work",
         "attrs": {"machine": 0, "superstep": 0, "busy_s": 0.1}},
    ])
    def test_old_records_raise(self, record):
        trace = _make_trace()
        trace.add(record)
        with pytest.raises(ValueError, match="per-machine writer"):
            analyze_trace(trace)


class TestHostClockPerRuntime:
    def _block_trace(self):
        # four machines in two runtimes (0–2 and 3): the host steps the
        # runtimes, so host time is per runtime
        trace = _make_trace()
        trace.meta["machines"] = 4
        trace.spans[1] = _pass(2, 3, busy_s=[0.12, 0.25, 0.0, 0.01],
                               superstep=0, host_s=[[0, 0.5], [3, 0.1]])
        return trace

    def test_host_columns_name_runtimes(self):
        a = analyze_trace(self._block_trace())
        assert a["supersteps"][0]["host_gating"] == {
            "machines": [0, 2], "host_busy_s": 0.5,
        }
        assert [r["machines"] for r in a["host_runtimes"]] == [[0, 2], [3, 3]]
        assert [r["host_gated_supersteps"] for r in a["host_runtimes"]] == [
            1, 0,
        ]
        assert a["stragglers"]["host_machines"] == [0, 2]
        assert a["stragglers"]["host_imbalance"] == pytest.approx(0.5 / 0.3)
        # the modeled columns stay per machine
        assert a["machines_detail"]["busy_s"] == [0.12, 0.25, 0.0, 0.01]
        text = format_analysis(a)
        assert "host-clock straggler: machines 0–2" in text
        assert "per-runtime load (host clock)" in text

    def test_one_machine_per_runtime_reads_as_machines(self):
        text = format_analysis(analyze_trace(_make_trace()))
        assert "host-clock straggler: machine 1 " in text


class TestAccounting:
    def test_totals_tile_the_run(self):
        a = analyze_trace(_make_trace())
        assert a["bootstrap_s"] == pytest.approx(0.1)
        assert a["supersteps_s"] == pytest.approx(0.8)
        assert a["untracked_s"] == pytest.approx(0.05)
        assert a["accounted_s"] == pytest.approx(a["total_modeled_s"])

    def test_self_time_is_width_minus_legs(self):
        a = analyze_trace(_make_trace())
        # superstep 1 is 0.4 wide but its only leg covers 0.3
        assert a["supersteps"][1]["self_s"] == pytest.approx(0.1)

    def test_machine_and_straggler_summaries(self):
        a = analyze_trace(_make_trace())
        md = a["machines_detail"]
        assert md["busy_s"] == [pytest.approx(0.12), pytest.approx(0.25)]
        assert md["gated_supersteps"] == [0, 1]
        st = a["stragglers"]
        assert st["machine"] == 1
        assert st["imbalance"] == pytest.approx(0.25 / 0.185)
        assert st["replication_factor"] == 1.5
        assert a["gated_channels"] == {"delta_a2a": 1, "control": 1}


class TestFormatting:
    def test_text_report_names_gates_and_straggler(self):
        text = format_analysis(analyze_trace(_make_trace()))
        assert "machine 1" in text
        assert "channel delta_a2a" in text
        assert "straggler: machine 1" in text
        assert "λ = 1.500" in text
        assert "modeled-time accounting" in text

    def test_max_rows_truncation(self):
        text = format_analysis(analyze_trace(_make_trace()), max_rows=2)
        assert "first 2 of 3" in text

    def test_empty_trace_renders(self):
        a = analyze_trace(TraceData(meta={"stats": {"modeled_time_s": 0.0}}))
        assert a["supersteps"] == []
        assert "critical-path analysis" in format_analysis(a)


def _lens_run(engine, trace):
    """Lens-on PageRank on road-ca-mini, 4 machines: (TraceData, RunStats)."""
    tracer = Tracer()
    result = run("road-ca-mini", "pagerank", engine=engine, machines=4,
                 seed=0, tracer=tracer, lens=True, trace=trace)
    return trace_from_tracer(tracer), result.stats


def _named(trace, name):
    return [i["attrs"] for i in trace.instants if i["name"] == name]


LAZY = ["lazy-block", "lazy-vertex"]


class TestTimeline:
    """The timeline columns equal the records they are read from."""

    @pytest.mark.parametrize("engine", LAZY)
    def test_rows_carry_the_lens_records_verbatim(self, engine):
        trace, _ = _lens_run(engine, trace=False)
        rows = analyze_trace(trace)["supersteps"]
        spans = [s for s in trace.spans if s["cat"] == "superstep"]
        assert [r["superstep"] for r in rows] == [
            s["attrs"]["superstep"] for s in spans
        ]
        probes = {p["superstep"]: p for p in _named(trace, "lens-probe")}
        ledgers = {g["superstep"]: g for g in _named(trace, "channel-ledger")}
        assert set(probes) == set(ledgers) == {r["superstep"] for r in rows}
        for row in rows:
            probe, ledger = probes[row["superstep"]], ledgers[row["superstep"]]
            for key in ("pending_mass", "pending_replicas", "staleness_max",
                        "drift_max"):
                assert row[key] == probe[key]
            assert row["channel_bytes"] == {
                key[: -len(".bytes")]: value for key, value in ledger.items()
                if key.endswith(".bytes")
            }
            assert row["channel_bytes"]
        executed = [
            d["superstep"] for d in _named(trace, "coherency-decision")
            if d["kind"] == "coherency" and d["verdict"] == "exchange"
        ]
        assert [r["exchanges"] for r in rows] == [
            executed.count(r["superstep"]) for r in rows
        ]
        assert sum(r["exchanges"] for r in rows) > 0
        # active samples come from RunStats.snapshot (trace=True) only:
        # the lens alone writes none
        assert not [c for c in trace.counters if c["name"] == "active_vertices"]
        assert [r["active"] for r in rows] == [None] * len(rows)

    @pytest.mark.parametrize("engine", LAZY)
    def test_active_is_the_post_exchange_sample(self, engine):
        # trace=True: RunStats.snapshot's post-exchange sample, one per
        # superstep, is the only active_vertices emitter
        trace, stats = _lens_run(engine, trace=True)
        rows = analyze_trace(trace)["supersteps"]
        spans = [s for s in trace.spans if s["cat"] == "superstep"]
        samples = [c for c in trace.counters if c["name"] == "active_vertices"]
        assert len(samples) == len(spans) == len(rows)
        assert [r["superstep"] for r in rows] == [
            s["attrs"]["superstep"] for s in spans
        ]
        assert len(stats.timeline) == len(rows)
        assert [r["active"] for r in rows] == [
            entry["active"] for entry in stats.timeline
        ] == [c["value"] for c in samples]
