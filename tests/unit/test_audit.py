"""Unit tests for the LensAuditor's invariant checks (repro.obs.audit)."""

import pytest

from repro.obs import Tracer
from repro.obs.audit import LensAuditor
from repro.obs.records import TraceData, trace_from_tracer
from repro.run_api import run


@pytest.fixture(scope="module")
def lens_trace():
    tracer = Tracer()
    run("road-ca-mini", "pagerank", engine="lazy-block", machines=4,
        seed=0, tracer=tracer, lens=True)
    return trace_from_tracer(tracer)


class TestLensAuditor:
    def test_clean_lens_trace_has_no_anomalies(self, lens_trace):
        assert LensAuditor(lens_trace).audit() == []

    def test_untracked_charges_flagged(self):
        trace = TraceData(meta={"untracked_charges": {"comm": 0.5}})
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["untracked-charges"]
        assert anomalies[0].severity == "warning"

    def test_pending_mass_after_exchange_flagged(self):
        trace = TraceData(instants=[{
            "type": "instant", "name": "lens-exchange",
            "attrs": {"superstep": 4, "mass_after": 2.0,
                      "pending_after": 3},
        }])
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["pending-after-exchange"]
        assert anomalies[0].severity == "critical"

    def test_final_drift_flagged_only_when_converged(self):
        def final(converged):
            return TraceData(instants=[{
                "type": "instant", "name": "lens-final",
                "attrs": {"converged": converged, "drift": 0.25},
            }])

        assert [a.code for a in LensAuditor(final(True)).audit()] == [
            "final-drift"
        ]
        assert LensAuditor(final(False)).audit() == []

    def test_decision_count_mismatch_flagged(self):
        trace = TraceData(
            instants=[
                {"type": "instant", "name": "lens-final",
                 "attrs": {"converged": True, "drift": 0.0}},
                {"type": "instant", "name": "coherency-decision",
                 "attrs": {"kind": "coherency"}},
            ],
            meta={"stats": {"coherency_points": 2}},
        )
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["decision-mismatch"]

    def test_ledger_mismatch_flagged(self):
        trace = TraceData(meta={"stats": {
            "comm_bytes": 100.0,
            "extra": {"comms.control.bytes": 40.0,
                      "comms.delta_a2a.bytes": 40.0},
        }})
        anomalies = LensAuditor(trace).audit()
        assert [a.code for a in anomalies] == ["ledger-mismatch"]
        assert "comm_bytes" in anomalies[0].message

    def test_non_lens_trace_skips_lens_only_checks(self):
        trace = TraceData(meta={"stats": {"coherency_points": 5}})
        assert LensAuditor(trace).audit() == []
