"""Lens invariants across engines and algorithms.

The coherency lens makes the lazy engines' bookkeeping auditable.
These are the invariants that must hold on every clean run:

* after **every** coherency exchange, the pending-delta mass over the
  vertices the exchange was responsible for is exactly zero — lazy
  engines defer coherency, they never lose it;
* master/mirror drift is zero once the run has terminated (the final
  drain precedes termination);
* exactly one ``kind="coherency"`` decision is logged per executed
  coherency exchange, so the audit log and the counter ledger agree;
* the :class:`~repro.obs.audit.LensAuditor` finds nothing to flag.

Parametrized over both lazy engines × two algorithms with different
delta algebras (pagerank: SUM, cc: MIN). LazyVertexAsync defers most
of its exchanges — deferring must never break the invariants.
"""

import pytest

from repro.obs import Tracer
from repro.obs.audit import LensAuditor
from repro.obs.records import trace_from_tracer
from repro.run_api import run

ENGINES = ["lazy-block", "lazy-vertex"]
ALGORITHMS = ["pagerank", "cc"]
MATRIX = [(e, a, "paper") for e in ENGINES for a in ALGORITHMS]


@pytest.fixture(scope="module", params=MATRIX,
                ids=lambda p: f"{p[0]}-{p[1]}-{p[2]}")
def lens_run(request):
    engine, algorithm, policy = request.param
    tracer = Tracer()
    result = run("road-ca-mini", algorithm, engine=engine, machines=8,
                 seed=0, policy=policy, tracer=tracer, lens=True)
    return engine, algorithm, policy, result, tracer


class TestLensInvariants:
    def test_pending_mass_zero_after_every_exchange(self, lens_run):
        *_, tracer = lens_run
        exchanges = tracer.instants("lens-exchange")
        assert exchanges, "no coherency exchange was instrumented"
        for ex in exchanges:
            assert ex["attrs"]["mass_after"] == 0.0, ex["attrs"]
            assert ex["attrs"]["pending_after"] == 0, ex["attrs"]

    def test_drift_zero_at_termination(self, lens_run):
        *_, result, _ = lens_run
        # exhaustive check over all replicated vertices, not the sample
        assert result.stats.extra["lens.final_drift"] <= 1e-9

    def test_decision_per_coherency_exchange(self, lens_run):
        *_, result, tracer = lens_run
        coherency_decisions = [
            d for d in tracer.instants("coherency-decision")
            if d["attrs"]["kind"] == "coherency"
        ]
        assert len(coherency_decisions) == result.stats.coherency_points

    def test_no_invariant_breaks_counted(self, lens_run):
        *_, result, _ = lens_run
        assert result.stats.extra["lens.invariant_breaks"] == 0.0

    def test_auditor_finds_nothing(self, lens_run):
        *_, tracer = lens_run
        anomalies = LensAuditor(trace_from_tracer(tracer)).audit()
        assert anomalies == [], [str(a) for a in anomalies]

    def test_probe_cadence_covers_every_superstep(self, lens_run):
        *_, result, tracer = lens_run
        probes = tracer.instants("lens-probe")
        assert len(probes) >= result.stats.supersteps

    def test_lens_does_not_change_the_answer(self, lens_run):
        engine, algorithm, policy, result, _ = lens_run
        # same config without the lens: identical protocol counters
        bare = run("road-ca-mini", algorithm, engine=engine, machines=8,
                   seed=0, policy=policy)
        assert bare.stats.supersteps == result.stats.supersteps
        assert bare.stats.coherency_points == result.stats.coherency_points
        assert bare.stats.comm_messages == result.stats.comm_messages
