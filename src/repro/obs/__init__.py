"""repro.obs — structured tracing and metrics for every engine run.

The observability layer the paper's counter-driven evaluation implies:

* :mod:`repro.obs.tracer` — nested spans (superstep → phase →
  compute pass, one ``machine-work`` span with per-machine columns) on
  both the host clock and the modeled cluster clock, fed by every
  :class:`~repro.cluster.stats.RunStats` charge;
* :mod:`repro.obs.metrics` — Counter/Gauge/Histogram registry that
  ``RunStats`` keeps the lens's instruments in;
* :mod:`repro.obs.records` — the on-disk format of every observability
  file (run trace, serve trace, telemetry, mutation stream): the one
  :class:`RecordWriter` all four writers go through, the one
  :func:`load_trace` every reader starts from, and :func:`export_trace`,
  the one run-trace writer (JSONL, or a Chrome ``trace_event`` export
  through :mod:`repro.obs.chrome` for ``chrome://tracing`` / Perfetto);
* :mod:`repro.obs.report` — the per-phase / totals / decisions tables
  of a run trace (the first sections of ``repro analyze``) and the
  side-by-side totals of two runs (``repro analyze A B``);
* :mod:`repro.obs.critical_path` — critical-path / straggler analysis
  of a trace (``repro analyze``): per-superstep gating machine/channel
  plus the lens timeline (pending mass, drift, staleness, channel
  bytes, active vertices), load imbalance vs the replication factor λ;
* :mod:`repro.obs.lens` — the coherency lens: replica-staleness and
  divergence probes plus the coherency-decision audit log for the lazy
  engines (opt-in via ``lens=True``);
* :mod:`repro.obs.audit` — :class:`LensAuditor` invariant checks over a
  finished trace (untracked charges, pending-mass leaks, final drift,
  ledger reconciliation);
* :mod:`repro.obs.request_trace` — request-scoped tracing for the
  serving layer: one ``serve.request`` record per request and one
  ``serve.engine-run`` record per engine run (holding that run's own
  trace), with bit-exact cost attribution (``repro analyze`` on a
  serve trace);
* :mod:`repro.obs.telemetry` — the service telemetry plane: a
  background ticker sampling queue depth / cache hit rate /
  sliding-window latency quantiles into versioned JSONL, plus the one
  service view / rendering / SLO gate ``repro analyze`` applies to it.
"""

from repro.obs.audit import Anomaly, LensAuditor
from repro.obs.chrome import chrome_trace_document
from repro.obs.critical_path import analyze_trace, format_analysis
from repro.obs.lens import (
    NULL_LENS,
    CoherencyDecision,
    CoherencyLens,
    NullLens,
)
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.records import (
    TRACE_FORMATS,
    RecordWriter,
    TraceData,
    export_trace,
    load_trace,
)
from repro.obs.report import format_report, summarize_trace
from repro.obs.request_trace import (
    RequestContext,
    ServeTraceWriter,
    analyze_serve_trace,
    format_serve_analysis,
    split_cost,
)
from repro.obs.telemetry import (
    TelemetrySink,
    check_slo,
    format_service,
    service_sample,
)
from repro.obs.tracer import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "export_trace",
    "TRACE_FORMATS",
    "chrome_trace_document",
    "RecordWriter",
    "TraceData",
    "load_trace",
    "summarize_trace",
    "format_report",
    "analyze_trace",
    "format_analysis",
    "CoherencyLens",
    "CoherencyDecision",
    "NullLens",
    "NULL_LENS",
    "LensAuditor",
    "Anomaly",
    "RequestContext",
    "ServeTraceWriter",
    "split_cost",
    "analyze_serve_trace",
    "format_serve_analysis",
    "TelemetrySink",
    "service_sample",
    "format_service",
    "check_slo",
]
