"""Request-scoped tracing for the resident serving stack.

A batch run has one trace; a serving workload has *requests* — many
small queries riding shared engine runs, caches, and batching windows.
This module gives each :meth:`repro.serve.GraphService.submit` a
:class:`RequestContext` (request id + the host timestamps of its four
service legs) and writes a **serve trace** of two record kinds:

* one ``serve.request`` record per request, carrying the widths of its
  four legs, which tile submit-to-completion host time exactly —
  ``queue_s`` (enqueue → dispatch), ``batch_s`` (dispatch → run start:
  canonicalization, cache lookup, fusion planning), ``run_s`` (the
  engine run, zero on cache hits) and ``handout_s`` (run end → answer
  handed out: freeze into the LRU, copy per rider, write the run
  record) — plus its outcome and cost attribution;
* one ``serve.engine-run`` record per engine run, holding the run's own
  :class:`~repro.obs.tracer.Tracer` stream verbatim under ``records``,
  so ``repro analyze --run-id N`` reads one served run exactly as it
  reads a standalone ``--trace-out`` file
  (:func:`repro.obs.critical_path.extract_run`);
* **cost attribution**: a fused / single-flight run's modeled engine
  cost is split across the riding requests with :func:`split_cost`,
  whose shares sum *bit-exactly* back to the run's modeled time; cache
  hits record the ``(graph_version, engine, program, …)`` artifact key
  they hit and attribute zero engine cost.

Exactness contract: each leg width is the float difference of the two
``perf_counter`` stamps that bound it, and ``latency_s`` is the
left-to-right sum of the four widths — the same expression
:attr:`RequestContext.latency_s` computes and
:class:`~repro.serve.ServedResult` reports. JSON round-trips floats
exactly, so :func:`analyze_serve_trace` reproduces every request's
end-to-end latency bit-for-bit from its record (``repro analyze`` on a
serve trace asserts it and prints the per-request waterfalls plus a
"cost by query class" table).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.metrics import nearest_rank
from repro.obs.records import RecordWriter
from repro.obs.tracer import SERVE as SERVE_CATEGORY

__all__ = [
    "RequestContext",
    "ServeTraceWriter",
    "split_cost",
    "analyze_serve_trace",
    "format_serve_analysis",
]

#: a request's leg widths in canonical order; ``RequestContext.latency_s``
#: and the analyzer's re-sum both add them in exactly this order
LEGS = ("queue_s", "batch_s", "run_s", "handout_s")


def split_cost(total: float, n: int) -> List[float]:
    """Split ``total`` seconds across ``n`` riders, summing bit-exactly.

    The first ``n - 1`` shares are ``total / n``; the last share is
    ``total`` minus the left-to-right float sum of the others, so the
    left-to-right sum of all ``n`` shares reproduces ``total`` exactly
    (the final add is exact by Sterbenz' lemma: the partial sum lies
    within a factor of two of ``total`` for every ``n >= 2``).
    """
    if n <= 0:
        return []
    if n == 1:
        return [float(total)]
    share = total / n
    shares = [share] * (n - 1)
    partial = 0.0
    for s in shares:
        partial += s
    shares.append(total - partial)
    return shares


@dataclass
class RequestContext:
    """One served request's identity, timestamps, and attribution.

    Host timestamps are absolute ``time.perf_counter`` readings stamped
    at the leg boundaries; each leg's width is the float difference of
    its two stamps, and :attr:`latency_s` is their left-to-right sum —
    the service reports exactly this number, and the trace analyzer
    reproduces it exactly from the written record. The service writes
    each fact about a request here once; :class:`~repro.serve.
    ServedResult` and the trace record both read it.
    """

    request_id: int
    algorithm: str
    sources: tuple = ()
    t_enqueue: float = field(default_factory=time.perf_counter)
    t_dispatch: float = 0.0
    t_run0: float = 0.0
    t_run1: float = 0.0
    t_done: float = 0.0
    outcome: str = "pending"  # ok | error | cancelled
    cached: bool = False
    batched: bool = False
    batch_id: Optional[int] = None
    batch_size: int = 1
    run_id: Optional[int] = None
    sources_served: tuple = ()
    engine_cost_s: float = 0.0
    cache_key: Optional[str] = None
    error: Optional[str] = None

    @property
    def queue_s(self) -> float:
        return self.t_dispatch - self.t_enqueue

    @property
    def batch_s(self) -> float:
        return self.t_run0 - self.t_dispatch

    @property
    def run_s(self) -> float:
        return self.t_run1 - self.t_run0

    @property
    def handout_s(self) -> float:
        return self.t_done - self.t_run1

    @property
    def latency_s(self) -> float:
        """Sum of the four leg widths, in canonical leg order."""
        return self.queue_s + self.batch_s + self.run_s + self.handout_s

    def leg_widths(self) -> Dict[str, float]:
        return {leg: getattr(self, leg) for leg in LEGS}


class ServeTraceWriter:
    """Streams a serve trace as JSONL: one record per request and one
    per engine run.

    Both are ``span`` records with ``cat: "serve"`` under a
    ``serve``-profile trace header, so :func:`repro.obs.records.load_trace`
    reads the file as kind ``"serve"``; ``host_t0`` / ``host_t1`` place a
    record on the service timeline (seconds since the writer opened).
    A record needs no id, so the writer keeps no counter, and
    :class:`~repro.obs.records.RecordWriter` serialises writes: the
    dispatcher and client threads answering cache hits call it without
    the service lock.
    """

    def __init__(self, path: str) -> None:
        self._writer = RecordWriter(path, "serve")
        self.path = self._writer.path
        self.epoch = time.perf_counter()

    def _record(
        self, name: str, t0: float, t1: float, attrs: Dict[str, Any],
        **fields: Any,
    ) -> None:
        self._writer.write({
            "type": "span",
            "name": name,
            "cat": SERVE_CATEGORY,
            "host_t0": t0 - self.epoch,
            "host_t1": t1 - self.epoch,
            "attrs": attrs,
            **fields,
        })

    def record_run(
        self,
        run_id: int,
        batch_id: int,
        algorithm: str,
        sources: tuple,
        request_ids: List[int],
        t_run0: float,
        t_run1: float,
        result: Any = None,
        tracer: Any = None,
        error: Optional[str] = None,
    ) -> None:
        """One ``serve.engine-run`` record holding the run's own trace.

        ``request_ids`` lists the riding requests in attribution order —
        the order their :func:`split_cost` shares were assigned, which
        is the order the analyzer re-sums them in. ``records`` is the
        run's :class:`~repro.obs.tracer.Tracer` stream, verbatim (its
        ``run_meta`` included; empty for a run that raised).
        """
        attrs: Dict[str, Any] = {
            "run_id": run_id,
            "batch_id": batch_id,
            "algorithm": algorithm,
            "sources": list(sources),
            "request_ids": list(request_ids),
            "dur_s": t_run1 - t_run0,
        }
        if result is not None:
            attrs["modeled_time_s"] = float(result.stats.modeled_time_s)
            attrs["engine"] = result.engine
            attrs["supersteps"] = int(result.stats.supersteps)
            attrs["converged"] = bool(result.stats.converged)
        if error is not None:
            attrs["error"] = error
        self._record(
            "serve.engine-run", t_run0, t_run1, attrs,
            records=tracer.records if tracer is not None else [],
        )

    def record_request(self, ctx: RequestContext) -> None:
        """One ``serve.request`` record: outcome, legs and attribution."""
        attrs: Dict[str, Any] = {
            "request_id": ctx.request_id,
            "algorithm": ctx.algorithm,
            "sources": list(ctx.sources),
            "sources_served": list(ctx.sources_served),
            "outcome": ctx.outcome,
            "cached": ctx.cached,
            "batched": ctx.batched,
            "batch_id": ctx.batch_id,
            "batch_size": ctx.batch_size,
            "run_id": ctx.run_id,
            "engine_cost_s": ctx.engine_cost_s,
            **ctx.leg_widths(),
            "latency_s": ctx.latency_s,
        }
        if ctx.cache_key is not None:
            attrs["cache_key"] = ctx.cache_key
        if ctx.error is not None:
            attrs["error"] = ctx.error
        self._record("serve.request", ctx.t_enqueue, ctx.t_done, attrs)

    def close(self, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write the trailing ``run_meta`` (service stats) and close."""
        self._writer.write({
            "type": "run_meta", "meta": {"service": True, **(meta or {})},
        })
        self._writer.close()


# ----------------------------------------------------------------------
# Analysis (``repro analyze`` on a serve trace)
# ----------------------------------------------------------------------
def analyze_serve_trace(trace: Any) -> Dict[str, Any]:
    """Per-request waterfalls + cost attribution from a serve trace.

    Returns a JSON-serializable dict:

    * ``requests`` — one row per request in request-id order: the four
      leg widths, ``latency_s`` (re-summed from those widths in
      canonical order — bit-identical to what the service reported,
      asserted via ``exact``), outcome, cache/batch flags, attributed
      engine cost and artifact key;
    * ``runs`` — one row per engine run: modeled time, riding request
      ids, and ``attribution_exact`` (the riders' shares re-summed in
      attribution order equal the run's modeled time bit-for-bit);
    * ``classes`` — the "cost by query class" table: per algorithm,
      request/hit/fused counts, attributed engine cost and its share,
      and latency quantiles;
    * ``totals`` — request counts, total attributed cost vs total run
      cost, whether every exactness check passed, and ``cut_short``
      (runs a truncated file lost some riders of; they are left out of
      everything above).

    Raises :class:`ValueError` on a trace from the per-leg writer
    (``serve.request`` records without leg widths) rather than reading
    its widths as zeros.
    """
    roots: List[Dict[str, Any]] = []
    runs: List[Dict[str, Any]] = []
    for s in trace.spans:
        if s.get("cat") != SERVE_CATEGORY:
            continue
        if s.get("name") == "serve.request":
            roots.append(s.get("attrs") or {})
        elif s.get("name") == "serve.engine-run":
            runs.append(s.get("attrs") or {})

    requests: List[Dict[str, Any]] = []
    for attrs in sorted(roots, key=lambda a: a.get("request_id", 0)):
        if any(leg not in attrs for leg in LEGS):
            raise ValueError(
                f"request {attrs.get('request_id')} has no leg widths: the "
                f"trace was written in the old per-leg layout (a root span "
                f"plus four leg spans per request); record it again"
            )
        total = 0.0
        for leg in LEGS:
            total = total + float(attrs[leg])
        reported = float(attrs.get("latency_s", 0.0))
        requests.append({
            "request_id": attrs.get("request_id"),
            "class": attrs.get("algorithm", "?"),
            "algorithm": attrs.get("algorithm", "?"),
            "sources": attrs.get("sources", []),
            "sources_served": attrs.get("sources_served", []),
            "outcome": attrs.get("outcome", "?"),
            "cached": bool(attrs.get("cached", False)),
            "batched": bool(attrs.get("batched", False)),
            "batch_id": attrs.get("batch_id"),
            "run_id": attrs.get("run_id"),
            "engine_cost_s": float(attrs.get("engine_cost_s", 0.0)),
            "cache_key": attrs.get("cache_key"),
            **{leg: float(attrs[leg]) for leg in LEGS},
            "latency_s": total,
            "reported_latency_s": reported,
            "exact": total == reported,
        })

    # per-run attribution conservation, re-summed in attribution order;
    # a writer killed mid-record (load_trace drops the cut line) can
    # leave a run without all its riders: counted, and left out
    req_by_id = {r["request_id"]: r for r in requests}
    cut_short = 0
    run_rows: List[Dict[str, Any]] = []
    total_run_cost = 0.0
    for attrs in sorted(runs, key=lambda a: a.get("run_id", 0)):
        modeled = float(attrs.get("modeled_time_s", 0.0))
        member_ids = list(attrs.get("request_ids") or [])
        if any(rid not in req_by_id for rid in member_ids):
            cut_short += 1
            continue
        attributed = 0.0
        for rid in member_ids:
            attributed = attributed + req_by_id[rid]["engine_cost_s"]
        total_run_cost += modeled
        run_rows.append({
            "run_id": attrs.get("run_id"),
            "batch_id": attrs.get("batch_id"),
            "algorithm": attrs.get("algorithm", "?"),
            "engine": attrs.get("engine"),
            "sources": attrs.get("sources", []),
            "request_ids": member_ids,
            "riders": len(member_ids),
            "modeled_time_s": modeled,
            "attributed_s": attributed,
            "attribution_exact": attributed == modeled,
            "host_s": float(attrs.get("dur_s", 0.0)),
            "supersteps": attrs.get("supersteps"),
            "error": attrs.get("error"),
        })

    classes: Dict[str, Dict[str, Any]] = {}
    total_cost = 0.0
    for row in requests:
        cls = row["class"]
        c = classes.setdefault(cls, {
            "requests": 0, "cache_hits": 0, "fused": 0, "errors": 0,
            "engine_cost_s": 0.0, "latencies": [],
        })
        c["requests"] += 1
        c["cache_hits"] += 1 if row["cached"] else 0
        c["fused"] += 1 if row["batched"] else 0
        c["errors"] += 1 if row["outcome"] == "error" else 0
        c["engine_cost_s"] = c["engine_cost_s"] + row["engine_cost_s"]
        total_cost = total_cost + row["engine_cost_s"]
        if row["outcome"] == "ok":
            c["latencies"].append(row["latency_s"])
    class_rows: Dict[str, Dict[str, Any]] = {}
    for cls, c in sorted(classes.items()):
        lat = sorted(c.pop("latencies"))
        class_rows[cls] = {
            **c,
            "cost_share": (
                c["engine_cost_s"] / total_cost if total_cost > 0 else 0.0
            ),
            "latency_p50_s": nearest_rank(lat, 0.50),
            "latency_p95_s": nearest_rank(lat, 0.95),
            "latency_max_s": lat[-1] if lat else 0.0,
        }

    meta = trace.meta or {}
    return {
        "requests": requests,
        "runs": run_rows,
        "classes": class_rows,
        "totals": {
            "requests": len(requests),
            "cache_hits": sum(1 for r in requests if r["cached"]),
            "fused": sum(1 for r in requests if r["batched"]),
            "errors": sum(1 for r in requests if r["outcome"] == "error"),
            "cancelled": sum(
                1 for r in requests if r["outcome"] == "cancelled"
            ),
            "engine_runs": len(run_rows),
            "cut_short": cut_short,
            "attributed_cost_s": total_cost,
            "run_cost_s": total_run_cost,
            "latency_exact": all(r["exact"] for r in requests),
            "attribution_exact": all(
                r["attribution_exact"] for r in run_rows
            ),
        },
        "service_stats": meta.get("service_stats") or {},
    }


def format_serve_analysis(
    analysis: Dict[str, Any], max_rows: int = 40
) -> str:
    """Render a serve analysis as the ``repro analyze`` text."""
    from repro.bench.reporting import format_table

    t = analysis["totals"]
    lines: List[str] = []
    lines.append(
        f"serve trace — {t['requests']} requests, {t['engine_runs']} engine "
        f"runs, {t['cache_hits']} cache hits, {t['fused']} fused, "
        f"{t['errors']} errors, {t['cancelled']} cancelled"
        + (f" ({t['cut_short']} more cut short by a truncated file)"
           if t["cut_short"] else "")
    )

    reqs = analysis["requests"]
    shown = reqs if len(reqs) <= max_rows else reqs[:max_rows]
    rows = []
    for r in shown:
        how = "hit" if r["cached"] else ("fused" if r["batched"] else "run")
        if r["outcome"] != "ok":
            how = r["outcome"]
        rows.append([
            r["request_id"], r["class"],
            round(r["queue_s"] * 1e3, 3), round(r["batch_s"] * 1e3, 3),
            round(r["run_s"] * 1e3, 3), round(r["handout_s"] * 1e3, 3),
            round(r["latency_s"] * 1e3, 3),
            round(r["engine_cost_s"] * 1e3, 3),
            how, "yes" if r["exact"] else "NO",
        ])
    if rows:
        title = "per-request waterfall (host ms; cost = modeled ms)"
        if len(reqs) > len(shown):
            title += f" — first {len(shown)} of {len(reqs)}"
        lines.append(format_table(
            ["req", "class", "queue", "batch", "run", "handout",
             "latency", "cost", "how", "exact"],
            rows, title=title,
        ))

    run_rows = []
    for r in analysis["runs"][:max_rows]:
        run_rows.append([
            r["run_id"], r["algorithm"], r["riders"],
            round(r["modeled_time_s"] * 1e3, 3),
            round(r["attributed_s"] * 1e3, 3),
            "yes" if r["attribution_exact"] else "NO",
        ])
    if run_rows:
        lines.append(format_table(
            ["run", "algorithm", "riders", "modeled_ms", "attributed_ms",
             "exact"],
            run_rows, title="engine runs and cost attribution",
        ))

    cls_rows = []
    for cls, c in analysis["classes"].items():
        cls_rows.append([
            cls, c["requests"], c["cache_hits"], c["fused"],
            round(c["engine_cost_s"] * 1e3, 3),
            round(100.0 * c["cost_share"], 1),
            round(c["latency_p50_s"] * 1e3, 3),
            round(c["latency_p95_s"] * 1e3, 3),
        ])
    if cls_rows:
        lines.append(format_table(
            ["class", "requests", "hits", "fused", "cost_ms", "cost %",
             "p50_ms", "p95_ms"],
            cls_rows, title="cost by query class",
        ))

    checks = []
    checks.append(
        "latency reconstruction: "
        + ("exact for every request" if t["latency_exact"]
           else "MISMATCH (see 'exact' column)")
    )
    checks.append(
        "cost attribution: "
        + ("shares sum bit-exactly to each run's modeled time"
           if t["attribution_exact"] else "MISMATCH (see runs table)")
    )
    lines.append("\n".join(checks))
    return "\n\n".join(lines)
