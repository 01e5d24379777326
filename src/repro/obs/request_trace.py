"""Request-scoped tracing for the resident serving stack.

A batch run has one trace; a serving workload has *requests* — many
small queries riding shared engine runs, caches, and batching windows.
This module gives each :meth:`repro.serve.GraphService.submit` a
:class:`RequestContext` (request id + the host timestamps of its four
service legs) and writes one **merged JSONL trace** joining the service
plane to the engine plane:

* per request, four service spans that tile submit-to-completion host
  time exactly — ``serve.queue`` (enqueue → dispatch), ``serve.batch``
  (dispatch → run start: canonicalization, cache lookup, fusion
  planning), ``serve.run`` (the engine run, zero-width on cache hits)
  and ``serve.serialize`` (run end → answer handed out) — under one
  ``serve.request`` root span carrying the request's outcome;
* per engine run, one ``serve.engine-run`` span whose children are the
  run's own :class:`~repro.obs.tracer.Tracer` records (span ids
  offset, top-level run spans re-parented, host clocks rebased onto
  the service epoch), so a served query's trace drills from its
  ``serve.run`` leg through ``run_id`` into superstep/phase/machine
  spans;
* **cost attribution**: a fused / single-flight run's modeled engine
  cost is split across the riding requests with :func:`split_cost`,
  whose shares sum *bit-exactly* back to the run's modeled time; cache
  hits record the ``(graph_version, engine, program, …)`` artifact key
  they hit and attribute zero engine cost.

Exactness contract: each leg span stores its width (``dur_s``) as the
float difference of the two ``perf_counter`` stamps that bound it, and
the root span stores ``latency_s`` as the left-to-right sum of the four
widths — the same expression :attr:`RequestContext.latency_s` computes
and :class:`~repro.serve.ServedResult` reports. JSON round-trips floats
exactly, so :func:`analyze_serve_trace` reproduces every request's
end-to-end latency bit-for-bit from its spans (``repro analyze`` on a
serve trace asserts it and prints the per-request waterfalls plus a
"cost by query class" table).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.records import RecordWriter
from repro.obs.tracer import SERVE as SERVE_CATEGORY

__all__ = [
    "RequestContext",
    "ServeTraceWriter",
    "split_cost",
    "analyze_serve_trace",
    "format_serve_analysis",
]

#: canonical order of a request's service legs; the waterfall sum and
#: ``RequestContext.latency_s`` both add widths in exactly this order
LEG_NAMES = ("serve.queue", "serve.batch", "serve.run", "serve.serialize")


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
    reproduces it exactly from the written spans.
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
    def serialize_s(self) -> float:
        return self.t_done - self.t_run1

    @property
    def latency_s(self) -> float:
        """Sum of the four leg widths, in canonical leg order."""
        return self.queue_s + self.batch_s + self.run_s + self.serialize_s

    def leg_widths(self) -> Dict[str, float]:
        return {
            "serve.queue": self.queue_s,
            "serve.batch": self.batch_s,
            "serve.run": self.run_s,
            "serve.serialize": self.serialize_s,
        }


class ServeTraceWriter:
    """Streams the merged service + engine trace as JSONL.

    Records use the tracer's span schema (``type``/``id``/``parent``/
    ``host_t0``/``host_t1``/``attrs``) under a ``serve``-profile trace
    header, so :func:`repro.obs.records.load_trace` reads the file as
    kind ``"serve"``; service spans carry ``cat: "serve"``. The writer
    is not thread-safe (span ids come from an unlocked counter): the
    service calls it under its own lock, from the dispatcher and from
    client threads answering cache hits.
    """

    def __init__(self, path: str) -> None:
        self._writer = RecordWriter(path, "serve")
        self.path = self._writer.path
        self._emit = self._writer.write
        self._next_id = 1
        self.epoch = time.perf_counter()

    def _span(
        self,
        name: str,
        t0: float,
        t1: float,
        parent: Optional[int] = None,
        dur_s: Optional[float] = None,
        **attrs: Any,
    ) -> int:
        """Emit one closed service span; returns its id.

        ``dur_s`` is the exact width (difference of the bounding
        ``perf_counter`` stamps); the epoch-relative ``host_t0/t1``
        fields place the span on the shared timeline but are *not* the
        exactness carrier — ``attrs["dur_s"]`` is.
        """
        span_id = self._next_id
        self._next_id += 1
        attrs["dur_s"] = dur_s if dur_s is not None else (t1 - t0)
        self._emit({
            "type": "span",
            "id": span_id,
            "parent": parent,
            "name": name,
            "cat": SERVE_CATEGORY,
            "host_t0": t0 - self.epoch,
            "host_t1": t1 - self.epoch,
            "model_t0": 0.0,
            "model_t1": 0.0,
            "charges": {},
            "attrs": attrs,
        })
        return span_id

    # ------------------------------------------------------------------
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
    ) -> int:
        """One ``serve.engine-run`` span + the run's merged engine spans.

        ``request_ids`` lists the riding requests in attribution order —
        the order their :func:`split_cost` shares were assigned, which
        is the order the analyzer re-sums them in.
        """
        attrs: Dict[str, Any] = {
            "run_id": run_id,
            "batch_id": batch_id,
            "algorithm": algorithm,
            "sources": list(sources),
            "request_ids": list(request_ids),
        }
        if result is not None:
            attrs["modeled_time_s"] = float(result.stats.modeled_time_s)
            attrs["engine"] = result.engine
            attrs["supersteps"] = int(result.stats.supersteps)
            attrs["converged"] = bool(result.stats.converged)
        if error is not None:
            attrs["error"] = error
        span_id = self._span("serve.engine-run", t_run0, t_run1, **attrs)
        if tracer is not None and getattr(tracer, "records", None):
            self._merge_engine_records(tracer, span_id, run_id)
        return span_id

    def _merge_engine_records(
        self, tracer: Any, parent_id: int, run_id: int
    ) -> None:
        """Re-emit one engine tracer's stream under an engine-run span.

        Span ids are offset into this writer's id space, top-level run
        spans re-parent to ``parent_id``, and host stamps rebase from
        the engine tracer's epoch onto the service epoch. Model-clock
        stamps pass through unchanged (each run's model clock starts at
        zero). The run's ``run_meta`` record is folded into a
        ``run-meta`` instant rather than a trace-level meta record so N
        runs in one file cannot clobber each other's stats.
        """
        offset = self._next_id
        shift = tracer.host_epoch - self.epoch
        max_id = 0
        for rec in tracer.records:
            rtype = rec.get("type")
            if rtype == "span":
                r = dict(rec)
                max_id = max(max_id, int(rec["id"]))
                r["id"] = int(rec["id"]) + offset
                r["parent"] = (
                    int(rec["parent"]) + offset
                    if rec.get("parent") is not None else parent_id
                )
                r["host_t0"] = rec["host_t0"] + shift
                r["host_t1"] = rec["host_t1"] + shift
                attrs = dict(r.get("attrs") or {})
                attrs["run_id"] = run_id
                r["attrs"] = attrs
                self._emit(r)
            elif rtype == "instant":
                r = dict(rec)
                if "host_t" in r:
                    r["host_t"] = rec["host_t"] + shift
                attrs = dict(r.get("attrs") or {})
                attrs["run_id"] = run_id
                r["attrs"] = attrs
                self._emit(r)
            elif rtype == "counter":
                self._emit(dict(rec))
            elif rtype == "run_meta":
                self._emit({
                    "type": "instant",
                    "name": "run-meta",
                    "host_t": tracer.host_epoch - self.epoch,
                    "model_t": 0.0,
                    "attrs": {"run_id": run_id, "meta": rec.get("meta") or {}},
                })
        self._next_id = offset + max_id + 1

    def record_request(self, ctx: RequestContext) -> int:
        """The four leg spans + the ``serve.request`` root for one request."""
        root_attrs: Dict[str, Any] = {
            "request_id": ctx.request_id,
            "algorithm": ctx.algorithm,
            "class": ctx.algorithm,
            "sources": list(ctx.sources),
            "sources_served": list(ctx.sources_served),
            "outcome": ctx.outcome,
            "cached": ctx.cached,
            "batched": ctx.batched,
            "batch_id": ctx.batch_id,
            "batch_size": ctx.batch_size,
            "run_id": ctx.run_id,
            "engine_cost_s": ctx.engine_cost_s,
            "latency_s": ctx.latency_s,
        }
        if ctx.cache_key is not None:
            root_attrs["cache_key"] = ctx.cache_key
        if ctx.error is not None:
            root_attrs["error"] = ctx.error
        root = self._span(
            "serve.request", ctx.t_enqueue, ctx.t_done, dur_s=ctx.latency_s,
            **root_attrs,
        )
        bounds = {
            "serve.queue": (ctx.t_enqueue, ctx.t_dispatch),
            "serve.batch": (ctx.t_dispatch, ctx.t_run0),
            "serve.run": (ctx.t_run0, ctx.t_run1),
            "serve.serialize": (ctx.t_run1, ctx.t_done),
        }
        widths = ctx.leg_widths()
        for name in LEG_NAMES:
            t0, t1 = bounds[name]
            self._span(
                name, t0, t1, parent=root, dur_s=widths[name],
                request_id=ctx.request_id, run_id=ctx.run_id,
            )
        return root

    def close(self, meta: Optional[Dict[str, Any]] = None) -> None:
        """Write the trailing ``run_meta`` (service stats) and close."""
        self._emit({
            "type": "run_meta", "meta": {"service": True, **(meta or {})},
        })
        self._writer.close()


# ----------------------------------------------------------------------
# Analysis (``repro analyze`` on a merged serve trace)
# ----------------------------------------------------------------------
def _quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[idx]


def analyze_serve_trace(trace: Any) -> Dict[str, Any]:
    """Per-request waterfalls + cost attribution from a merged serve trace.

    Returns a JSON-serializable dict:

    * ``requests`` — one row per request in request-id order: the four
      leg widths, ``latency_s`` (re-summed from the leg spans in
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
      (requests / runs a truncated file holds only part of; they are
      left out of everything above).
    """
    legs_by_parent: Dict[Any, Dict[str, Dict[str, Any]]] = {}
    roots: List[Dict[str, Any]] = []
    runs: List[Dict[str, Any]] = []
    for s in trace.spans:
        if s.get("cat") != SERVE_CATEGORY:
            continue
        name = s.get("name")
        if name == "serve.request":
            roots.append(s)
        elif name in LEG_NAMES:
            legs_by_parent.setdefault(s.get("parent"), {})[name] = s
        elif name == "serve.engine-run":
            runs.append(s)

    # a writer killed mid-record (load_trace drops the cut line) leaves
    # a request without its four legs or a run without all its riders;
    # those are counted, and the verdicts are over the complete ones
    cut_short = 0
    requests: List[Dict[str, Any]] = []
    for root in sorted(
        roots, key=lambda s: (s.get("attrs") or {}).get("request_id", 0)
    ):
        attrs = root.get("attrs") or {}
        legs = legs_by_parent.get(root.get("id"), {})
        if len(legs) < len(LEG_NAMES):
            cut_short += 1
            continue
        total = 0.0
        widths: Dict[str, float] = {}
        for name in LEG_NAMES:
            w = float((legs[name].get("attrs") or {}).get("dur_s", 0.0))
            widths[name] = w
            total = total + w
        reported = float(attrs.get("latency_s", 0.0))
        requests.append({
            "request_id": attrs.get("request_id"),
            "class": attrs.get("class", attrs.get("algorithm", "?")),
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
            "queue_s": widths["serve.queue"],
            "batch_s": widths["serve.batch"],
            "run_s": widths["serve.run"],
            "serialize_s": widths["serve.serialize"],
            "latency_s": total,
            "reported_latency_s": reported,
            "exact": total == reported,
        })

    # per-run attribution conservation, re-summed in attribution order
    req_by_id = {r["request_id"]: r for r in requests}
    run_rows: List[Dict[str, Any]] = []
    total_run_cost = 0.0
    for run in sorted(
        runs, key=lambda s: (s.get("attrs") or {}).get("run_id", 0)
    ):
        attrs = run.get("attrs") or {}
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
            "host_s": float((attrs or {}).get("dur_s", 0.0)),
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
            "latency_p50_s": _quantile(lat, 0.50),
            "latency_p95_s": _quantile(lat, 0.95),
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
            round(r["run_s"] * 1e3, 3), round(r["serialize_s"] * 1e3, 3),
            round(r["latency_s"] * 1e3, 3),
            round(r["engine_cost_s"] * 1e3, 3),
            how, "yes" if r["exact"] else "NO",
        ])
    if rows:
        title = "per-request waterfall (host ms; cost = modeled ms)"
        if len(reqs) > len(shown):
            title += f" — first {len(shown)} of {len(reqs)}"
        lines.append(format_table(
            ["req", "class", "queue", "batch", "run", "serialize",
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
