"""Service telemetry plane: rolling health samples for `GraphService`.

Request traces (:mod:`repro.obs.request_trace`) answer "why was *this*
query slow"; this module answers "is the service healthy *now*". A
:class:`TelemetrySink` attached to a running service samples its state
on a background ticker — queue depth, in-flight requests, LRU cache
size and hit rate, per-class latency quantiles over a sliding window,
and :class:`~repro.runtime.process_backend.WorkerPool` liveness /
last-op-age heartbeats — and appends one JSON line per tick to an
append-only ``service.telemetry.jsonl``.

The file format is versioned: line one is a ``telemetry_header`` record
(``format: "repro-telemetry"``, ``version: 1``); every subsequent line
is a ``telemetry`` tick. Consumers: ``repro top`` (live/one-shot text
view, :func:`format_top`), ``repro slo`` (threshold gate,
:func:`check_slo`, non-zero exit on violation), ``repro report`` (the
"service" section via :func:`summarize_telemetry`) and the HTML
dashboard's serving panel.

Neutrality contract: the sink only *reads* service state (plus its own
per-class windows fed from ``observe``) — it never touches the
service's ``MetricsRegistry``, so ``serve.*`` counters and served
answers are bit-identical with telemetry on or off.
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import deque
from typing import Any, Dict, Iterable, List, Optional, TextIO

__all__ = [
    "TelemetrySink",
    "load_telemetry",
    "summarize_telemetry",
    "check_slo",
    "format_top",
    "format_service_report",
    "iter_follow",
    "is_telemetry_file",
    "TELEMETRY_FORMAT",
    "TELEMETRY_VERSION",
]

TELEMETRY_FORMAT = "repro-telemetry"
TELEMETRY_VERSION = 1

#: latency quantiles reported per sliding window
WINDOW_QUANTILES = (0.50, 0.95, 0.99)


def _window_quantile(sorted_values: List[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    idx = min(int(q * len(sorted_values)), len(sorted_values) - 1)
    return sorted_values[idx]


class _ClassWindow:
    """Sliding window of (monotonic time, latency, cached) per class."""

    def __init__(self, window_s: float) -> None:
        self.window_s = window_s
        self._events: deque = deque()

    def observe(self, now: float, latency_s: float, cached: bool) -> None:
        self._events.append((now, latency_s, cached))
        self._trim(now)

    def _trim(self, now: float) -> None:
        horizon = now - self.window_s
        ev = self._events
        while ev and ev[0][0] < horizon:
            ev.popleft()

    def snapshot(self, now: float) -> Dict[str, Any]:
        self._trim(now)
        lats = sorted(e[1] for e in self._events)
        hits = sum(1 for e in self._events if e[2])
        n = len(self._events)
        out: Dict[str, Any] = {
            "count": n,
            "cache_hits": hits,
            "hit_rate": hits / n if n else 0.0,
        }
        for q in WINDOW_QUANTILES:
            out[f"p{int(q * 100)}_ms"] = _window_quantile(lats, q) * 1e3
        return out


class TelemetrySink:
    """Background ticker appending service health samples as JSONL.

    ``service`` must expose ``telemetry_snapshot()`` (see
    :meth:`repro.serve.GraphService.telemetry_snapshot`); the service
    calls :meth:`observe` as each request finishes to feed the
    per-class sliding windows. Thread-safe; the ticker is a daemon
    thread so a wedged service can't block interpreter exit.
    """

    def __init__(
        self,
        service: Any,
        path: str,
        interval_s: float = 1.0,
        window_s: float = 60.0,
    ) -> None:
        self.service = service
        self.path = str(path)
        self.interval_s = max(float(interval_s), 0.01)
        self.window_s = float(window_s)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh: Optional[TextIO] = open(self.path, "w", encoding="utf-8")
        self._lock = threading.Lock()
        self._windows: Dict[str, _ClassWindow] = {}
        self._seq = 0
        self._t0 = time.monotonic()
        self._stop = threading.Event()
        self._write({
            "type": "telemetry_header",
            "format": TELEMETRY_FORMAT,
            "version": TELEMETRY_VERSION,
            "interval_s": self.interval_s,
            "window_s": self.window_s,
            "t_start_unix": time.time(),
        })
        self._thread = threading.Thread(
            target=self._ticker, name="repro-telemetry", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
    def _write(self, obj: Dict[str, Any]) -> None:
        fh = self._fh
        if fh is None:
            return
        fh.write(json.dumps(obj, sort_keys=True) + "\n")
        fh.flush()

    def observe(self, query_class: str, latency_s: float, cached: bool) -> None:
        """Feed one finished request into the sliding windows."""
        now = time.monotonic()
        with self._lock:
            for key in (query_class, "_all"):
                win = self._windows.get(key)
                if win is None:
                    win = self._windows[key] = _ClassWindow(self.window_s)
                win.observe(now, latency_s, cached)

    def _ticker(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.tick()

    def tick(self) -> Dict[str, Any]:
        """Sample the service and append one telemetry line."""
        now = time.monotonic()
        try:
            snap = self.service.telemetry_snapshot()
        except Exception as exc:  # service mid-close; keep the ticker alive
            snap = {"error": repr(exc)}
        with self._lock:
            classes = {
                name: win.snapshot(now)
                for name, win in sorted(self._windows.items())
            }
            record: Dict[str, Any] = {
                "type": "telemetry",
                "seq": self._seq,
                "t_wall": time.time(),
                "uptime_s": now - self._t0,
                "window_s": self.window_s,
                "classes": classes,
            }
            record.update(snap)
            self._seq += 1
            self._write(record)
        return record

    def close(self) -> None:
        """Stop the ticker, write one final tick, close the file."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.tick()
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# File consumers (``repro top`` / ``repro slo`` / ``repro report``)
# ----------------------------------------------------------------------
def is_telemetry_file(path: str) -> bool:
    """Sniff whether ``path`` is a service telemetry JSONL file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            first = fh.readline().strip()
        if not first:
            return False
        rec = json.loads(first)
    except (OSError, ValueError):
        return False
    return (
        isinstance(rec, dict)
        and rec.get("type") == "telemetry_header"
        and rec.get("format") == TELEMETRY_FORMAT
    )


def load_telemetry(path: str) -> Dict[str, Any]:
    """Load a telemetry file -> ``{"header": ..., "ticks": [...]}``.

    Unknown record types are ignored (forward compatibility); a
    truncated trailing line (sink killed mid-write) is dropped.
    """
    header: Dict[str, Any] = {}
    ticks: List[Dict[str, Any]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            rtype = rec.get("type")
            if rtype == "telemetry_header":
                header = rec
            elif rtype == "telemetry":
                ticks.append(rec)
    if header.get("format") not in (None, TELEMETRY_FORMAT):
        raise ValueError(f"not a telemetry file: {path}")
    return {"header": header, "ticks": ticks}


def summarize_telemetry(data: Dict[str, Any]) -> Dict[str, Any]:
    """Aggregate a telemetry stream for the report "service" section."""
    ticks = data.get("ticks") or []
    if not ticks:
        return {"ticks": 0}
    last = ticks[-1]
    queue_depths = [t.get("queue_depth", 0) for t in ticks]
    counters = last.get("counters") or {}
    latency = last.get("latency") or {}
    summary: Dict[str, Any] = {
        "ticks": len(ticks),
        "uptime_s": last.get("uptime_s", 0.0),
        "interval_s": (data.get("header") or {}).get("interval_s"),
        "queue_depth_last": last.get("queue_depth", 0),
        "queue_depth_max": max(queue_depths) if queue_depths else 0,
        "inflight_last": last.get("inflight", 0),
        "cache": last.get("cache") or {},
        "counters": counters,
        "hit_rate": last.get("hit_rate", 0.0),
        "latency": latency,
        "classes": last.get("classes") or {},
        "pool": last.get("pool"),
        "session": last.get("session") or {},
    }
    return summary


def check_slo(
    data: Dict[str, Any],
    p95_ms: Optional[float] = None,
    min_hit_rate: Optional[float] = None,
    max_queue_depth: Optional[int] = None,
) -> List[str]:
    """Evaluate SLO thresholds; returns violation messages (empty = pass).

    ``p95_ms`` gates the *cumulative* service p95 from the final tick's
    latency histogram export (the stable whole-workload number, not a
    sliding window that may be empty by shutdown); ``min_hit_rate``
    gates the final cumulative cache hit rate; ``max_queue_depth``
    gates the maximum sampled queue depth over all ticks.
    """
    ticks = data.get("ticks") or []
    if not ticks:
        return ["no telemetry ticks in file"]
    last = ticks[-1]
    violations: List[str] = []
    if p95_ms is not None:
        latency = last.get("latency") or {}
        got_ms = float(latency.get("p95", 0.0)) * 1e3
        if got_ms > p95_ms:
            violations.append(
                f"p95 latency {got_ms:.3f} ms > threshold {p95_ms:.3f} ms"
            )
    if min_hit_rate is not None:
        got = float(last.get("hit_rate", 0.0))
        if got < min_hit_rate:
            violations.append(
                f"cache hit rate {got:.3f} < threshold {min_hit_rate:.3f}"
            )
    if max_queue_depth is not None:
        got_q = max(int(t.get("queue_depth", 0)) for t in ticks)
        if got_q > max_queue_depth:
            violations.append(
                f"max queue depth {got_q} > threshold {max_queue_depth}"
            )
    return violations


def _fmt_count(value: Any) -> str:
    """Counters are stored as floats; integral ones print as integers."""
    value = float(value)
    return str(int(value)) if value.is_integer() else f"{value:g}"


def format_service_report(summary: Dict[str, Any]) -> str:
    """Render :func:`summarize_telemetry` output as the report "service"
    section (``repro report service.telemetry.jsonl``)."""
    from repro.bench.reporting import format_table

    if not summary.get("ticks"):
        return "service telemetry: no ticks recorded"
    lines: List[str] = []
    lines.append(
        f"service telemetry — {summary['ticks']} ticks over "
        f"{summary.get('uptime_s', 0.0):.1f}s "
        f"(interval {summary.get('interval_s')}s)"
    )
    counters = summary.get("counters") or {}
    rows = [[k, _fmt_count(v)] for k, v in sorted(counters.items())]
    rows.append(["serve.cache_hit_rate", f"{summary.get('hit_rate', 0.0):.3f}"])
    cache = summary.get("cache") or {}
    rows.append([
        "cache entries",
        f"{cache.get('entries', 0)}/{cache.get('capacity', 0)}",
    ])
    rows.append(["queue depth (last/max)",
                 f"{summary.get('queue_depth_last', 0)}"
                 f"/{summary.get('queue_depth_max', 0)}"])
    lines.append(format_table(["counter", "value"], rows, title="service"))
    latency = summary.get("latency") or {}
    if latency.get("count"):
        lrows = [
            [k, round(float(latency[k]) * 1e3, 3)]
            for k in ("p50", "p95", "p99", "mean", "min", "max")
            if k in latency
        ]
        lrows.append(["count", int(latency.get("count", 0))])
        lines.append(format_table(
            ["quantile", "ms"], lrows, title="latency (cumulative)"
        ))
    classes = summary.get("classes") or {}
    crows = [
        [name, c.get("count", 0), f"{c.get('hit_rate', 0.0):.2f}",
         round(c.get("p50_ms", 0.0), 3), round(c.get("p95_ms", 0.0), 3)]
        for name, c in classes.items()
    ]
    if crows:
        lines.append(format_table(
            ["class", "count", "hit", "p50_ms", "p95_ms"],
            crows, title="final sliding window",
        ))
    pool = summary.get("pool")
    if pool:
        age = pool.get("last_op_age_s")
        lines.append(
            f"worker pool: {pool.get('spawned', 0)} spawned, "
            f"{pool.get('idle', 0)} idle, "
            f"{pool.get('ops_dispatched', 0)} ops dispatched, last op "
            + (f"{age:.1f}s before the final tick" if age is not None
               else "never")
        )
    return "\n\n".join(lines)


def format_top(tick: Dict[str, Any], header: Optional[Dict] = None) -> str:
    """Render one telemetry tick as the ``repro top`` text panel."""
    from repro.bench.reporting import format_table

    lines: List[str] = []
    uptime = tick.get("uptime_s", 0.0)
    counters = tick.get("counters") or {}
    lines.append(
        f"repro top — seq {tick.get('seq', '?')}  uptime {uptime:.1f}s  "
        f"queue {tick.get('queue_depth', 0)}  "
        f"inflight {tick.get('inflight', 0)}"
    )
    cache = tick.get("cache") or {}
    lines.append(
        f"queries {_fmt_count(counters.get('serve.queries', 0))}  "
        f"runs {_fmt_count(counters.get('serve.runs', 0))}  "
        f"batches {_fmt_count(counters.get('serve.batches', 0))}  "
        f"fused {_fmt_count(counters.get('serve.fused_queries', 0))}  "
        f"cache {cache.get('entries', 0)}/{cache.get('capacity', 0)} "
        f"(hit rate {tick.get('hit_rate', 0.0):.2f})"
    )
    latency = tick.get("latency") or {}
    if latency.get("count"):
        lines.append(
            "latency (cumulative): "
            f"p50 {latency.get('p50', 0.0) * 1e3:.3f} ms  "
            f"p95 {latency.get('p95', 0.0) * 1e3:.3f} ms  "
            f"p99 {latency.get('p99', 0.0) * 1e3:.3f} ms  "
            f"n={_fmt_count(latency.get('count', 0))}"
        )
    classes = tick.get("classes") or {}
    rows = []
    for name, c in classes.items():
        rows.append([
            name, c.get("count", 0), f"{c.get('hit_rate', 0.0):.2f}",
            round(c.get("p50_ms", 0.0), 3), round(c.get("p95_ms", 0.0), 3),
            round(c.get("p99_ms", 0.0), 3),
        ])
    if rows:
        win = tick.get("window_s", 0)
        lines.append(format_table(
            ["class", "count", "hit", "p50_ms", "p95_ms", "p99_ms"],
            rows, title=f"sliding window ({win:.0f}s)",
        ))
    pool = tick.get("pool")
    if pool:
        age = pool.get("last_op_age_s")
        age_s = f"{age:.1f}s ago" if age is not None else "never"
        lines.append(
            f"worker pool: {pool.get('spawned', 0)} spawned, "
            f"{pool.get('idle', 0)} idle, "
            f"{pool.get('ops_dispatched', 0)} ops, last op {age_s}"
        )
    else:
        lines.append("worker pool: not spawned (serial backend)")
    sess = tick.get("session") or {}
    if sess:
        lines.append(
            f"session: graph v{sess.get('graph_version', '?')}, "
            f"{sess.get('runs_completed', 0)} runs, "
            f"{sess.get('prepared_graphs', 0)} prepared graphs, "
            f"{sess.get('plans', 0)} plan sets"
        )
    return "\n".join(lines)


def iter_follow(
    path: str, poll_s: float = 0.5, stop: Optional[threading.Event] = None
) -> Iterable[Dict[str, Any]]:
    """Yield telemetry ticks from a growing file (``repro top --follow``).

    Tails the file forever (until ``stop`` is set or the reader is
    interrupted); partial trailing lines are retried on the next poll.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buf = ""
        while stop is None or not stop.is_set():
            chunk = fh.readline()
            if not chunk:
                time.sleep(poll_s)
                continue
            buf += chunk
            if not buf.endswith("\n"):
                continue
            line, buf = buf.strip(), ""
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if rec.get("type") == "telemetry":
                yield rec
