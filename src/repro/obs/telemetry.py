"""Service telemetry plane: rolling health samples for `GraphService`.

Request traces (:mod:`repro.obs.request_trace`) answer "why was *this*
query slow"; this module answers "is the service healthy *now*". A
:class:`TelemetrySink` attached to a running service samples its state
on a background ticker — queue depth, in-flight requests, LRU cache
size and hit rate, per-class latency quantiles over a sliding window —
and appends one ``telemetry`` record per tick to an append-only
``service.telemetry.jsonl`` (a ``telemetry``-kind file of
:mod:`repro.obs.records`, which owns the format and reads it back).

The reading side is one view and one rendering: :func:`service_sample`
reduces either service-bearing file — a telemetry file's last tick, or
the ``serve.*`` counters a serve trace records at close — to one dict,
:func:`format_service` prints it (``repro analyze``, one-shot or per
tick under ``--follow``), and :func:`check_slo` gates a telemetry file
against thresholds.

Neutrality contract: the sink only *reads* service state (plus its own
per-class windows fed from ``observe``) — it never touches the
service's ``MetricsRegistry``, so ``serve.*`` counters and served
answers are bit-identical with telemetry on or off.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Any, Dict, List, Optional

from repro.obs.metrics import nearest_rank
from repro.obs.records import RecordWriter, TraceData

__all__ = [
    "TelemetrySink",
    "service_sample",
    "format_service",
    "check_slo",
]

#: latency quantiles reported per sliding window
WINDOW_QUANTILES = (0.50, 0.95, 0.99)


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
            out[f"p{int(q * 100)}_ms"] = nearest_rank(lats, q) * 1e3
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
        self._lock = threading.Lock()
        self._windows: Dict[str, _ClassWindow] = {}
        self._seq = 0
        self._t0 = time.monotonic()
        self._stop = threading.Event()
        # flushed per tick: a tailing `analyze --follow` sees each one
        self._writer = RecordWriter(
            self.path, "telemetry", flush=True,
            interval_s=self.interval_s, window_s=self.window_s,
            t_start_unix=time.time(),
        )
        self._thread = threading.Thread(
            target=self._ticker, name="repro-telemetry", daemon=True
        )
        self._thread.start()

    # ------------------------------------------------------------------
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
            self._writer.write(record)
        return record

    def close(self) -> None:
        """Stop the ticker, write one final tick, close the file."""
        if self._stop.is_set():
            return
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.tick()
        self._writer.close()

    def __enter__(self) -> "TelemetrySink":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# Reading side (``repro analyze`` on a telemetry file or a serve trace)
# ----------------------------------------------------------------------
def service_sample(trace: TraceData) -> Dict[str, Any]:
    """The one service view both service-bearing file kinds reduce to.

    A telemetry file gives its last tick plus three file-level fields
    (``ticks``, ``interval_s``, ``queue_depth_max``); a serve trace
    gives the ``serve.*`` counters / latency histogram / hit rate its
    closing ``run_meta`` recorded, in the same ``counters`` /
    ``latency`` / ``hit_rate`` slots. Empty when there is nothing to
    show (no tick yet, no service stats).
    """
    if trace.kind == "telemetry":
        if not trace.ticks:
            return {}
        return {
            **trace.ticks[-1],
            "ticks": len(trace.ticks),
            "interval_s": trace.meta.get("interval_s"),
            "queue_depth_max": max(
                int(t.get("queue_depth", 0)) for t in trace.ticks
            ),
        }
    stats = trace.meta.get("service_stats") or {}
    if not stats:
        return {}
    return {
        "counters": {
            k: v for k, v in stats.items()
            if not isinstance(v, dict) and k != "serve.cache_hit_rate"
        },
        "latency": stats.get("serve.latency_s") or {},
        "hit_rate": stats.get("serve.cache_hit_rate", 0.0),
    }


def check_slo(
    trace: TraceData,
    p95_ms: Optional[float] = None,
    min_hit_rate: Optional[float] = None,
    max_queue_depth: Optional[int] = None,
) -> List[str]:
    """Evaluate SLO thresholds over a telemetry file's ticks; returns
    violation messages (empty = pass).

    ``p95_ms`` gates the *cumulative* service p95 from the final tick's
    latency histogram export (the stable whole-workload number, not a
    sliding window that may be empty by shutdown); ``min_hit_rate``
    gates the final cumulative cache hit rate; ``max_queue_depth``
    gates the maximum sampled queue depth over all ticks.
    """
    sample = service_sample(trace)
    if not sample:
        return ["no telemetry ticks in file"]
    violations: List[str] = []
    if p95_ms is not None:
        got_ms = float((sample.get("latency") or {}).get("p95", 0.0)) * 1e3
        if got_ms > p95_ms:
            violations.append(
                f"p95 latency {got_ms:.3f} ms > threshold {p95_ms:.3f} ms"
            )
    if min_hit_rate is not None:
        got = float(sample.get("hit_rate", 0.0))
        if got < min_hit_rate:
            violations.append(
                f"cache hit rate {got:.3f} < threshold {min_hit_rate:.3f}"
            )
    if max_queue_depth is not None:
        got_q = sample["queue_depth_max"]
        if got_q > max_queue_depth:
            violations.append(
                f"max queue depth {got_q} > threshold {max_queue_depth}"
            )
    return violations


def _fmt_count(value: Any) -> str:
    """Counters are stored as floats; integral ones print as integers."""
    value = float(value)
    return str(int(value)) if value.is_integer() else f"{value:g}"


def format_service(sample: Dict[str, Any]) -> str:
    """Render one service view — a :func:`service_sample`, or a single
    telemetry tick under ``analyze --follow`` — as text.

    Sections that need fields only a telemetry tick carries (queue,
    sliding windows, session) are left out for a serve trace's closing
    counters. A ``"pool"`` key (ticks written while there was a process
    backend) is ignored.
    """
    from repro.bench.reporting import format_table

    if not sample:
        return "service: nothing recorded (no telemetry tick, no service stats)"
    counters = sample.get("counters") or {}
    lines: List[str] = []
    if "seq" in sample:
        head = (
            f"service telemetry — seq {sample['seq']}  "
            f"uptime {sample.get('uptime_s', 0.0):.1f}s  "
            f"queue {sample.get('queue_depth', 0)}  "
            f"inflight {sample.get('inflight', 0)}"
        )
        if "ticks" in sample:
            head += (
                f"\n{sample['ticks']} ticks (interval "
                f"{sample.get('interval_s')}s), max queue depth "
                f"{sample['queue_depth_max']}"
            )
        lines.append(head)
    else:
        lines.append("service — serve.* counters at close")
    digest = "  ".join(
        f"{label} {_fmt_count(counters.get(f'serve.{key}', 0))}"
        for label, key in (
            ("queries", "queries"), ("runs", "runs"),
            ("batches", "batches"), ("fused", "fused_queries"),
        )
    )
    cache = sample.get("cache")
    if cache is not None:
        digest += f"  cache {cache.get('entries', 0)}/{cache.get('capacity', 0)}"
    lines.append(f"{digest}  (hit rate {sample.get('hit_rate', 0.0):.2f})")
    latency = sample.get("latency") or {}
    if latency.get("count"):
        lines.append(
            "latency (cumulative): "
            + "  ".join(
                f"{q} {float(latency[q]) * 1e3:.3f} ms"
                for q in ("p50", "p95", "p99", "mean", "min", "max")
                if q in latency
            )
            + f"  n={_fmt_count(latency['count'])}"
        )
    text = ["\n".join(lines)]
    if counters:
        text.append(format_table(
            ["counter", "value"],
            [[k, _fmt_count(v)] for k, v in sorted(counters.items())],
            title="serve.* counters",
        ))
    rows = [
        [name, c.get("count", 0), f"{c.get('hit_rate', 0.0):.2f}",
         round(c.get("p50_ms", 0.0), 3), round(c.get("p95_ms", 0.0), 3),
         round(c.get("p99_ms", 0.0), 3)]
        for name, c in (sample.get("classes") or {}).items()
    ]
    if rows:
        text.append(format_table(
            ["class", "count", "hit", "p50_ms", "p95_ms", "p99_ms"],
            rows, title=f"sliding window ({sample.get('window_s', 0):.0f}s)",
        ))
    tail: List[str] = []
    sess = sample.get("session") or {}
    if sess:
        tail.append(
            f"session: graph v{sess.get('graph_version', '?')}, "
            f"{sess.get('runs_completed', 0)} runs, "
            f"{sess.get('prepared_graphs', 0)} prepared graphs, "
            f"{sess.get('plans', 0)} plan sets"
        )
    if tail:
        text.append("\n".join(tail))
    return "\n\n".join(text)
