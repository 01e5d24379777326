"""The observability file format: one writer, one loader.

Everything the repo records about a run or a service is a JSONL file of
one of four *kinds*, and this module is the only place that knows how
such a file is laid out on disk:

========== ===================================== =======================
kind       written by                            first line
========== ===================================== =======================
run        ``run --trace-out``                   ``trace_header``
           (``export_trace``)
serve      ``serve --trace-out``                 ``trace_header`` with
           (``ServeTraceWriter``)                ``profile: "serve"``
telemetry  ``serve --telemetry-out``             ``telemetry_header``
           (``TelemetrySink``)
mutations  ``mutate --out``                      none: every record
                                                 carries ``"event"``
========== ===================================== =======================

:func:`export_trace` can also write a run trace as a Chrome
``trace_event`` document (:mod:`repro.obs.chrome`): an export for
Perfetto, which no reader here takes back.

Record types after the header: ``span`` / ``instant`` / ``run_meta``
(run and serve traces — see :mod:`repro.obs.tracer`), ``telemetry``
(one tick) and ``{"event": "apply" | "run", ...}`` (mutation streams).
``counter`` is a type only older run and serve traces contain (their
``active_vertices`` samples; today ``active`` is an attribute of the
``superstep`` span): it still loads, into :attr:`TraceData.counters`,
and no reader uses it. Unknown record types inside a recognised file
are skipped, so a newer writer's extra records do not break an older
reader.

Damage policy, the same for every kind: a truncated *final* line (a
writer killed mid-write) is dropped with one ``path:line`` note on
stderr; a malformed *interior* line raises :class:`ValueError` naming
``path:line``. A file whose first record names no kind — or a Chrome
``trace_event`` document, which is an export, not an input — is
refused with :class:`ValueError` rather than read as an empty trace.

A new record kind is added here (writer header, :meth:`TraceData.add`,
:func:`_kind_of`) and as a section of ``repro analyze`` — nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.obs.chrome import write_chrome_trace

__all__ = [
    "KINDS",
    "TELEMETRY_FORMAT",
    "TRACE_FORMAT",
    "TRACE_FORMATS",
    "FORMAT_VERSION",
    "RecordWriter",
    "TraceData",
    "encode",
    "export_trace",
    "iter_follow",
    "load_trace",
    "trace_from_tracer",
]

KINDS = ("run", "serve", "telemetry", "mutations")
#: what ``export_trace`` writes a run trace as (``chrome``: an export only)
TRACE_FORMATS = ("jsonl", "chrome")

TRACE_FORMAT = "repro-trace"
TELEMETRY_FORMAT = "repro-telemetry"
FORMAT_VERSION = 1

_TRACE_HEADER = {
    "type": "trace_header", "format": TRACE_FORMAT, "version": FORMAT_VERSION,
}
#: the header line each kind's file starts with (``None``: no header)
_HEADERS: Dict[str, Optional[Dict[str, Any]]] = {
    "run": _TRACE_HEADER,
    "serve": {**_TRACE_HEADER, "profile": "serve"},
    "telemetry": {
        "type": "telemetry_header", "format": TELEMETRY_FORMAT,
        "version": FORMAT_VERSION,
    },
    "mutations": None,
}

#: record ``type`` → the :class:`TraceData` list that collects it
_LISTS = {
    "span": "spans",
    "instant": "instants",
    "counter": "counters",
    "telemetry": "ticks",
}


def encode(record: Dict[str, Any]) -> str:
    """One record as its on-disk line (without the newline)."""
    return json.dumps(record, sort_keys=True)


class RecordWriter:
    """Append records to one observability file of a given ``kind``.

    Creates the parent directory, writes the kind's header line (plus
    ``header_fields``), then one :func:`encode`-d line per
    :meth:`write`. ``flush=True`` makes every record visible to a
    tailing reader at once (telemetry); traces leave buffering to the
    file object. Writes and :meth:`close` are serialised by a lock;
    ``close`` is idempotent and a write after it is dropped — a service
    closes its sinks while its dispatcher may still be finishing a
    request.
    """

    def __init__(
        self, path: str, kind: str, flush: bool = False, **header_fields: Any
    ) -> None:
        self.path = str(path)
        self._flush = flush
        self._lock = threading.Lock()
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(self.path, "w", encoding="utf-8")
        header = _HEADERS[kind]
        if header is not None:
            self.write({**header, **header_fields})

    def write(self, record: Dict[str, Any]) -> None:
        line = encode(record) + "\n"
        with self._lock:
            if self._fh.closed:
                return
            self._fh.write(line)
            if self._flush:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            self._fh.close()


def export_trace(tracer: Any, path: str, format: str = "jsonl") -> str:
    """Write a tracer's records to ``path`` in ``format``; return the path.

    The one run-trace writer (``run --trace-out``, ``trace_out=``). A
    finished tracer's records end with the ``run_meta`` line; a tracer
    whose run raised is written as far as it got (the spans that
    closed, no ``run_meta``).
    """
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r}; known: {', '.join(TRACE_FORMATS)}"
        )
    if format == "chrome":
        write_chrome_trace(str(path), tracer.records, tracer.meta)
    else:
        writer = RecordWriter(path, "run")
        try:
            for record in tracer.records:
                writer.write(record)
        finally:
            writer.close()
    return str(path)


@dataclass
class TraceData:
    """Normalized in-memory view of one observability file.

    ``kind`` says which lists are populated: ``spans`` / ``instants`` +
    ``meta`` (the ``run_meta`` record) for ``run`` and ``serve`` traces
    (plus ``counters`` for a file from an older writer), ``ticks`` +
    ``meta`` (the header: ``interval_s``, ``window_s``, …) for
    ``telemetry``, ``events`` for ``mutations``.
    """

    spans: List[Dict[str, Any]] = field(default_factory=list)
    instants: List[Dict[str, Any]] = field(default_factory=list)
    counters: List[Dict[str, Any]] = field(default_factory=list)
    meta: Dict[str, Any] = field(default_factory=dict)
    kind: str = "run"
    ticks: List[Dict[str, Any]] = field(default_factory=list)
    events: List[Dict[str, Any]] = field(default_factory=list)

    @property
    def stats(self) -> Dict[str, Any]:
        return self.meta.get("stats", {})

    def phase_spans(self) -> List[Dict[str, Any]]:
        return [s for s in self.spans if s.get("cat") == "phase"]

    def add(self, record: Dict[str, Any]) -> None:
        """File one record under its type (unknown types are skipped)."""
        rtype = record.get("type")
        if rtype in _LISTS:
            getattr(self, _LISTS[rtype]).append(record)
        elif rtype == "run_meta":
            self.meta.update(record.get("meta") or {})
        elif rtype == "telemetry_header":
            self.meta.update(record)
        elif "event" in record:
            self.events.append(record)


def trace_from_tracer(tracer: Any) -> TraceData:
    """Normalize a finished in-memory :class:`Tracer` into a TraceData.

    The same view ``load_trace`` produces from a JSONL file — the
    round-trip tests assert the two agree — so reports, audits and the
    critical-path analysis run identically on live runs and saved traces.
    """
    trace = TraceData()
    for record in tracer.records:
        trace.add(record)
    if not trace.meta:
        trace.meta.update(tracer.meta)
    return trace


def _kind_of(first: Dict[str, Any], path: str) -> str:
    """The file's kind, from its first record."""
    rtype = first.get("type")
    if rtype == "telemetry_header" and first.get("format") == TELEMETRY_FORMAT:
        return "telemetry"
    if rtype == "trace_header" and first.get("format") == TRACE_FORMAT:
        return "serve" if first.get("profile") == "serve" else "run"
    if "event" in first:
        return "mutations"
    if rtype in ("span", "instant", "counter", "run_meta"):
        return "run"  # a headerless trace: the record types are enough
    if rtype == "telemetry":
        return "telemetry"
    raise ValueError(
        f"{path}: not a repro observability file (first record is neither "
        f"a known header nor a known record type; expected one of "
        f"{' / '.join(KINDS)})"
    )


def _parse(line: str, path: str, lineno: int) -> Dict[str, Any]:
    try:
        record = json.loads(line)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: malformed record: {exc}") from None
    if not isinstance(record, dict):
        raise ValueError(f"{path}:{lineno}: record is not a JSON object")
    return record


def load_trace(path: str) -> TraceData:
    """Read one observability file of any kind (see the module docstring)."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if '"traceEvents"' in text[:4096]:
        raise ValueError(
            f"{path}: a Chrome trace_event document is an export, not an "
            f"input; write the trace again with --trace-format jsonl"
        )
    lines = text.rstrip().splitlines()
    trace: Optional[TraceData] = None
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            record = _parse(line, path, lineno)
        except ValueError as exc:
            if lineno < len(lines) or text.endswith("\n"):
                raise
            print(f"{exc} (truncated final line dropped)", file=sys.stderr)
            break
        if trace is None:
            trace = TraceData(kind=_kind_of(record, path))
        trace.add(record)
    if trace is None:
        raise ValueError(f"{path}: empty trace file")
    return trace


def iter_follow(
    path: str, poll_s: float = 0.5, stop: Optional[threading.Event] = None
) -> Iterator[Dict[str, Any]]:
    """Yield telemetry ticks from a growing file (``analyze --follow``).

    Tails the file forever (until ``stop`` is set or the reader is
    interrupted); a partial trailing line is retried on the next poll,
    a complete line that does not parse is malformed as in
    :func:`load_trace`.
    """
    with open(path, "r", encoding="utf-8") as fh:
        buf = ""
        lineno = 0
        while stop is None or not stop.is_set():
            chunk = fh.readline()
            if not chunk:
                time.sleep(poll_s)
                continue
            buf += chunk
            if not buf.endswith("\n"):
                continue
            line, buf = buf.strip(), ""
            lineno += 1
            if line:
                record = _parse(line, path, lineno)
                if record.get("type") == "telemetry":
                    yield record
