"""Pluggable trace sinks: in-memory, JSONL stream, Chrome trace_event.

A sink receives every completed tracer record (span / instant / counter /
run_meta dicts — see :mod:`repro.obs.tracer`) via :meth:`Sink.emit` and
is :meth:`Sink.close`-d with the run metadata once the engine finishes.

* :class:`InMemorySink` — zero-dependency default; the tracer itself
  also always keeps an in-memory copy, so this exists mainly as the
  reference implementation and for fan-out tests.
* :class:`JsonlSink` — streams one JSON object per line; the native
  round-trippable on-disk format (``repro analyze`` reads it back).
* :class:`ChromeTraceSink` — buffers records and writes a Chrome
  ``trace_event`` JSON on close, loadable in ``chrome://tracing`` or
  Perfetto (see :mod:`repro.obs.chrome`). An export only: no reader in
  this repo takes it back.

``export_trace`` writes a finished tracer's records post-hoc in either
format — the path the CLI's ``--trace-out``/``--trace-format`` takes.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional

from repro.obs.chrome import chrome_trace_document
from repro.obs.records import RecordWriter

__all__ = [
    "Sink",
    "InMemorySink",
    "JsonlSink",
    "ChromeTraceSink",
    "export_trace",
    "TRACE_FORMATS",
]

TRACE_FORMATS = ("jsonl", "chrome")


class Sink:
    """Interface: receives records as they complete, then a final close."""

    def emit(self, record: Dict[str, Any]) -> None:
        raise NotImplementedError

    def close(self, meta: Dict[str, Any]) -> None:  # noqa: B027 - optional hook
        pass


class InMemorySink(Sink):
    """Keep records in a list (the zero-dependency default)."""

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.meta: Optional[Dict[str, Any]] = None

    def emit(self, record: Dict[str, Any]) -> None:
        self.records.append(record)

    def close(self, meta: Dict[str, Any]) -> None:
        self.meta = meta


class JsonlSink(Sink):
    """Stream records to ``path``, one JSON object per line.

    The first line is a ``trace_header``; the tracer's final
    ``run_meta`` record (carrying the RunStats dump) arrives through the
    normal stream, so the file is self-describing.
    """

    def __init__(self, path: str) -> None:
        self._writer = RecordWriter(path, "run")
        self.path = self._writer.path

    def emit(self, record: Dict[str, Any]) -> None:
        self._writer.write(record)

    def close(self, meta: Dict[str, Any]) -> None:
        self._writer.close()


class ChromeTraceSink(Sink):
    """Buffer records; write a Chrome ``trace_event`` JSON on close."""

    def __init__(self, path: str) -> None:
        self.path = str(path)
        self._records: List[Dict[str, Any]] = []

    def emit(self, record: Dict[str, Any]) -> None:
        self._records.append(record)

    def close(self, meta: Dict[str, Any]) -> None:
        doc = chrome_trace_document(self._records, meta)
        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(self.path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


def export_trace(tracer, path: str, format: str = "jsonl") -> str:
    """Write a finished tracer's records to ``path`` in ``format``.

    Returns the path written. The tracer must have been ``finish()``-ed
    (engines do this in ``run()``); records already carry the final
    ``run_meta`` line.
    """
    if format not in TRACE_FORMATS:
        raise ValueError(
            f"unknown trace format {format!r}; known: {', '.join(TRACE_FORMATS)}"
        )
    if format == "chrome":
        sink: Sink = ChromeTraceSink(path)
    else:
        sink = JsonlSink(path)
    for record in tracer.records:
        sink.emit(record)
    sink.close(tracer.meta)
    return str(path)
