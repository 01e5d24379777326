"""Chrome ``trace_event`` export — open a lazy run in Perfetto.

Produces the JSON object format of the Trace Event spec:
``{"traceEvents": [...], "displayTimeUnit": "ms", "otherData": {...}}``,
loadable in ``chrome://tracing`` and https://ui.perfetto.dev.

Mapping
-------
* **pid 0 — "cluster (modeled time)"**: superstep/phase/exchange spans
  as complete (``"X"``) events whose timestamps are the *modeled*
  cluster clock in microseconds. Because the model clock advances only
  through metered charges, the summed durations of the ``phase`` events
  reproduce ``RunStats.modeled_time_s`` exactly (an asserted invariant).
  Instant events (interval-rule decisions, mode switches) live on the
  same timeline, and so does the ``active_vertices`` counter track:
  one sample per ``superstep`` span that carries ``active``, at the
  span's end (``model_t1``).
* **pid 1 — "host (wall time)"**: the compute passes on the host
  clock, one thread row per runtime (the unit the host steps: a block
  of consecutive machines, or one machine; ``tid`` is its first
  machine) — this is where you see how long the *simulator* spent, and
  on which runtime. Each ``machine-work`` span becomes one event per
  runtime, laid end to end from the pass's start (the runtimes of a
  pass run one after another), with that runtime's slice of the
  pass's per-machine columns as args.

``otherData`` embeds the run metadata including the full ``RunStats``
dump. The document is an export only: no reader in this repo takes it
back (``repro.obs.records.load_trace`` refuses it and says so).
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Set, Tuple

__all__ = [
    "chrome_trace_document", "write_chrome_trace", "CLUSTER_PID", "HOST_PID",
]

CLUSTER_PID = 0  # modeled-cluster-time timeline
HOST_PID = 1  # host wall-time timeline (one row per runtime)

_US = 1e6  # seconds -> microseconds


def _span_event(record: Dict[str, Any]) -> Dict[str, Any]:
    """One tracer span -> one Chrome complete ("X") event on the
    modeled-cluster timeline."""
    args: Dict[str, Any] = dict(record.get("attrs") or {})
    for kind, seconds in (record.get("charges") or {}).items():
        args[f"charge_{kind}_s"] = seconds
    t0, t1 = record["model_t0"], record["model_t1"]
    return {
        "name": record["name"],
        "cat": record["cat"],
        "ph": "X",
        "ts": t0 * _US,
        "dur": (t1 - t0) * _US,
        "pid": CLUSTER_PID,
        "tid": 0,
        "args": args,
    }


def _runtime_events(record: Dict[str, Any]) -> List[Tuple[str, Dict[str, Any]]]:
    """One ``machine-work`` pass -> ``(thread label, host-clock event)``
    per runtime."""
    attrs = record.get("attrs") or {}
    host = attrs.get("host_s") or []
    firsts = [int(first) for first, _ in host]
    ends = firsts[1:] + [len(attrs.get("busy_s") or ())]
    t = record["host_t0"]
    out = []
    for first, (_, seconds), end in zip(firsts, host, ends):
        args: Dict[str, Any] = {"superstep": attrs.get("superstep")}
        for column in ("edges", "applies", "busy_s"):
            args[column] = (attrs.get(column) or [])[first:end]
        label = (f"machine {first}" if end - first == 1
                 else f"machines {first}–{end - 1}")
        out.append((label, {
            "name": record["name"], "cat": record["cat"], "ph": "X",
            "ts": t * _US, "dur": seconds * _US,
            "pid": HOST_PID, "tid": first, "args": args,
        }))
        t += seconds
    return out


def chrome_trace_document(
    records: List[Dict[str, Any]], meta: Dict[str, Any]
) -> Dict[str, Any]:
    """Convert tracer records + run meta into a Chrome trace document."""
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": CLUSTER_PID, "tid": 0,
         "args": {"name": "cluster (modeled time)"}},
        {"name": "process_name", "ph": "M", "pid": HOST_PID, "tid": 0,
         "args": {"name": "host (wall time)"}},
    ]
    named_threads: Set[int] = set()
    other_data = dict(meta)
    for record in records:
        rtype = record["type"]
        if rtype == "span" and record["cat"] == "machine":
            for label, event in _runtime_events(record):
                if event["tid"] not in named_threads:
                    named_threads.add(event["tid"])
                    events.append({
                        "name": "thread_name", "ph": "M", "pid": HOST_PID,
                        "tid": event["tid"], "args": {"name": label},
                    })
                events.append(event)
        elif rtype == "span":
            events.append(_span_event(record))
            active = (record.get("attrs") or {}).get("active")
            if record["cat"] == "superstep" and active is not None:
                events.append({
                    "name": "active_vertices",
                    "ph": "C",
                    "ts": record["model_t1"] * _US,
                    "pid": CLUSTER_PID,
                    "tid": 0,
                    "args": {"value": active},
                })
        elif rtype == "instant":
            events.append({
                "name": record["name"],
                "ph": "i",
                "s": "g",  # global scope: draw the line across the track
                "ts": record["model_t"] * _US,
                "pid": CLUSTER_PID,
                "tid": 0,
                "args": dict(record.get("attrs") or {}),
            })
        elif rtype == "run_meta":
            other_data.update(record.get("meta") or {})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }


def write_chrome_trace(
    path: str, records: List[Dict[str, Any]], meta: Dict[str, Any]
) -> None:
    """Write :func:`chrome_trace_document` of ``records`` / ``meta`` to
    ``path`` (its parent directory is created)."""
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(chrome_trace_document(records, meta), fh)
