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
  Instant events (interval-rule decisions, mode switches) and counter
  tracks (active vertices …) live on the same timeline.
* **pid 1 — "host (wall time)"**: per-machine work spans on the host
  clock, one thread row per simulated machine — this is where you see
  how long the *simulator* spent, and on which machine's share.

``otherData`` embeds the run metadata including the full ``RunStats``
dump. The document is an export only: no reader in this repo takes it
back (``repro.obs.records.load_trace`` refuses it and says so).
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["chrome_trace_document", "CLUSTER_PID", "HOST_PID"]

CLUSTER_PID = 0  # modeled-cluster-time timeline
HOST_PID = 1  # host wall-time timeline (per-machine rows)

_US = 1e6  # seconds -> microseconds


def _span_event(record: Dict[str, Any]) -> Dict[str, Any]:
    """One tracer span -> one Chrome complete ("X") event."""
    attrs = dict(record.get("attrs") or {})
    machine = attrs.get("machine")
    args: Dict[str, Any] = attrs
    charges = record.get("charges") or {}
    for kind, seconds in charges.items():
        args[f"charge_{kind}_s"] = seconds
    if record["cat"] == "machine" and machine is not None:
        # host-time axis, one thread row per machine
        pid, tid = HOST_PID, int(machine)
        t0, t1 = record["host_t0"], record["host_t1"]
    else:
        pid, tid = CLUSTER_PID, 0
        t0, t1 = record["model_t0"], record["model_t1"]
    return {
        "name": record["name"],
        "cat": record["cat"],
        "ph": "X",
        "ts": t0 * _US,
        "dur": (t1 - t0) * _US,
        "pid": pid,
        "tid": tid,
        "args": args,
    }


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
    named_threads = set()
    other_data = dict(meta)
    for record in records:
        rtype = record["type"]
        if rtype == "span":
            event = _span_event(record)
            key = (event["pid"], event["tid"])
            if event["pid"] == HOST_PID and key not in named_threads:
                named_threads.add(key)
                events.append({
                    "name": "thread_name", "ph": "M", "pid": HOST_PID,
                    "tid": event["tid"],
                    "args": {"name": f"machine {event['tid']}"},
                })
            events.append(event)
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
        elif rtype == "counter":
            events.append({
                "name": record["name"],
                "ph": "C",
                "ts": record["model_t"] * _US,
                "pid": CLUSTER_PID,
                "tid": 0,
                "args": {"value": record["value"]},
            })
        elif rtype == "run_meta":
            other_data.update(record.get("meta") or {})
    return {
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": other_data,
    }
