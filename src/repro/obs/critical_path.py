"""Critical-path / straggler analysis over a machine-attributed trace.

Every compute pass of every engine is one ``machine-work`` span
(category ``machine``, ``BaseEngine._compute_pass``) under the phase
span it ran in: columns ``edges`` / ``applies`` / ``busy_s`` (modeled
seconds), one entry per machine, and ``host_s``, one ``[first machine,
host seconds]`` pair per runtime. A leg's per-machine work is the sum of
its passes' columns; nothing expands them back into per-machine
records. This module reconstructs from such a trace:

* **per-superstep timelines** — each superstep's phase legs (gather /
  apply / scatter, local-computation / coherency, …) with their modeled
  widths and charge breakdown;
* **the modeled-time critical path** — since the lockstep simulator
  advances the model clock only at barriers/settles, a superstep's
  duration is gated by exactly one entity per leg: the slowest machine
  on a compute leg (BSP ``max`` fold), or the priced channel on a
  comm/sync leg. The analyzer names a gating machine or channel for
  *every* superstep (falling back to the ``control``/barrier channel
  when a superstep did no attributable work);
* **straggler and load-imbalance summaries** — per-machine busy totals,
  shares, gating counts, and the ``max/mean`` imbalance, reported next
  to the partition layer's replication factor λ (the paper's speedup
  predictor: a vertex-cut that lowers λ lowers exchange volume, but a
  *skewed* cut shifts the gate to one straggler machine — the two
  numbers together say which lever matters);
* **host wall-clock columns, per runtime** — busy totals, shares and
  gated supersteps on the *host* clock, for the unit the host actually
  steps: a runtime (one block of consecutive machines, or one machine),
  named by its machines (``machines 0–47``). With one machine per
  runtime these are per-machine columns;
* **the per-superstep timeline** — each row also carries its superstep's
  ``lens-probe`` fields (``pending_mass``, ``pending_replicas``,
  ``staleness_max``, ``drift_max``), its cumulative ``channel-ledger``
  bytes (``channel_bytes``), its executed coherency ``exchanges`` and
  its span's ``active`` attribute (``None`` when the span has none).

Accounting invariant (asserted by the integration tests): bootstrap +
Σ superstep widths + untracked charges = ``RunStats.modeled_time_s``.

Entry points: :func:`analyze_trace` (dict, JSON-ready) and
:func:`format_analysis` (the ``repro analyze`` text rendering). Nesting
follows the spans' ``id`` / ``parent`` links.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Tuple

from repro.obs.records import TraceData

__all__ = ["analyze_trace", "extract_run", "format_analysis"]

#: the ``lens-probe`` attributes a superstep row carries verbatim
_LENS_FIELDS = ("pending_mass", "pending_replicas", "staleness_max", "drift_max")

#: phase-leg name → the channel that prices its barrier/traffic when the
#: leg itself carries no mode attribute (see _leg_channel)
_LEG_CHANNELS = {
    "gather": "gather",
    "apply": "broadcast",
    "scatter": "control",
    "exchange-apply": "one_edge",
    "termination-probe": "control",
}

#: coherency-exchange wire mode → delta channel (CommMode enum values)
_MODE_CHANNELS = {"all_to_all": "delta_a2a", "mirrors_to_master": "delta_m2m"}


def _leg_channel(name: str, attrs: Dict[str, Any]) -> str:
    """The channel that gates a leg's comm/sync time."""
    mode = attrs.get("mode")
    if mode in _MODE_CHANNELS:
        return _MODE_CHANNELS[mode]
    return _LEG_CHANNELS.get(name, "control")


def _check_writer(trace: TraceData) -> None:
    """Refuse a trace from the per-machine writer.

    Before the columnar ``machine-work`` span, a run trace held one
    ``machine``-category span per machine and pass (``apply-machine`` /
    ``gather-machine``) and lazy-block ``machine-work`` *instants*; read
    as today's records its machine sections would come out empty.
    """
    old = sum(
        1 for s in trace.spans
        if s.get("cat") == "machine" and s.get("name") != "machine-work"
    ) + sum(1 for i in trace.instants if i.get("name") == "machine-work")
    if old:
        raise ValueError(
            f"the trace was written by the per-machine writer ({old} "
            f"per-machine spans or machine-work instants, not one "
            f"machine-work span per compute pass); record it again"
        )


def _nest_spans(
    trace: TraceData,
) -> Tuple[Optional[Dict[str, Any]], List[Dict[str, Any]]]:
    """Recover (bootstrap, supersteps-with-legs) from the span stream.

    Each superstep dict gains ``legs`` (its phase children, in emission
    order) and each leg gains ``work`` (its ``machine-work`` records),
    both by parent link.
    """
    bootstrap = None
    supersteps: List[Dict[str, Any]] = []
    legs_by_parent: Dict[Any, List[Dict[str, Any]]] = {}
    work_by_parent: Dict[Any, List[Dict[str, Any]]] = {}
    for s in trace.spans:
        cat = s.get("cat")
        if cat == "phase":
            legs_by_parent.setdefault(s.get("parent"), []).append(s)
        elif cat == "machine":
            work_by_parent.setdefault(s.get("parent"), []).append(
                s.get("attrs") or {}
            )
    for s in trace.spans:
        cat = s.get("cat")
        if cat == "phase":
            s["work"] = work_by_parent.get(s.get("id"), [])
            if bootstrap is None and s["name"] == "bootstrap":
                bootstrap = s
        elif cat == "superstep":
            s["legs"] = legs_by_parent.get(s.get("id"), [])
            supersteps.append(s)
    return bootstrap, supersteps


def _by_step(trace: TraceData, name: str) -> Dict[int, List[Dict[str, Any]]]:
    """The ``name`` instants' attrs (plus ``model_t``) keyed by superstep."""
    out: Dict[int, List[Dict[str, Any]]] = {}
    for inst in trace.instants:
        if inst.get("name") == name:
            attrs = {"model_t": inst.get("model_t"), **(inst.get("attrs") or {})}
            out.setdefault(int(attrs.get("superstep", -1)), []).append(attrs)
    return out


def _leg_busy(work: List[Dict[str, Any]]) -> List[float]:
    """Per-machine modeled busy seconds of a leg's passes, summed in
    pass order (how the simulator's meters accumulate them)."""
    busy = [0.0] * len(work[0]["busy_s"]) if work else []
    for attrs in work:
        for m, b in enumerate(attrs["busy_s"]):
            busy[m] += b
    return busy


def _runtime_machines(trace: TraceData) -> Dict[int, List[int]]:
    """Runtime (first machine) -> ``[first, last]`` machine, read off
    the first ``machine-work`` record (a run's runtimes never change)."""
    for s in trace.spans:
        if s.get("cat") == "machine":
            attrs = s["attrs"]
            firsts = [first for first, _ in attrs["host_s"]]
            ends = firsts[1:] + [len(attrs["busy_s"])]
            return {f: [f, end - 1] for f, end in zip(firsts, ends)}
    return {}


def extract_run(trace: TraceData, run_id: int) -> TraceData:
    """One engine run of a serve trace, as its own run trace.

    The serve-trace writer (:mod:`repro.obs.request_trace`) nests each
    run's :class:`~repro.obs.tracer.Tracer` records verbatim in that
    run's ``serve.engine-run`` record; replaying them through
    :meth:`TraceData.add` (as :func:`~repro.obs.records.trace_from_tracer`
    does) gives the trace a standalone ``--trace-out`` file of the run
    loads as. An unknown ``run_id`` gives an empty trace.
    """
    sub = TraceData()
    for span in trace.spans:
        if (span.get("name") == "serve.engine-run"
                and (span.get("attrs") or {}).get("run_id") == run_id):
            for record in span.get("records") or ():
                sub.add(record)
    return sub


def analyze_trace(trace: TraceData) -> Dict[str, Any]:
    """Critical-path / straggler analysis of one run's trace.

    Returns a JSON-serializable dict; see the module docstring for the
    semantics of each section. A served run is analyzed through
    :func:`extract_run`. Raises :class:`ValueError` on a trace from the
    per-machine writer.
    """
    _check_writer(trace)
    meta = trace.meta
    stats = trace.stats
    num_machines = int(meta.get("machines", 0) or 0)
    bootstrap, steps = _nest_spans(trace)
    probes = _by_step(trace, "lens-probe")
    ledgers = _by_step(trace, "channel-ledger")
    decisions = _by_step(trace, "coherency-decision")
    untracked = meta.get("untracked_charges") or {}
    untracked_s = float(sum(untracked.values()))
    bootstrap_s = (
        float(bootstrap["model_t1"] - bootstrap["model_t0"]) if bootstrap else 0.0
    )

    busy_total: Dict[int, float] = {}
    host_busy_total: Dict[int, float] = {}
    gated_machine: Dict[int, int] = {}
    host_gated: Dict[int, int] = {}
    gated_channel: Dict[str, int] = {}
    leg_totals: Dict[str, Dict[str, float]] = {}
    leg_order: List[str] = []
    rows: List[Dict[str, Any]] = []
    supersteps_s = 0.0
    runtimes = _runtime_machines(trace)

    for ss in steps:
        ss_attrs = ss.get("attrs") or {}
        step = int(ss_attrs.get("superstep", len(rows)))
        width = float(ss["model_t1"] - ss["model_t0"])
        supersteps_s += width
        # per-machine busy accumulated across this superstep's legs so
        # far: the settle legs (coherency / partial-coherency) carry the
        # compute charge for work done in *earlier* sibling legs, so a
        # compute-dominated leg with no passes of its own is gated by
        # the superstep's running straggler
        step_busy: Dict[int, float] = {}
        step_host: Dict[int, float] = {}
        legs: List[Dict[str, Any]] = []
        child_s = 0.0
        for leg in ss.get("legs", []):
            name = leg["name"]
            model_s = float(leg["model_t1"] - leg["model_t0"])
            child_s += model_s
            charges = leg.get("charges") or {}
            compute_s = float(charges.get("compute", 0.0))
            comm_s = float(charges.get("comm", 0.0))
            sync_s = float(charges.get("sync", 0.0))
            attrs = leg.get("attrs") or {}
            # the leg's slowest machine over its summed passes; ties
            # break to the lowest machine id, like the simulator's folds
            leg_busy = _leg_busy(leg["work"])
            machine: Optional[int] = None
            machine_busy = 0.0
            if leg_busy:
                machine_busy = max(leg_busy)
                machine = leg_busy.index(machine_busy)
            for m, b in enumerate(leg_busy):
                busy_total[m] = busy_total.get(m, 0.0) + b
                step_busy[m] = step_busy.get(m, 0.0) + b
            for pass_attrs in leg["work"]:
                for first, hb in pass_attrs["host_s"]:
                    host_busy_total[first] = host_busy_total.get(first, 0.0) + hb
                    step_host[first] = step_host.get(first, 0.0) + hb
            channel = _leg_channel(name, attrs)
            if machine is None and compute_s >= comm_s + sync_s and step_busy:
                # a settle leg: charge came from earlier legs' machines
                machine = min(
                    step_busy, key=lambda m: (-step_busy[m], m)
                )
                machine_busy = step_busy[machine]
            # who gates this leg: on a compute-dominated leg the BSP max
            # fold waits on the slowest machine; comm/sync-priced legs
            # wait on their channel. Compute-dominated with no machine
            # attribution (an all-idle leg) falls back to the channel.
            if machine is not None and compute_s >= comm_s + sync_s:
                gate: Dict[str, Any] = {
                    "kind": "machine", "machine": machine,
                    "busy_s": machine_busy,
                }
            else:
                gate = {"kind": "channel", "channel": channel}
            row = {
                "name": name, "model_s": model_s, "compute_s": compute_s,
                "comm_s": comm_s, "sync_s": sync_s,
                "machine": machine, "machine_busy_s": machine_busy,
                "channel": channel, "gating": gate,
            }
            legs.append(row)
            agg = leg_totals.get(name)
            if agg is None:
                agg = leg_totals[name] = {"model_s": 0.0, "count": 0.0}
                leg_order.append(name)
            agg["model_s"] += model_s
            agg["count"] += 1
        self_s = width - child_s
        # the gating leg is the widest on the model clock; an all-zero
        # superstep (everything idle) is gated by the control barrier
        gating_leg = max(legs, key=lambda r: r["model_s"], default=None)
        if gating_leg is not None and gating_leg["model_s"] > 0.0:
            gate = dict(gating_leg["gating"])
            gate["leg"] = gating_leg["name"]
        else:
            gate = {
                "kind": "channel", "channel": "control",
                "leg": gating_leg["name"] if gating_leg else "(idle)",
            }
        if gate["kind"] == "machine":
            gated_machine[gate["machine"]] = (
                gated_machine.get(gate["machine"], 0) + 1
            )
        else:
            gated_channel[gate["channel"]] = (
                gated_channel.get(gate["channel"], 0) + 1
            )
        # host-clock gate: the runtime that burned the most host
        # wall-clock in this superstep's passes (None without a pass)
        host_gate: Optional[Dict[str, Any]] = None
        if step_host:
            first = min(step_host, key=lambda f: (-step_host[f], f))
            host_gated[first] = host_gated.get(first, 0) + 1
            host_gate = {
                "machines": runtimes[first],
                "host_busy_s": step_host[first],
            }
        t0, t1 = float(ss["model_t0"]), float(ss["model_t1"])
        probe = probes.get(step, [{}])[-1]
        ledger = ledgers.get(step, [{}])[-1]
        rows.append({
            "superstep": step, "model_s": width, "self_s": self_s,
            "model_t0": t0, "model_t1": t1,
            "gating": gate, "host_gating": host_gate, "legs": legs,
            **{key: probe.get(key) for key in _LENS_FIELDS},
            "channel_bytes": {
                key[: -len(".bytes")]: value for key, value in ledger.items()
                if key.endswith(".bytes")
            },
            "exchanges": sum(
                1 for d in decisions.get(step, [])
                if (d.get("kind"), d.get("verdict")) == ("coherency", "exchange")
            ),
            "active": ss_attrs.get("active"),
        })

    # the bootstrap pass stays out of the per-machine columns: its
    # compute charge folds at superstep 0's first barrier
    total_modeled_s = float(stats.get("modeled_time_s", 0.0))
    accounted_s = bootstrap_s + supersteps_s + untracked_s

    machines_section: Dict[str, Any] = {}
    stragglers: Dict[str, Any] = {}
    host_runtimes: List[Dict[str, Any]] = []
    if num_machines:
        busy = [busy_total.get(m, 0.0) for m in range(num_machines)]
        total_busy = sum(busy)
        mean_busy = total_busy / num_machines
        max_busy = max(busy)
        machines_section = {
            "busy_s": busy,
            "share": [
                (b / total_busy if total_busy > 0 else 0.0) for b in busy
            ],
            "gated_supersteps": [
                gated_machine.get(m, 0) for m in range(num_machines)
            ],
        }
        # the host clock per runtime: the unit the host steps
        host = [host_busy_total.get(first, 0.0) for first in runtimes]
        total_host = sum(host)
        max_host = max(host, default=0.0)
        mean_host = total_host / len(host) if host else 0.0
        host_runtimes = [
            {"machines": machines, "host_busy_s": hb,
             "host_share": hb / total_host if total_host > 0 else 0.0,
             "host_gated_supersteps": host_gated.get(first, 0)}
            for (first, machines), hb in zip(runtimes.items(), host)
        ]
        stragglers = {
            "machine": busy.index(max_busy),
            "max_busy_s": max_busy,
            "mean_busy_s": mean_busy,
            "imbalance": (max_busy / mean_busy) if mean_busy > 0 else 1.0,
            "host_machines": (
                host_runtimes[host.index(max_host)]["machines"]
                if total_host > 0 else None
            ),
            "host_max_busy_s": max_host,
            "host_mean_busy_s": mean_host,
            "host_imbalance": max_host / mean_host if mean_host > 0 else 1.0,
            "compute_skew": stats.get("compute_skew"),
            "replication_factor": meta.get("replication_factor"),
        }

    return {
        "engine": meta.get("engine", "?"),
        "algorithm": meta.get("algorithm", "?"),
        "machines": num_machines,
        "replication_factor": meta.get("replication_factor"),
        "total_modeled_s": total_modeled_s,
        "accounted_s": accounted_s,
        "bootstrap_s": bootstrap_s,
        "supersteps_s": supersteps_s,
        "untracked_s": untracked_s,
        "critical_path": [
            {"name": n, **leg_totals[n]} for n in leg_order
        ],
        "supersteps": rows,
        "machines_detail": machines_section,
        "host_runtimes": host_runtimes,
        "stragglers": stragglers,
        "gated_channels": gated_channel,
    }


def _gate_label(gate: Dict[str, Any]) -> str:
    if gate.get("kind") == "machine":
        return f"machine {gate['machine']}"
    return f"channel {gate.get('channel', '?')}"


def _runtime_label(machines: List[int]) -> str:
    """A runtime by its machines: ``machine 3`` or ``machines 0–47``."""
    first, last = machines
    return f"machine {first}" if first == last else f"machines {first}–{last}"


def _cell(value: Any) -> Any:
    if value is None:
        return "-"
    return f"{value:.4g}" if isinstance(value, float) else value


def format_analysis(analysis: Dict[str, Any], max_rows: int = 40) -> str:
    """Render an analysis dict as the ``repro analyze`` text report."""
    from repro.bench.reporting import format_table

    lines: List[str] = []
    lam = analysis.get("replication_factor")
    lines.append(
        f"critical-path analysis — {analysis['engine']}/"
        f"{analysis['algorithm']}, {analysis['machines']} machines"
        + (f", λ={lam:.3f}" if isinstance(lam, (int, float)) else "")
    )

    total = analysis["total_modeled_s"]
    acct = [
        ["bootstrap", round(analysis["bootstrap_s"], 6)],
        ["supersteps", round(analysis["supersteps_s"], 6)],
        ["untracked", round(analysis["untracked_s"], 6)],
        ["accounted", round(analysis["accounted_s"], 6)],
        ["modeled total", round(total, 6)],
    ]
    lines.append(format_table(
        ["segment", "model_s"], acct, title="modeled-time accounting",
    ))

    cp_rows = []
    for row in analysis["critical_path"]:
        share = 100.0 * row["model_s"] / total if total > 0 else 0.0
        cp_rows.append([
            row["name"], int(row["count"]), round(row["model_s"], 6),
            round(share, 1),
        ])
    if cp_rows:
        lines.append(format_table(
            ["leg", "count", "model_s", "%"],
            cp_rows, title="critical path by leg",
        ))

    steps = analysis["supersteps"]
    step_rows = []
    shown = steps if len(steps) <= max_rows else steps[:max_rows]
    have_host = any(row.get("host_gating") for row in steps)
    have_lens = any(row.get("pending_mass") is not None for row in steps)
    for row in shown:
        cells = [
            row["superstep"], round(row["model_s"], 6),
            row["gating"].get("leg", "?"), _gate_label(row["gating"]),
        ]
        if have_host:
            hg = row.get("host_gating")
            cells.append(_runtime_label(hg["machines"]) if hg else "-")
        if have_lens:
            cells += [_cell(row[key]) for key in _LENS_FIELDS] + [
                int(sum(row["channel_bytes"].values())),
                row["exchanges"],
                _cell(row["active"]),
            ]
        step_rows.append(cells)
    if step_rows:
        title = "per-superstep gating" + (" + lens timeline" if have_lens else "")
        if len(steps) > len(shown):
            title += f" (first {len(shown)} of {len(steps)})"
        headers = ["superstep", "model_s", "gating leg", "gated by"]
        if have_host:
            headers.append("host gate")
        if have_lens:
            headers += [
                "pending mass", "pending", "stale", "drift", "bytes",
                "exchanges", "active",
            ]
        lines.append(format_table(headers, step_rows, title=title))

    md = analysis.get("machines_detail") or {}
    if md.get("busy_s"):
        m_rows = [
            [m, round(b, 6), round(100.0 * md["share"][m], 1),
             md["gated_supersteps"][m]]
            for m, b in enumerate(md["busy_s"])
        ]
        lines.append(format_table(
            ["machine", "busy_s", "share %", "gated supersteps"], m_rows,
            title="per-machine load",
        ))
    runtimes = analysis.get("host_runtimes") or []
    if any(r["host_busy_s"] > 0.0 for r in runtimes):
        lines.append(format_table(
            ["runtime", "host_busy_s", "host %", "host gated"],
            [[_runtime_label(r["machines"]), round(r["host_busy_s"], 6),
              round(100.0 * r["host_share"], 1), r["host_gated_supersteps"]]
             for r in runtimes],
            title="per-runtime load (host clock)",
        ))

    st = analysis.get("stragglers") or {}
    if st:
        imb = st.get("imbalance")
        skew = st.get("compute_skew")
        lam = st.get("replication_factor")
        host_m = st.get("host_machines")
        parts = [
            f"straggler: machine {st.get('machine')}"
            f" (busy {st.get('max_busy_s', 0.0):.6f}s,"
            f" mean {st.get('mean_busy_s', 0.0):.6f}s)",
            f"imbalance max/mean = {imb:.3f}" if imb is not None else "",
            (
                f"host-clock straggler: {_runtime_label(host_m)}"
                f" (host busy {st.get('host_max_busy_s', 0.0):.6f}s,"
                f" mean per runtime {st.get('host_mean_busy_s', 0.0):.6f}s,"
                f" imbalance {st.get('host_imbalance', 1.0):.3f})"
                if host_m is not None else ""
            ),
            f"compute skew = {skew:.3f}" if isinstance(skew, (int, float)) else "",
            (
                f"replication factor λ = {lam:.3f} — λ prices the exchange "
                f"volume a lazy run avoids; the imbalance above says how "
                f"much of the remaining time one straggler gates"
                if isinstance(lam, (int, float)) else ""
            ),
        ]
        lines.append("\n".join(p for p in parts if p))

    ch = analysis.get("gated_channels") or {}
    if ch:
        lines.append(
            "supersteps gated by channel: " + ", ".join(
                f"{name}×{count}" for name, count in sorted(ch.items())
            )
        )
    return "\n\n".join(lines)
