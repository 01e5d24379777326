"""Offline single-file HTML dashboard for one traced run.

``repro dashboard run.trace.jsonl -o run.html`` turns a saved run or
serve trace into a self-contained HTML page — inline SVG
and CSS only, no JavaScript frameworks, no network fetches — that a
reviewer can open from disk:

* **run summary** — engine/algorithm/machines plus the headline
  counters (modeled time, supersteps, coherency points, traffic);
* **anomaly flags** — :class:`~repro.obs.audit.LensAuditor` verdicts,
  rendered with the status palette (icon + label, never color alone);
* **critical path** (``id="critical-path"``) — a ribbon of supersteps on
  the model clock, colored by gating leg, tooltips naming the gating
  machine/channel (from :mod:`repro.obs.critical_path`);
* **stragglers** (``id="stragglers"``) — per-machine modeled busy time,
  gated-superstep counts, and the max/mean imbalance next to the
  partition's replication factor λ;
* **convergence** (``id="convergence"``) — active-vertex count over
  modeled cluster time;
* **coherency lens** — pending delta mass and sampled replica drift per
  superstep, and the staleness-age histogram (lens-enabled runs only);
* **per-machine timeline** (``id="machine-timeline"``) — host-clock
  lanes of per-machine work spans;
* **per-channel traffic** — cumulative bytes per exchange-plane channel
  over supersteps, from the lens's ledger snapshots.

Every section degrades to an explanatory placeholder when its records
are absent (e.g. a trace from a ``lens=False`` run), so the dashboard
is valid for any trace the repo can produce.
"""

from __future__ import annotations

import html
import math
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.obs.audit import LensAuditor
from repro.obs.records import TraceData

__all__ = ["render_dashboard", "render_compare_dashboard"]

# Palette: the validated reference instance (categorical slots in fixed
# order, chrome inks, reserved status colors) — see docs/observability.md.
_CSS = """
:root { color-scheme: light; }
body {
  margin: 0; padding: 24px;
  background: var(--page); color: var(--ink);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
.viz-root {
  --page: #f9f9f7; --surface-1: #fcfcfb;
  --ink: #0b0b0b; --ink-2: #52514e; --muted: #898781;
  --grid: #e1e0d9; --baseline: #c3c2b7;
  --border: rgba(11,11,11,0.10);
  --s1: #2a78d6; --s2: #eb6834; --s3: #1baf7a; --s4: #eda100;
  --good: #0ca30c; --warning: #fab219; --critical: #d03b3b;
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) .viz-root {
    color-scheme: dark;
    --page: #0d0d0d; --surface-1: #1a1a19;
    --ink: #ffffff; --ink-2: #c3c2b7; --muted: #898781;
    --grid: #2c2c2a; --baseline: #383835;
    --border: rgba(255,255,255,0.10);
    --s1: #3987e5; --s2: #d95926; --s3: #199e70; --s4: #c98500;
  }
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 0 0 2px; }
.sub { color: var(--ink-2); margin: 0 0 20px; }
section {
  background: var(--surface-1); border: 1px solid var(--border);
  border-radius: 8px; padding: 16px 18px; margin: 0 0 16px;
  max-width: 760px;
}
.section-note { color: var(--muted); font-size: 13px; margin: 2px 0 10px; }
.tiles { display: flex; flex-wrap: wrap; gap: 24px; }
.tile .v { font-size: 24px; font-weight: 600; }
.tile .k { color: var(--ink-2); font-size: 12px; }
.flag { display: flex; gap: 8px; align-items: baseline; margin: 4px 0; }
.flag .dot { font-size: 13px; font-weight: 700; }
.flag.good .dot { color: var(--good); }
.flag.warning .dot { color: var(--warning); }
.flag.critical .dot { color: var(--critical); }
.flag code { color: var(--ink-2); font-size: 12px; }
.legend { display: flex; flex-wrap: wrap; gap: 14px; margin: 6px 0 0; }
.legend .item { display: flex; gap: 6px; align-items: center;
  color: var(--ink-2); font-size: 12px; }
.legend .swatch { width: 10px; height: 10px; border-radius: 2px; }
svg text { fill: var(--muted); font-size: 11px;
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif; }
svg .axis { stroke: var(--baseline); }
svg .grid { stroke: var(--grid); }
svg .tick-label { font-variant-numeric: tabular-nums; }
"""

_W, _H = 720, 220
_ML, _MR, _MT, _MB = 56, 16, 10, 30


def _fmt(v: float) -> str:
    """Compact human number for tick labels and tooltips."""
    if v != v or v in (math.inf, -math.inf):
        return str(v)
    a = abs(v)
    if a >= 1e9:
        return f"{v / 1e9:.3g}G"
    if a >= 1e6:
        return f"{v / 1e6:.3g}M"
    if a >= 1e4:
        return f"{v / 1e3:.3g}k"
    if a and a < 1e-3:
        return f"{v:.2e}"
    return f"{v:.4g}"


def _esc(s: Any) -> str:
    return html.escape(str(s), quote=True)


def _ticks(lo: float, hi: float, n: int = 5) -> List[float]:
    """Round tick positions covering [lo, hi] (1/2/5 steps)."""
    if hi <= lo:
        return [lo]
    span = hi - lo
    raw = span / max(1, n - 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for m in (1.0, 2.0, 5.0, 10.0):
        if raw <= m * mag:
            step = m * mag
            break
    first = math.ceil(lo / step) * step
    out = []
    t = first
    while t <= hi + 1e-12 * span:
        out.append(0.0 if abs(t) < step * 1e-9 else t)
        t += step
    return out or [lo]


class _Scale:
    """Linear data→pixel mapping for one axis."""

    def __init__(self, lo: float, hi: float, p0: float, p1: float) -> None:
        if hi <= lo:
            hi = lo + 1.0
        self.lo, self.hi, self.p0, self.p1 = lo, hi, p0, p1

    def __call__(self, v: float) -> float:
        f = (v - self.lo) / (self.hi - self.lo)
        return self.p0 + f * (self.p1 - self.p0)


def _frame(
    xs: _Scale, ys: _Scale, xlabel: str, ylabel: str
) -> List[str]:
    """Gridlines, baseline axis, and tick labels for a chart."""
    parts: List[str] = []
    for t in _ticks(ys.lo, ys.hi):
        y = ys(t)
        parts.append(
            f'<line class="grid" x1="{_ML}" x2="{_W - _MR}" '
            f'y1="{y:.1f}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_ML - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    for t in _ticks(xs.lo, xs.hi, 6):
        x = xs(t)
        parts.append(
            f'<text class="tick-label" x="{x:.1f}" y="{_H - _MB + 16}" '
            f'text-anchor="middle">{_fmt(t)}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_ML}" x2="{_W - _MR}" '
        f'y1="{ys(ys.lo):.1f}" y2="{ys(ys.lo):.1f}"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 2}" '
        f'text-anchor="middle">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="12" y="{_MT + 8}" text-anchor="start">{_esc(ylabel)}</text>'
    )
    return parts


def _line_chart(
    series: Sequence[Tuple[str, List[Tuple[float, float]]]],
    xlabel: str,
    ylabel: str,
    tooltip: str = "{name}: x={x} y={y}",
) -> str:
    """Multi-series line chart; hoverable ≥8px markers on sparse series."""
    pts = [p for _, data in series for p in data]
    if not pts:
        return '<p class="section-note">no data points in this trace</p>'
    xlo = min(p[0] for p in pts)
    xhi = max(p[0] for p in pts)
    ylo = min(0.0, min(p[1] for p in pts))
    yhi = max(p[1] for p in pts)
    xs = _Scale(xlo, xhi, _ML, _W - _MR)
    ys = _Scale(ylo, yhi, _H - _MB, _MT)
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    parts += _frame(xs, ys, xlabel, ylabel)
    for si, (name, data) in enumerate(series):
        color = f"var(--s{si % 4 + 1})"
        coords = " ".join(f"{xs(x):.1f},{ys(y):.1f}" for x, y in data)
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" '
            f'stroke-linejoin="round" points="{coords}"/>'
        )
        if len(data) <= 120:  # hover targets only when they stay legible
            for x, y in data:
                tip = tooltip.format(name=name, x=_fmt(x), y=_fmt(y))
                parts.append(
                    f'<circle cx="{xs(x):.1f}" cy="{ys(y):.1f}" r="4" '
                    f'fill="{color}"><title>{_esc(tip)}</title></circle>'
                )
    parts.append("</svg>")
    return "".join(parts)


def _bar_chart(
    bars: Sequence[Tuple[str, float]], xlabel: str, ylabel: str
) -> str:
    """Single-series bar chart with 2px surface gaps and rounded ends."""
    if not bars or all(v == 0 for _, v in bars):
        return '<p class="section-note">no observations in this trace</p>'
    yhi = max(v for _, v in bars)
    ys = _Scale(0.0, yhi, _H - _MB, _MT)
    n = len(bars)
    slot = (_W - _ML - _MR) / n
    bw = max(4.0, slot - 2.0)  # 2px surface gap between fills
    parts = [
        f'<svg viewBox="0 0 {_W} {_H}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">'
    ]
    for t in _ticks(0.0, yhi):
        y = ys(t)
        parts.append(
            f'<line class="grid" x1="{_ML}" x2="{_W - _MR}" '
            f'y1="{y:.1f}" y2="{y:.1f}"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_ML - 6}" y="{y + 3:.1f}" '
            f'text-anchor="end">{_fmt(t)}</text>'
        )
    base = ys(0.0)
    for i, (label, v) in enumerate(bars):
        x = _ML + i * slot + (slot - bw) / 2
        top = ys(v)
        h = max(0.0, base - top)
        parts.append(
            f'<rect x="{x:.1f}" y="{top:.1f}" width="{bw:.1f}" '
            f'height="{h:.1f}" rx="4" fill="var(--s1)">'
            f"<title>{_esc(label)}: {_fmt(v)}</title></rect>"
        )
        parts.append(
            f'<text class="tick-label" x="{x + bw / 2:.1f}" '
            f'y="{_H - _MB + 16}" text-anchor="middle">{_esc(label)}</text>'
        )
    parts.append(
        f'<line class="axis" x1="{_ML}" x2="{_W - _MR}" '
        f'y1="{base:.1f}" y2="{base:.1f}"/>'
    )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{_H - 2}" '
        f'text-anchor="middle">{_esc(xlabel)}</text>'
    )
    parts.append(
        f'<text x="12" y="{_MT + 8}" text-anchor="start">{_esc(ylabel)}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)


def _legend(names: Sequence[str]) -> str:
    items = []
    for i, name in enumerate(names):
        items.append(
            f'<span class="item"><span class="swatch" '
            f'style="background: var(--s{i % 4 + 1})"></span>'
            f"{_esc(name)}</span>"
        )
    return f'<div class="legend">{"".join(items)}</div>'


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------
def _summary_section(trace: TraceData) -> str:
    stats = trace.stats
    meta = trace.meta
    tiles = []
    for key, label, fmt in (
        ("modeled_time_s", "modeled time", lambda v: f"{v:.4f}s"),
        ("supersteps", "supersteps", lambda v: f"{int(v)}"),
        ("coherency_points", "coherency points", lambda v: f"{int(v)}"),
        ("global_syncs", "global syncs", lambda v: f"{int(v)}"),
        ("comm_bytes", "traffic", lambda v: f"{v / 1e6:.3f}MB"),
        ("comm_messages", "messages", lambda v: f"{int(v)}"),
    ):
        if key in stats:
            tiles.append(
                f'<div class="tile"><div class="v">{_esc(fmt(stats[key]))}'
                f'</div><div class="k">{_esc(label)}</div></div>'
            )
    title = (
        f"{meta.get('engine', '?')} / {meta.get('algorithm', '?')} — "
        f"{meta.get('machines', '?')} machines"
    )
    converged = stats.get("converged")
    state = "" if converged is None else (
        " · converged" if converged else " · NOT CONVERGED"
    )
    return (
        f"<h1>{_esc(title)}</h1>"
        f'<p class="sub">coherency-lens run dashboard{_esc(state)}</p>'
        f'<section id="summary"><div class="tiles">{"".join(tiles)}'
        f"</div></section>"
    )


def _anomaly_section(trace: TraceData) -> str:
    anomalies = LensAuditor(trace).audit()
    rows = []
    if not anomalies:
        rows.append(
            '<div class="flag good"><span class="dot">✓</span>'
            "<span>all lens invariants hold for this trace</span></div>"
        )
    for a in anomalies:
        icon = "✕" if a.severity == "critical" else "!"
        rows.append(
            f'<div class="flag {a.severity}"><span class="dot">{icon} '
            f"{a.severity}</span><span>{_esc(a.message)} "
            f"<code>{_esc(a.code)}</code></span></div>"
        )
    return (
        '<section id="anomalies"><h2>Anomaly flags</h2>'
        '<p class="section-note">LensAuditor invariant checks: untracked '
        "charges, post-exchange pending mass, final drift, decision-log "
        "and channel-ledger reconciliation</p>"
        f'{"".join(rows)}</section>'
    )


def _serving_section(trace: TraceData) -> str:
    """Service panel: request waterfalls + cost attribution (serve traces).

    Rendered only for a ``serve`` trace (a merged trace from ``repro
    serve --trace-out``); empty string otherwise so batch-run
    dashboards are unchanged.
    """
    from repro.obs.request_trace import analyze_serve_trace

    if trace.kind != "serve":
        return ""
    a = analyze_serve_trace(trace)
    t = a["totals"]
    tiles = []
    for value, label in (
        (t["requests"], "requests"),
        (t["engine_runs"], "engine runs"),
        (t["cache_hits"], "cache hits"),
        (t["fused"], "fused"),
        (f"{t['attributed_cost_s']:.4f}s", "attributed cost"),
        ("exact" if t["latency_exact"] and t["attribution_exact"]
         else "MISMATCH", "reconstruction"),
    ):
        tiles.append(
            f'<div class="tile"><div class="v">{_esc(value)}</div>'
            f'<div class="k">{_esc(label)}</div></div>'
        )

    # per-request waterfall: stacked horizontal bars, one per request
    reqs = a["requests"][:40]
    max_lat = max((r["latency_s"] for r in reqs), default=0.0) or 1.0
    bars = []
    legs = ("queue_s", "batch_s", "run_s", "serialize_s")
    for r in reqs:
        segs = []
        for i, leg in enumerate(legs):
            w = 100.0 * r[leg] / max_lat
            if w <= 0:
                continue
            segs.append(
                f'<span class="seg" style="width:{w:.2f}%; '
                f'background: var(--s{i % 4 + 1})"></span>'
            )
        how = "hit" if r["cached"] else ("fused" if r["batched"] else "run")
        if r["outcome"] != "ok":
            how = r["outcome"]
        bars.append(
            f'<div class="wf-row"><span class="wf-label">'
            f'#{r["request_id"]} {_esc(r["class"])} ({_esc(how)})</span>'
            f'<span class="wf-bar">{"".join(segs)}</span>'
            f'<span class="wf-ms">{r["latency_s"] * 1e3:.2f}ms</span></div>'
        )
    waterfall = (
        '<div class="waterfall" style="display:grid; gap:2px">'
        + "".join(bars) + "</div>"
        + _legend(["queue", "batch", "run", "serialize"])
    )

    cls_rows = []
    for cls, c in a["classes"].items():
        cls_rows.append(
            f"<tr><td>{_esc(cls)}</td><td>{c['requests']}</td>"
            f"<td>{c['cache_hits']}</td><td>{c['fused']}</td>"
            f"<td>{c['engine_cost_s'] * 1e3:.3f}</td>"
            f"<td>{100.0 * c['cost_share']:.1f}%</td>"
            f"<td>{c['latency_p50_s'] * 1e3:.3f}</td>"
            f"<td>{c['latency_p95_s'] * 1e3:.3f}</td></tr>"
        )
    cls_table = (
        "<table><thead><tr><th>class</th><th>requests</th><th>hits</th>"
        "<th>fused</th><th>cost (ms)</th><th>share</th><th>p50 (ms)</th>"
        "<th>p95 (ms)</th></tr></thead>"
        f'<tbody>{"".join(cls_rows)}</tbody></table>'
    )

    style = (
        "<style>.wf-row{display:grid;grid-template-columns:14em 1fr 6em;"
        "align-items:center;gap:6px;font-size:12px}"
        ".wf-bar{display:flex;height:10px;background:rgba(127,127,127,.12);"
        "border-radius:2px;overflow:hidden}"
        ".wf-ms{text-align:right;font-variant-numeric:tabular-nums}"
        "</style>"
    )
    return (
        f'<section id="serving">{style}<h2>Service requests</h2>'
        '<p class="section-note">request-scoped tracing: each bar tiles '
        "one request's submit-to-answer host time into its queue / "
        "batch / run / serialize legs; engine cost is the modeled run "
        "time attributed to the request (fused runs split bit-exactly "
        "across riders, cache hits attribute zero)</p>"
        f'<div class="tiles">{"".join(tiles)}</div>'
        f"{waterfall}<h2>Cost by query class</h2>{cls_table}</section>"
    )


def _convergence_section(trace: TraceData) -> str:
    points = [
        (float(c.get("model_t", 0.0)), float(c.get("value", 0.0)))
        for c in trace.counters
        if c.get("name") == "active_vertices"
    ]
    chart = _line_chart(
        [("active vertices", points)],
        "modeled cluster time (s)",
        "active vertices",
        tooltip="{name} at t={x}s: {y}",
    )
    return (
        '<section id="convergence"><h2>Convergence</h2>'
        '<p class="section-note">active-vertex count over modeled cluster '
        "time — the run's convergence residual</p>"
        f"{chart}</section>"
    )


def _lens_sections(trace: TraceData) -> str:
    probes = [i for i in trace.instants if i.get("name") == "lens-probe"]
    if not probes:
        return (
            '<section id="lens"><h2>Coherency lens</h2>'
            '<p class="section-note">trace has no lens probes — rerun '
            "with lens=True (CLI: --lens) to record replica staleness, "
            "pending delta mass and drift</p></section>"
        )
    mass = []
    drift = []
    stale = []
    for p in probes:
        a = p.get("attrs") or {}
        s = float(a.get("superstep", 0))
        mass.append((s, float(a.get("pending_mass", 0.0))))
        drift.append((s, float(a.get("drift_max", 0.0))))
        stale.append((s, float(a.get("staleness_max", 0))))
    hist = (trace.stats.get("metrics") or {}).get("lens.staleness") or {}
    bars = []
    for key, v in hist.items():
        if key.startswith("le_"):
            bars.append((f"≤{key[3:]}", float(v)))
    out = [
        '<section id="lens-mass"><h2>Pending delta mass</h2>',
        '<p class="section-note">monoid-measured deltaMsg mass awaiting '
        "exchange, per superstep (pre-exchange probe)</p>",
        _line_chart(
            [("pending mass", mass)], "superstep", "pending delta mass",
        ),
        "</section>",
        '<section id="lens-drift"><h2>Replica drift</h2>',
        '<p class="section-note">max master↔mirror value gap over the '
        "deterministic vertex sample, per superstep</p>",
        _line_chart([("sampled drift", drift)], "superstep", "max drift"),
        "</section>",
        '<section id="lens-staleness"><h2>Replica staleness</h2>',
        '<p class="section-note">histogram of how many supersteps pending '
        "deltas aged before their exchange (all probes pooled)</p>",
        _bar_chart(bars, "staleness age (supersteps)", "observations"),
        _line_chart(
            [("max staleness", stale)], "superstep", "max staleness age",
        ),
        "</section>",
    ]
    return "".join(out)


def _critical_path_section(trace: TraceData, analysis: Dict[str, Any]) -> str:
    """Critical-path ribbon: one rect per superstep on the model clock,
    colored by its gating leg, tooltip naming the gating machine/channel."""
    head = (
        '<section id="critical-path"><h2>Critical path</h2>'
        '<p class="section-note">each superstep\'s width on the modeled '
        "cluster clock, colored by the leg that gated it; hover for the "
        "gating machine/channel (text form: repro analyze)</p>"
    )
    steps = analysis.get("supersteps") or []
    if not steps:
        return head + (
            '<p class="section-note">trace has no superstep spans — '
            "rerun with trace=True</p></section>"
        )
    t0 = min(r["model_t0"] for r in steps)
    t1 = max(r["model_t1"] for r in steps)
    xs = _Scale(0.0, max(t1 - t0, 1e-12), _ML, _W - _MR)
    leg_names: List[str] = []
    for r in steps:
        leg = r["gating"].get("leg", "?")
        if leg not in leg_names:
            leg_names.append(leg)
    hue = {n: i for i, n in enumerate(leg_names)}
    ribbon_h = 26
    height = _MT + ribbon_h + _MB
    parts = [
        head,
        f'<svg viewBox="0 0 {_W} {height}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">',
    ]
    for r in steps:
        x0 = xs(r["model_t0"] - t0)
        x1 = xs(r["model_t1"] - t0)
        gate = r["gating"]
        who = (
            f"machine {gate.get('machine')}"
            if gate.get("kind") == "machine"
            else f"channel {gate.get('channel')}"
        )
        color = f"var(--s{hue[gate.get('leg', '?')] % 4 + 1})"
        parts.append(
            f'<rect x="{x0:.1f}" y="{_MT}" width="{max(x1 - x0, 0.6):.1f}" '
            f'height="{ribbon_h}" fill="{color}">'
            f"<title>superstep {r['superstep']}: {_fmt(r['model_s'])}s — "
            f"{_esc(gate.get('leg', '?'))} gated by {_esc(who)}"
            f"</title></rect>"
        )
    for t in _ticks(0.0, t1 - t0, 6):
        parts.append(
            f'<text class="tick-label" x="{xs(t):.1f}" '
            f'y="{height - _MB + 16}" text-anchor="middle">{_fmt(t)}</text>'
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{height - 2}" '
        f'text-anchor="middle">modeled cluster time (s)</text>'
    )
    parts.append("</svg>")
    parts.append(_legend(leg_names))
    parts.append("</section>")
    return "".join(parts)


def _straggler_section(trace: TraceData, analysis: Dict[str, Any]) -> str:
    """Per-machine busy bars + gated-superstep counts + imbalance vs λ."""
    head = (
        '<section id="stragglers"><h2>Stragglers / load balance</h2>'
        '<p class="section-note">modeled busy seconds per machine '
        "(from the per-machine work spans); hover for the number "
        "of supersteps that machine gated</p>"
    )
    md = analysis.get("machines_detail") or {}
    busy = md.get("busy_s") or []
    if not busy or not any(busy):
        return head + (
            '<p class="section-note">trace has no machine-attributed '
            "busy time — rerun with trace=True</p></section>"
        )
    gated = md.get("gated_supersteps") or [0] * len(busy)
    bars = [
        (f"m{m} ({gated[m]}×)", b) for m, b in enumerate(busy)
    ]
    st = analysis.get("stragglers") or {}
    notes = []
    if st.get("machine") is not None:
        notes.append(
            f"straggler: machine {st['machine']} — busy imbalance "
            f"max/mean = {st.get('imbalance', 1.0):.3f}"
        )
    lam = st.get("replication_factor")
    if isinstance(lam, (int, float)):
        notes.append(
            f"replication factor λ = {lam:.3f}: λ prices the exchange "
            "volume laziness avoids; the imbalance says how much of the "
            "remaining time one straggler gates"
        )
    note_html = "".join(
        f'<p class="section-note">{_esc(n)}</p>' for n in notes
    )
    return (
        head
        + _bar_chart(bars, "machine (×supersteps gated)", "busy seconds")
        + note_html
        + "</section>"
    )


def _machine_timeline_section(trace: TraceData) -> str:
    spans = [s for s in trace.spans if s.get("cat") == "machine"]
    head = (
        '<section id="machine-timeline"><h2>Per-machine timeline</h2>'
        '<p class="section-note">host-clock lanes of per-machine work '
        "spans (one lane per machine)</p>"
    )
    if not spans:
        return head + (
            '<p class="section-note">trace has no per-machine spans — '
            "rerun with trace=True</p></section>"
        )
    machines = sorted(
        {int((s.get("attrs") or {}).get("machine", -1)) for s in spans}
    )
    names = sorted({str(s.get("name")) for s in spans})
    lane = {m: i for i, m in enumerate(machines)}
    hue = {n: i for i, n in enumerate(names)}
    t0 = min(float(s.get("host_t0", 0.0)) for s in spans)
    t1 = max(float(s.get("host_t1", 0.0)) for s in spans)
    lane_h = 18
    height = _MT + len(machines) * lane_h + _MB
    xs = _Scale(0.0, max(t1 - t0, 1e-9), _ML, _W - _MR)
    parts = [
        head,
        f'<svg viewBox="0 0 {_W} {height}" role="img" '
        f'preserveAspectRatio="xMidYMid meet">',
    ]
    for m in machines:
        y = _MT + lane[m] * lane_h
        parts.append(
            f'<line class="grid" x1="{_ML}" x2="{_W - _MR}" '
            f'y1="{y + lane_h - 1:.1f}" y2="{y + lane_h - 1:.1f}"/>'
        )
        parts.append(
            f'<text class="tick-label" x="{_ML - 6}" '
            f'y="{y + lane_h - 5:.1f}" text-anchor="end">m{m}</text>'
        )
    for s in spans:
        a = s.get("attrs") or {}
        m = int(a.get("machine", -1))
        x0 = xs(float(s.get("host_t0", 0.0)) - t0)
        x1 = xs(float(s.get("host_t1", 0.0)) - t0)
        y = _MT + lane[m] * lane_h + 2
        w = max(x1 - x0, 1.0)
        color = f"var(--s{hue[str(s.get('name'))] % 4 + 1})"
        dur = (float(s.get("host_t1", 0.0)) - float(s.get("host_t0", 0.0)))
        tip = f"m{m} {s.get('name')}: {dur * 1e3:.3f}ms host"
        if "superstep" in a:
            tip += f" · superstep {a['superstep']}"
        if "busy_s" in a:
            tip += f" · modeled busy {_fmt(float(a['busy_s']))}s"
        parts.append(
            f'<rect x="{x0:.1f}" y="{y}" width="{w:.1f}" '
            f'height="{lane_h - 4}" rx="2" fill="{color}">'
            f"<title>{_esc(tip)}</title></rect>"
        )
    for t in _ticks(0.0, t1 - t0, 6):
        parts.append(
            f'<text class="tick-label" x="{xs(t):.1f}" '
            f'y="{height - _MB + 16}" text-anchor="middle">'
            f"{_fmt(t * 1e3)}ms</text>"
        )
    parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.0f}" y="{height - 2}" '
        f'text-anchor="middle">host time since first span</text>'
    )
    parts.append("</svg>")
    parts.append(_legend(names))
    parts.append("</section>")
    return "".join(parts)


def _channel_section(trace: TraceData) -> str:
    ledgers = [
        i for i in trace.instants if i.get("name") == "channel-ledger"
    ]
    head = (
        '<section id="channels"><h2>Per-channel traffic</h2>'
        '<p class="section-note">cumulative bytes moved per exchange-plane '
        "channel, sampled once per superstep by the lens</p>"
    )
    if not ledgers:
        return head + (
            '<p class="section-note">trace has no channel-ledger '
            "snapshots (lens=False run)</p></section>"
        )
    names: List[str] = []
    series: Dict[str, List[Tuple[float, float]]] = {}
    for inst in ledgers:
        a = inst.get("attrs") or {}
        s = float(a.get("superstep", 0))
        for key, v in a.items():
            if key.endswith(".bytes"):
                name = key[: -len(".bytes")]
                if name not in series:
                    series[name] = []
                    names.append(name)
                series[name].append((s, float(v)))
    chart = _line_chart(
        [(n, series[n]) for n in names],
        "superstep",
        "cumulative bytes",
        tooltip="{name} through superstep {x}: {y}B",
    )
    return head + chart + _legend(names) + "</section>"


def _decision_section(trace: TraceData) -> str:
    decisions = [
        i for i in trace.instants if i.get("name") == "coherency-decision"
    ]
    if not decisions:
        return ""
    by_kind: Dict[str, Dict[str, int]] = {}
    for d in decisions:
        a = d.get("attrs") or {}
        kind = str(a.get("kind", "?"))
        verdict = str(a.get("verdict", "?"))
        by_kind.setdefault(kind, {})
        by_kind[kind][verdict] = by_kind[kind].get(verdict, 0) + 1
    rows = []
    for kind in sorted(by_kind):
        verdicts = ", ".join(
            f"{v}×{n}" for v, n in sorted(by_kind[kind].items())
        )
        rows.append(f"<div><strong>{_esc(kind)}</strong>: {_esc(verdicts)}</div>")
    return (
        '<section id="decisions"><h2>Coherency decisions</h2>'
        '<p class="section-note">audit-log verdict counts per decision '
        f'kind ({len(decisions)} entries)</p>{"".join(rows)}</section>'
    )


# ----------------------------------------------------------------------
# Two-run comparison (``repro dashboard --compare a.jsonl b.jsonl``)
# ----------------------------------------------------------------------
def _active_series(trace: TraceData) -> List[Tuple[float, float]]:
    return [
        (float(c.get("model_t", 0.0)), float(c.get("value", 0.0)))
        for c in trace.counters
        if c.get("name") == "active_vertices"
    ]


def _traffic_series(trace: TraceData) -> List[Tuple[float, float]]:
    """Cumulative bytes over supersteps, summed across all channels."""
    points: List[Tuple[float, float]] = []
    for inst in trace.instants:
        if inst.get("name") != "channel-ledger":
            continue
        a = inst.get("attrs") or {}
        total = sum(
            float(v) for k, v in a.items() if k.endswith(".bytes")
        )
        points.append((float(a.get("superstep", 0)), total))
    return points


def _decision_timeline(trace: TraceData) -> List[Tuple[float, float]]:
    """Cumulative executed coherency points over supersteps."""
    points: List[Tuple[float, float]] = []
    count = 0
    for inst in trace.instants:
        if inst.get("name") != "coherency-decision":
            continue
        a = inst.get("attrs") or {}
        if a.get("kind") != "coherency" or a.get("verdict") != "exchange":
            continue
        count += 1
        points.append((float(a.get("superstep", 0)), float(count)))
    return points


def _compare_summary_section(
    traces: Sequence[TraceData], labels: Sequence[str]
) -> str:
    keys = (
        ("modeled_time_s", "modeled time", lambda v: f"{v:.4f}s"),
        ("supersteps", "supersteps", lambda v: f"{int(v)}"),
        ("coherency_points", "coherency points", lambda v: f"{int(v)}"),
        ("global_syncs", "global syncs", lambda v: f"{int(v)}"),
        ("comm_bytes", "traffic", lambda v: f"{v / 1e6:.3f}MB"),
        ("comm_messages", "messages", lambda v: f"{int(v)}"),
    )
    blocks = []
    for label, trace in zip(labels, traces):
        stats = trace.stats
        meta = trace.meta
        tiles = []
        for key, name, fmt in keys:
            if key in stats:
                tiles.append(
                    f'<div class="tile"><div class="v">{_esc(fmt(stats[key]))}'
                    f'</div><div class="k">{_esc(name)}</div></div>'
                )
        sub = (
            f"{meta.get('engine', '?')} / {meta.get('algorithm', '?')} — "
            f"{meta.get('machines', '?')} machines"
        )
        blocks.append(
            f"<h2>{_esc(label)}</h2>"
            f'<p class="section-note">{_esc(sub)}</p>'
            f'<div class="tiles">{"".join(tiles)}</div>'
        )
    return (
        "<h1>Run comparison</h1>"
        f'<p class="sub">{_esc(labels[0])} vs {_esc(labels[1])}</p>'
        f'<section id="compare-summary">{"".join(blocks)}</section>'
    )


def render_compare_dashboard(
    traces: Sequence[TraceData],
    labels: Optional[Sequence[str]] = None,
    title: Optional[str] = None,
) -> str:
    """Overlay two traces: convergence, traffic and decision timelines.

    The A/B view behind ``repro dashboard --compare a.jsonl b.jsonl`` —
    one self-contained HTML document (inline SVG/CSS, no scripts) with
    both runs' series on shared axes, so a policy ablation reads off a
    single page.
    """
    traces = list(traces)
    if len(traces) != 2:
        raise ValueError(
            f"render_compare_dashboard takes exactly 2 traces, "
            f"got {len(traces)}"
        )
    labels = [str(x) for x in (labels or ["run A", "run B"])]
    convergence = _line_chart(
        [(lbl, _active_series(t)) for lbl, t in zip(labels, traces)],
        "modeled cluster time (s)",
        "active vertices",
        tooltip="{name} at t={x}s: {y}",
    )
    traffic = _line_chart(
        [(lbl, _traffic_series(t)) for lbl, t in zip(labels, traces)],
        "superstep",
        "cumulative bytes (all channels)",
        tooltip="{name} through superstep {x}: {y}B",
    )
    decisions = _line_chart(
        [(lbl, _decision_timeline(t)) for lbl, t in zip(labels, traces)],
        "superstep",
        "executed coherency points",
        tooltip="{name}: {y} exchanges by superstep {x}",
    )
    legend = _legend(labels)
    body = "".join([
        _compare_summary_section(traces, labels),
        '<section id="convergence"><h2>Convergence</h2>'
        '<p class="section-note">active-vertex count over modeled cluster '
        "time, both runs</p>" + convergence + legend + "</section>",
        '<section id="traffic"><h2>Traffic</h2>'
        '<p class="section-note">cumulative exchange-plane bytes per '
        "superstep (lens channel-ledger snapshots; empty for lens=False "
        "traces)</p>" + traffic + legend + "</section>",
        '<section id="decisions"><h2>Decision timeline</h2>'
        '<p class="section-note">cumulative executed coherency exchanges '
        "from the decision audit log</p>" + decisions + legend
        + "</section>",
    ])
    doc_title = title or f"compare — {labels[0]} vs {labels[1]}"
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<title>{_esc(doc_title)}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root">{body}</body></html>\n'
    )


# ----------------------------------------------------------------------
def render_dashboard(trace: TraceData, title: Optional[str] = None) -> str:
    """Render one trace as a complete standalone HTML document."""
    doc_title = title or (
        f"coherency lens — {trace.meta.get('engine', '?')}/"
        f"{trace.meta.get('algorithm', '?')}"
    )
    from repro.obs.critical_path import analyze_trace

    analysis = analyze_trace(trace)
    body = "".join([
        _summary_section(trace),
        _serving_section(trace),
        _anomaly_section(trace),
        _critical_path_section(trace, analysis),
        _straggler_section(trace, analysis),
        _convergence_section(trace),
        _lens_sections(trace),
        _machine_timeline_section(trace),
        _channel_section(trace),
        _decision_section(trace),
    ])
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en"><head><meta charset="utf-8">'
        '<meta name="viewport" content="width=device-width, initial-scale=1">'
        f"<title>{_esc(doc_title)}</title>"
        f"<style>{_CSS}</style></head>"
        f'<body class="viz-root">{body}</body></html>\n'
    )
