"""Plain-text plotting for run traces (no plotting dependencies).

Terminal-friendly sparklines and bar charts, and a panel over a run's
trace (the ``active`` attribute of its ``superstep`` spans) — enough to
*see* a run's convergence behaviour (the active-count ascent/descent
that drives the §4.2.1 trend feature) without matplotlib.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

__all__ = ["sparkline", "bar_chart", "timeline_plot"]

_TICKS = "▁▂▃▄▅▆▇█"


def sparkline(values: Sequence[float], width: Optional[int] = None) -> str:
    """Render values as a unicode sparkline, optionally resampled.

    >>> sparkline([0, 1, 2, 3])
    '▁▃▆█'
    """
    vals = [float(v) for v in values]
    if not vals:
        return ""
    if width is not None and width > 0 and len(vals) > width:
        # resample by bucket means
        out = []
        for i in range(width):
            lo = i * len(vals) // width
            hi = max(lo + 1, (i + 1) * len(vals) // width)
            out.append(sum(vals[lo:hi]) / (hi - lo))
        vals = out
    lo, hi = min(vals), max(vals)
    if hi == lo:
        return _TICKS[0] * len(vals)
    span = hi - lo
    return "".join(
        _TICKS[min(len(_TICKS) - 1, int((v - lo) / span * len(_TICKS)))]
        for v in vals
    )


def bar_chart(
    labels: Sequence[str], values: Sequence[float], width: int = 40
) -> str:
    """Horizontal bar chart with aligned labels and values.

    >>> print(bar_chart(["a", "b"], [1.0, 2.0], width=4))
    a  ██    1
    b  ████  2
    """
    if len(labels) != len(values):
        raise ValueError("labels and values must have equal length")
    if not labels:
        return ""
    vmax = max(max(values), 1e-300)
    lwidth = max(len(l) for l in labels)
    lines: List[str] = []
    rendered = [f"{v:g}" for v in values]
    for label, v, text in zip(labels, values, rendered):
        n = int(round(v / vmax * width))
        lines.append(f"{label.ljust(lwidth)}  {('█' * n).ljust(width)}  {text}")
    return "\n".join(lines)


def timeline_plot(trace, width: int = 60) -> str:
    """Summarize a run's trace: active counts + cumulative modeled time.

    ``trace`` is the run's :class:`~repro.obs.tracer.Tracer`
    (``result.trace`` of a run with ``trace=True``). Each ``superstep``
    span that carries ``active`` is one column, placed at the span's end
    on the model clock. Lazy-block's ``interval-decision`` instants add
    a ``lazy`` row: the local-stage verdict in force after each
    superstep. Returns a small multi-line text panel.
    """
    steps = [] if trace is None else [
        s for s in trace.spans("superstep") if "active" in s["attrs"]
    ]
    if not steps:
        return "(no trace recorded — run with trace=True)"
    actives = [s["attrs"]["active"] for s in steps]
    times = [s["model_t1"] for s in steps]
    lines = [
        f"supersteps: {len(steps)}   "
        f"peak active: {max(actives)}   "
        f"final time: {times[-1]:.4f}s",
        f"active  {sparkline(actives, width)}",
        f"time    {sparkline(times, width)}",
    ]
    verdicts = {
        i["attrs"]["superstep"]: i["attrs"]["do_local"]
        for i in trace.instants("interval-decision")
    }
    if verdicts:
        lazy_on, on = [], False
        for s in steps:
            on = verdicts.get(s["attrs"]["superstep"], on)
            lazy_on.append("+" if on else ".")
        if len(lazy_on) > width:
            step = len(lazy_on) / width
            lazy_on = [lazy_on[int(i * step)] for i in range(width)]
        lines.append(f"lazy    {''.join(lazy_on)}   (+ = local stage on)")
    return "\n".join(lines)
