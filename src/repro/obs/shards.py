"""Per-machine observability shards, merged deterministically at barriers.

Today every engine runs inside one process, so the tracer can be written
to from anywhere and the lens can read any machine's buffers directly.
That single-stream convenience is exactly what blocks the ROADMAP's
process-parallel backend: once machines live in their own processes,
*nothing* may write to the global tracer (or read another machine's
state) mid-superstep. This module introduces the shard discipline now,
while the lockstep simulator still makes it testable bit-for-bit:

* :class:`MachineCollector` — one per machine. During a superstep the
  machine's observability events (per-machine work spans, ``sweep-mode``
  instants, local work aggregates) are appended to a machine-local
  buffer; nothing touches the tracer.
* :class:`ShardedObs` — the merge point. At superstep barriers and
  coherency points (more precisely: at the end of every machine-loop
  pass, while the enclosing phase span is still open and before any
  model-time charge lands) the engine calls :meth:`ShardedObs.merge`,
  which folds every machine buffer into the tracer's single stream.

Why the merge is deterministic *and* bit-identical to the legacy
inline-emission order: every event is stamped ``(epoch, seq)`` where
``epoch`` is a machine-local pass counter (advanced by ``tick()`` once
per machine-loop pass / micro-iteration — information each machine knows
locally) and ``seq`` orders events within one machine's pass. The
lockstep engines iterate epoch-major, machine-minor, so sorting the
union by ``(epoch, machine_id, seq)`` reproduces the exact order the
legacy code emitted events in. Model-time bookkeeping also survives the
deferral: no model-time charge ever lands while a machine loop runs
(``ClusterSim.add_compute`` only feeds the per-machine busy meters;
charges happen at the following barrier/settle), so a span emitted at
merge time carries the same ``model_t0 == model_t1`` and empty charge
map the inline path recorded.

``buffered=False`` switches a collector to *passthrough*: every call
delegates straight to the tracer, which IS the legacy global-write path.
The shard-equivalence tests run each engine once per mode and assert the
record streams are identical event-for-event — that oracle is what lets
the process-parallel backend later swap real IPC under ``merge()``
without an observability rewrite.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

__all__ = ["MachineCollector", "ShardedObs", "ProbeSample"]


@dataclass
class ProbeSample:
    """One machine's contribution to a lens probe (shippable payload).

    Everything the :class:`~repro.obs.lens.CoherencyLens` needs from one
    machine per superstep, computed from that machine's state alone:
    pending ``deltaMsg`` mass and replica count, the active count, the
    staleness-age bincount of its live deltas, and the machine's values
    at its slots of the deterministic drift sample (``(slot, value)``
    pairs). The lens merger folds these machine-ascending, replaying
    a direct global read's float operations in the same order —
    which is what keeps the merged metrics and instants bit-identical.
    """

    machine: int
    mass: float
    pending: int
    active: int
    #: np.bincount of live staleness ages (length 0 when none pending)
    stale_counts: Any = None
    #: [(drift-sample slot, local value), ...] for this machine's replicas
    drift_values: List[Tuple[int, float]] = field(default_factory=list)

_SPAN = 0
_INSTANT = 1


class _BufferedSpan:
    """Handle for one open span on a machine-local buffer.

    Mirrors the :class:`~repro.obs.tracer.Span` interface (``set`` /
    ``end`` / context manager) so engine loops are mode-oblivious. Host
    times are captured absolutely at work time and made epoch-relative
    at merge.
    """

    __slots__ = ("collector", "name", "category", "attrs", "host_t0", "_open")

    def __init__(
        self,
        collector: "MachineCollector",
        name: str,
        category: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.collector = collector
        self.name = name
        self.category = category
        self.attrs = attrs
        self.host_t0 = time.perf_counter()
        self._open = True

    def set(self, **attrs) -> "_BufferedSpan":
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        if self._open:
            self._open = False
            self.collector._close_span(self)

    def __enter__(self) -> "_BufferedSpan":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class MachineCollector:
    """One machine's local observability buffer.

    Parameters
    ----------
    machine_id:
        The machine this collector belongs to (the merge sort key's
        middle component).
    tracer:
        The run's tracer. Passthrough mode delegates to it directly;
        buffered mode only touches it inside :meth:`ShardedObs.merge`.
    buffered:
        ``True`` buffers locally until the next merge; ``False`` is the
        passthrough/legacy path. Always forced off when the tracer is
        disabled (events would be dropped anyway — passthrough onto the
        ``NullTracer`` keeps the disabled hot path at one method call).
    """

    def __init__(self, machine_id: int, tracer, buffered: bool = True) -> None:
        self.machine_id = machine_id
        self.tracer = tracer
        self.buffered = bool(buffered) and tracer.enabled
        self.epoch = 0
        self._seq = 0
        # (epoch, seq, kind, name, category, host_t0, host_t1, attrs)
        self.events: List[Tuple] = []

    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "machine", **attrs):
        """Open a per-machine work span (buffered or passthrough).

        Buffered spans must not nest within one collector: span order at
        merge is close order, which only equals the tracer's open-order
        id allocation for non-overlapping siblings (all current
        per-machine spans are leaves, enforced by the equivalence tests).
        """
        if not self.buffered:
            return self.tracer.span(name, category=category, **attrs)
        return _BufferedSpan(self, name, category, attrs)

    def instant(self, name: str, **attrs) -> None:
        """A machine-local point event (e.g. a ``sweep-mode`` switch)."""
        if not self.buffered:
            self.tracer.instant(name, **attrs)
            return
        self.events.append((
            self.epoch, self._seq, _INSTANT, name, "",
            time.perf_counter(), 0.0, attrs,
        ))
        self._seq += 1

    def closed_span(
        self, name: str, host_t0: float, host_t1: float,
        category: str = "machine", **attrs,
    ) -> None:
        """Record a span whose host interval the caller measured.

        How a block call reports its machines: one call did the work of
        all of them, so each machine's span carries that call's interval.
        """
        if not self.buffered:
            self.tracer.emit_closed_span(name, category, host_t0, host_t1, attrs)
            return
        self.events.append((
            self.epoch, self._seq, _SPAN, name, category,
            host_t0, host_t1, attrs,
        ))
        self._seq += 1

    def _close_span(self, span: _BufferedSpan) -> None:
        self.events.append((
            self.epoch, self._seq, _SPAN, span.name, span.category,
            span.host_t0, time.perf_counter(), span.attrs,
        ))
        self._seq += 1

    # ------------------------------------------------------------------
    def tick(self) -> None:
        """Advance the machine-local pass clock (one machine-loop pass)."""
        self.epoch += 1
        self._seq = 0

    def reset(self) -> None:
        """Rewind the pass clock after a merge drained the buffer."""
        self.epoch = 0
        self._seq = 0


class ShardedObs:
    """The engine-side handle: all machine collectors + the merge point.

    Engines call :meth:`tick` before every machine-loop pass and
    :meth:`merge` at superstep barriers / coherency points (end of each
    pass group, inside the still-open phase span, before any model-time
    charge). ``set_buffered(False)`` flips every collector to the
    passthrough oracle; the single engine code path serves both modes.
    """

    def __init__(self, tracer, num_machines: int) -> None:
        self.tracer = tracer
        self.collectors = [
            MachineCollector(m, tracer) for m in range(num_machines)
        ]
        self.merges = 0

    # ------------------------------------------------------------------
    @property
    def buffered(self) -> bool:
        return any(c.buffered for c in self.collectors)

    def set_buffered(self, flag: bool) -> None:
        for c in self.collectors:
            c.buffered = bool(flag) and self.tracer.enabled

    def collector(self, machine_id: int) -> MachineCollector:
        return self.collectors[machine_id]

    def tick(self) -> None:
        """Start a new pass epoch on every machine (local clocks only).

        The clocks only order buffered events, and nothing buffers
        under a disabled tracer — the hot path skips the P updates.
        """
        if not self.tracer.enabled:
            return
        for c in self.collectors:
            c.tick()

    # ------------------------------------------------------------------
    def merge(self) -> int:
        """Fold all machine buffers into the tracer's single stream.

        Events are globally ordered by ``(epoch, machine_id, seq)`` —
        exactly the lockstep engines' emission order — then emitted
        through the tracer while the enclosing phase span is still open,
        so parent ids, span-id allocation order, and model-time stamps
        all match the passthrough path bit-for-bit. Returns the number
        of events merged (0 is the common fast path: passthrough mode,
        tracer off, or an empty pass).
        """
        if not self.tracer.enabled:
            return 0
        batch: List[Tuple] = []
        for c in self.collectors:
            if c.events:
                mid = c.machine_id
                batch.extend(
                    (ev[0], mid, ev[1]) + ev[2:] for ev in c.events
                )
                c.events.clear()
            c.reset()
        if not batch:
            return 0
        batch.sort(key=lambda ev: (ev[0], ev[1], ev[2]))
        tracer = self.tracer
        for (_e, _m, _s, kind, name, cat, host_t0, host_t1, attrs) in batch:
            if kind == _SPAN:
                tracer.emit_closed_span(name, cat, host_t0, host_t1, attrs)
            else:
                tracer.emit_instant_at(name, host_t0, attrs)
        self.merges += 1
        return len(batch)
