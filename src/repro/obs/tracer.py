"""Nested span tracing on two clocks: host time and modeled cluster time.

Every engine drives a :class:`Tracer` through a single handle on
:class:`~repro.runtime.base_engine.BaseEngine`. Spans nest —
superstep → phase (gather / apply / scatter, local-computation,
coherency) → compute pass (one ``machine-work`` span holding the pass's
per-machine columns) — and each records

* **host time** (``time.perf_counter``): how long the simulator itself
  took, and
* **modeled cluster time**: the :class:`~repro.cluster.stats.RunStats`
  ``modeled_time_s`` position at open/close. The tracer learns about
  model-time advancement by observing every ``add_compute`` /
  ``add_comm`` / ``add_sync`` charge (the :class:`NetworkModel` charge
  points), attributing each charge to the innermost open span.

Because the model clock advances *only* through observed charges, the
modeled durations of the ``phase``-category spans tile the run exactly:
their sum equals ``RunStats.modeled_time_s`` (charges landing while no
span is open are kept in :attr:`Tracer.untracked` so nothing is lost).
Note the BSP fold semantics: per-machine compute meters accumulate
silently and become a charge at the next barrier/settle, so lazy
local-computation stages show near-zero *modeled* width (their compute
is folded into the following coherency barrier) while still carrying
host time and an ``est_compute_s`` attribute.

The record types are ``span``, ``instant`` and the closing
``run_meta``; a per-superstep quantity is an attribute of the
``superstep`` span (``active``: the active-vertex count) or of an
instant, never a record type of its own.

The tracer keeps its records in memory only (:attr:`Tracer.records`);
:func:`repro.obs.records.export_trace` writes them to a file once the
run is over. A run that raised (``ConvergenceError``) never calls
:meth:`Tracer.finish`; exporting its tracer in the ``except`` writes
every span that closed, without the ``run_meta`` line.
"""

from __future__ import annotations

import time
from typing import Any, Dict, List, Optional

__all__ = ["Tracer", "NullTracer", "Span", "NULL_TRACER", "PHASE", "SERVE"]

PHASE = "phase"  # the category whose modeled durations tile the run
SERVE = "serve"  # a serve trace's request / engine-run records
# (repro.obs.request_trace); serve analysis (repro analyze on a serve
# trace) reads only this category


class Span:
    """Handle for one open span; close via ``with`` or :meth:`end`."""

    __slots__ = (
        "tracer", "span_id", "parent_id", "name", "category",
        "host_t0", "model_t0", "attrs", "charges", "_open",
    )

    def __init__(
        self,
        tracer: "Tracer",
        span_id: int,
        parent_id: Optional[int],
        name: str,
        category: str,
        attrs: Dict[str, Any],
    ) -> None:
        self.tracer = tracer
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.category = category
        self.host_t0 = time.perf_counter()
        self.model_t0 = tracer.model_now
        self.attrs = attrs
        self.charges: Dict[str, float] = {}
        self._open = True

    def set(self, **attrs) -> "Span":
        """Attach/overwrite attributes on the open span."""
        self.attrs.update(attrs)
        return self

    def end(self) -> None:
        if self._open:
            self._open = False
            self.tracer._end_span(self)

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, *exc) -> None:
        self.end()


class _NullSpan:
    """Shared no-op span so disabled tracing costs one attribute lookup."""

    __slots__ = ()

    def set(self, **attrs) -> "_NullSpan":
        return self

    def end(self) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Disabled tracer: every operation is a no-op.

    Engines call the tracer unconditionally; when tracing is off this
    keeps the hot paths at a method call of overhead.
    """

    enabled = False

    def span(self, name: str, category: str = "span", **attrs) -> _NullSpan:
        return _NULL_SPAN

    def instant(self, name: str, **attrs) -> None:
        pass

    def emit_closed_span(
        self, name, category, host_t0, host_t1, attrs, charges=None
    ) -> None:
        pass

    def bind_stats(self, stats) -> None:
        pass

    def finish(self, **meta) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Records nested spans and instant events in :attr:`records`."""

    enabled = True

    def __init__(self) -> None:
        self.records: List[Dict[str, Any]] = []
        self.meta: Dict[str, Any] = {}
        self.model_now: float = 0.0
        self.untracked: Dict[str, float] = {}
        self.host_epoch = time.perf_counter()
        self._stack: List[Span] = []
        self._next_id = 1
        self._stats = None
        self._finished = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------
    def bind_stats(self, stats) -> None:
        """Observe a RunStats ledger's model-time charges.

        Every subsequent ``add_compute``/``add_comm``/``add_sync`` on
        ``stats`` is routed to :meth:`on_charge`; the tracer's model
        clock starts at the ledger's current position.
        """
        self._stats = stats
        self.model_now = stats.modeled_time_s
        stats.bind_tracer(self)

    def on_charge(self, kind: str, seconds: float) -> None:
        """One model-time charge (kind: compute | comm | sync)."""
        self.model_now += seconds
        if self._stack:
            span = self._stack[-1]
            span.charges[kind] = span.charges.get(kind, 0.0) + seconds
        else:
            self.untracked[kind] = self.untracked.get(kind, 0.0) + seconds

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def span(self, name: str, category: str = "span", **attrs) -> Span:
        """Open a nested span; close it with ``with`` or ``.end()``."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self, self._next_id, parent, name, category, attrs)
        self._next_id += 1
        self._stack.append(span)
        return span

    def _end_span(self, span: Span) -> None:
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
            # a forgotten child: close it implicitly at the same instant
            top._open = False
            self._emit_span(top)
        self._emit_span(span)

    def _emit_span(self, span: Span) -> None:
        self.records.append({
            "type": "span",
            "id": span.span_id,
            "parent": span.parent_id,
            "name": span.name,
            "cat": span.category,
            "host_t0": span.host_t0 - self.host_epoch,
            "host_t1": time.perf_counter() - self.host_epoch,
            "model_t0": span.model_t0,
            "model_t1": self.model_now,
            "charges": span.charges,
            "attrs": span.attrs,
        })

    def emit_closed_span(
        self,
        name: str,
        category: str,
        host_t0: float,
        host_t1: float,
        attrs: Dict[str, Any],
        charges: Optional[Dict[str, float]] = None,
    ) -> int:
        """Record a span whose host interval the caller measured.

        How a compute pass reports itself once it is over (the
        ``machine-work`` record, ``BaseEngine._compute_pass``).
        Allocates the next span id and parents it to the innermost open
        span, exactly as :meth:`span` would; host times are absolute
        ``perf_counter`` readings, converted to epoch-relative here.
        Both model stamps read the current model clock (no charge lands
        inside a compute pass).
        """
        parent = self._stack[-1].span_id if self._stack else None
        span_id = self._next_id
        self._next_id += 1
        self.records.append({
            "type": "span",
            "id": span_id,
            "parent": parent,
            "name": name,
            "cat": category,
            "host_t0": host_t0 - self.host_epoch,
            "host_t1": host_t1 - self.host_epoch,
            "model_t0": self.model_now,
            "model_t1": self.model_now,
            "charges": dict(charges) if charges else {},
            "attrs": attrs,
        })
        return span_id

    def instant(self, name: str, **attrs) -> None:
        """A point event on both clocks (e.g. an interval-rule decision)."""
        self.records.append({
            "type": "instant",
            "name": name,
            "host_t": time.perf_counter() - self.host_epoch,
            "model_t": self.model_now,
            "attrs": attrs,
        })

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def finish(self, **meta) -> None:
        """Close open spans and record the run metadata.

        ``meta`` normally includes ``engine``/``algorithm`` and the final
        ``stats`` dict (see ``RunStats.to_dict``). Idempotent.
        """
        if self._finished:
            return
        while self._stack:
            self._stack[-1].end()
        self.meta.update(meta)
        if self.untracked:
            self.meta["untracked_charges"] = dict(self.untracked)
        self.records.append({"type": "run_meta", "meta": self.meta})
        self._finished = True

    # ------------------------------------------------------------------
    # Queries (used by tests and the in-memory workflow)
    # ------------------------------------------------------------------
    def spans(self, category: Optional[str] = None) -> List[Dict[str, Any]]:
        out = [r for r in self.records if r["type"] == "span"]
        if category is not None:
            out = [r for r in out if r["cat"] == category]
        return out

    def instants(self, name: Optional[str] = None) -> List[Dict[str, Any]]:
        out = [r for r in self.records if r["type"] == "instant"]
        if name is not None:
            out = [r for r in out if r["name"] == name]
        return out
