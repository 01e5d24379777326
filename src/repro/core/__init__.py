"""The paper's contribution: the LazyAsync execution model.

Replicas of a vertex are treated as *independent vertices* that evolve
local views from local messages only, accumulating ``deltaMsg``; they
re-converge to a shared global view by *computation* at sparse data
coherency points (paper §3). This package provides:

* :class:`LazyBlockAsyncEngine` — paper Algorithm 1 (the engine behind
  every evaluation figure): bulk local-computation stages separated by
  single-barrier coherency stages;
* :class:`LazyVertexAsyncEngine` — paper Algorithm 2 (left as future
  work in the paper; implemented here): no global barrier, one full
  coherency exchange once the oldest pending delta is old enough;
* :class:`CoherencyExchanger` — the delta exchange in both all-to-all
  and mirrors-to-master modes with the paper's §4.2.2 dynamic switch;
* the coherency controllers (:mod:`repro.core.policy`): the paper's
  adaptive rule (§4.2.1) deciding when lazy mode turns on and how long
  a local stage may run is :class:`CoherencyController`; every other
  named policy is a subclass fed the same per-superstep
  :class:`CoherencySignals` snapshot, chosen by one
  :class:`CoherencyPolicy` value;
* :func:`build_lazy_graph` — one-call partition + edge-split pipeline.
"""

from repro.core.coherency import CoherencyExchanger, ExchangeReport
from repro.core.lazy_block_async import LazyBlockAsyncEngine
from repro.core.lazy_vertex_async import LazyVertexAsyncEngine
from repro.core.policy import (
    CoherencyController,
    CoherencyPolicy,
    CoherencySignals,
    controller_names,
    resolve_policy,
)
from repro.core.transmission import build_lazy_graph

__all__ = [
    "CoherencyExchanger",
    "ExchangeReport",
    "CoherencyController",
    "CoherencyPolicy",
    "CoherencySignals",
    "controller_names",
    "resolve_policy",
    "LazyBlockAsyncEngine",
    "LazyVertexAsyncEngine",
    "build_lazy_graph",
]
