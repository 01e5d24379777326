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
* the coherency rule (:mod:`repro.core.policy`): one
  :class:`CoherencyPolicy` value applies the paper's adaptive rule
  (§4.2.1) deciding when lazy mode turns on and how long a local stage
  may run, fed a per-superstep :class:`CoherencySignals` snapshot;
  every named policy is one setting of that rule's parameters;
* :func:`build_lazy_graph` — one-call partition + edge-split pipeline.
"""

from repro.core.coherency import CoherencyExchanger, ExchangeReport
from repro.core.lazy_block_async import LazyBlockAsyncEngine
from repro.core.lazy_vertex_async import LazyVertexAsyncEngine
from repro.core.policy import (
    CoherencyPolicy,
    CoherencySignals,
    controller_names,
    resolve_policy,
)
from repro.core.transmission import build_lazy_graph

__all__ = [
    "CoherencyExchanger",
    "ExchangeReport",
    "CoherencyPolicy",
    "CoherencySignals",
    "controller_names",
    "resolve_policy",
    "LazyBlockAsyncEngine",
    "LazyVertexAsyncEngine",
    "build_lazy_graph",
]
