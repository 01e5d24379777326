"""Spans recorded from outside the program, at each layer's boundary.

Nothing under ``src/`` knows about this module. :meth:`Recorder.install`
swaps the functions and methods listed in :func:`targets` for timing
wrappers (and :meth:`Recorder.uninstall` swaps the originals back), so
a traced run executes exactly the code an untraced run does plus two
``perf_counter`` calls per wrapped call.

A span is ``{id, name, layer, start, end, parent, request, self_s}``;
``request`` is the rep, engine run or batch the harness is in. A span's
*self time* is its duration minus the part its child spans cover.
Functions called more than ~10^4 times per run ("hot") keep no span
record: their count, duration and self time are summed per
``(name, request, superstep)``. Everything stays in memory until
:meth:`Recorder.write`. Every workload calls the wrapped functions from
one thread at a time (the main thread, or the service's dispatcher, and
no span is open when they hand over), so one span stack and no lock.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterable, List, Optional, Tuple

__all__ = ["Recorder", "Target", "targets"]


@dataclass
class Target:
    """One function to wrap: where it lives and what its time feeds."""

    owner: Any
    attr: str
    layer: str
    #: per-layer metric this span's self time is summed into
    metric: Optional[str]
    hot: bool = False
    starts_superstep: bool = False
    starts_run: bool = False
    #: keep the call's return value under ``recorder.captured[key]``
    capture: Optional[str] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            owner = getattr(self.owner, "__name__", str(self.owner))
            self.name = f"{owner.rsplit('.', 1)[-1]}.{self.attr}"


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: List[Dict[str, Any]] = []
        #: (name, request, superstep) -> [count, total, self, layer, metric]
        self.hot: Dict[Tuple, list] = {}
        self.captured: Dict[str, Any] = {}
        self.request: Any = None
        #: when set, every wrapped ``starts_run`` call opens a new request
        self.request_per_run = False
        self.runs = 0
        self.superstep = 0
        #: open spans, innermost last: [start, child_s, id, name, layer,
        #: metric, request]; hot frames carry only the first three
        self._stack: List[list] = []
        self._ids = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- span bookkeeping ------------------------------------------------
    def open(self, name: str, layer: str, metric: Optional[str] = None) -> list:
        """Open a kept span (wrappers do; so does the harness, by hand)."""
        self._ids += 1
        frame = [self.clock(), 0.0, self._ids, name, layer, metric,
                 self.request]
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> float:
        end = self.clock()
        stack = self._stack
        stack.pop()
        start, child, sid, name, layer, metric, request = frame
        dur = end - start
        parent = None
        if stack:
            stack[-1][1] += dur
            parent = stack[-1][2]
        self.spans.append({
            "id": sid, "name": name, "layer": layer, "metric": metric,
            "start": start, "end": end, "parent": parent,
            "request": request, "self_s": dur - child,
        })
        return dur

    # -- install / uninstall ---------------------------------------------
    def _wrap_hot(self, target: Target, fn):
        """A wrapper that only sums: no span record, no id."""
        rec, clock, stack, hot = self, self.clock, self._stack, self.hot
        name, layer, metric = target.name, target.layer, target.metric

        def wrapper(*args, **kwargs):
            frame = [clock(), 0.0, None]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += dur
                key = (name, rec.request, rec.superstep)
                agg = hot.get(key)
                if agg is None:
                    hot[key] = [1, dur, dur - frame[1], layer, metric]
                else:
                    agg[0] += 1
                    agg[1] += dur
                    agg[2] += dur - frame[1]

        return wrapper

    def _wrap(self, target: Target, fn):
        if target.hot:
            return self._wrap_hot(target, fn)
        rec = self
        name, layer, metric = target.name, target.layer, target.metric
        starts_superstep = target.starts_superstep
        starts_run = target.starts_run
        capture = target.capture

        def wrapper(*args, **kwargs):
            if starts_run:
                rec.runs += 1
                rec.superstep = 0
                if rec.request_per_run:
                    rec.request = rec.runs
            frame = rec.open(name, layer, metric)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(frame)
                if starts_superstep:
                    rec.superstep += 1
            if capture is not None:
                rec.captured[capture] = out
            return out

        return wrapper

    def install(self, targets_: Iterable[Target]) -> None:
        for t in targets_:
            if isinstance(t.owner, type):
                raw = t.owner.__dict__[t.attr]
            else:
                raw = getattr(t.owner, t.attr)
            if isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(t, raw.__func__))
            elif isinstance(raw, classmethod):
                new = classmethod(self._wrap(t, raw.__func__))
            else:
                new = self._wrap(t, raw)
            setattr(t.owner, t.attr, new)
            self._installed.append((t.owner, t.attr, raw))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, raw = self._installed.pop()
            setattr(owner, attr, raw)

    # -- reading ---------------------------------------------------------
    def self_by_metric(self) -> Dict[Any, Dict[str, float]]:
        """request -> metric -> summed span self time."""
        out: Dict[Any, Dict[str, float]] = {}
        for span in self.spans:
            if span["metric"] is None:
                continue
            per = out.setdefault(span["request"], {})
            per[span["metric"]] = (
                per.get(span["metric"], 0.0) + span["self_s"]
            )
        for (_name, request, _ss), agg in self.hot.items():
            if agg[4] is None:
                continue
            per = out.setdefault(request, {})
            per[agg[4]] = per.get(agg[4], 0.0) + agg[2]
        return out

    def named(self, name: str) -> List[Dict[str, Any]]:
        """Every kept span called ``name``, in completion order."""
        return [s for s in self.spans if s["name"] == name]

    def calls(self, name: str) -> Dict[Any, int]:
        """request -> number of calls of a hot function."""
        out: Dict[Any, int] = {}
        for (n, request, _ss), agg in self.hot.items():
            if n == name:
                out[request] = out.get(request, 0) + int(agg[0])
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            for (name, request, ss), agg in self.hot.items():
                fh.write(json.dumps({
                    "name": name, "layer": agg[3], "metric": agg[4],
                    "request": request, "superstep": ss,
                    "count": agg[0], "total_s": agg[1], "self_s": agg[2],
                }) + "\n")


def targets(programs: Iterable[Any] = ()) -> List[Target]:
    """Every layer boundary the traced run times.

    ``programs`` are instances of the vertex programs the workload runs;
    the class that defines their ``apply`` is wrapped.
    """
    import repro.core.coherency as coherency
    import repro.core.transmission as transmission
    import repro.graph.generators as generators
    import repro.runtime.machine_runtime as machine_runtime
    import repro.runtime.warm_start as warm_start
    import repro.session as session
    from repro.core.coherency import CoherencyExchanger
    from repro.graph.digraph import DiGraph
    from repro.graph.mutation import MutationBatch
    from repro.kernels import CSRPlan
    from repro.partition.partitioned_graph import PartitionedGraph
    from repro.runtime.backend import SerialBackend
    from repro.runtime.base_engine import BaseEngine
    from repro.runtime.machine_runtime import MachineRuntime
    from repro.runtime.registry import get_engine
    from repro.runtime.result import EngineResult
    from repro.runtime.warm_start import WarmStartProgram
    from repro.session import GraphSession

    engine_cls = get_engine("lazy-block").cls
    out = [
        # session
        Target(GraphSession, "run", "session", "session.run_overhead_s",
               starts_run=True),
        Target(GraphSession, "apply", "session", None),
        # set-up path
        Target(DiGraph, "symmetrized", "graph", "graph.prepare_s"),
        Target(generators, "attach_uniform_weights", "graph",
               "graph.prepare_s"),
        Target(transmission, "partition_graph", "partition",
               "partition.assign_s"),
        Target(PartitionedGraph, "build", "partition", "partition.build_s",
               capture="pgraph"),
        Target(CSRPlan, "__init__", "kernels", "kernels.plan_build_s"),
        # run path
        Target(engine_cls, "__init__", "runtime", "runtime.engine_init_s"),
        Target(BaseEngine, "run", "runtime", "runtime.engine_untracked_s"),
        Target(SerialBackend, "dispatch", "runtime",
               "runtime.dispatch_overhead_s", hot=True),
        Target(MachineRuntime, "take_ready", "runtime",
               "runtime.take_ready_s", hot=True),
        Target(MachineRuntime, "scatter", "runtime", "runtime.scatter_s",
               hot=True),
        Target(CSRPlan, "select", "kernels", "kernels.select_s", hot=True),
        Target(CSRPlan, "flatten", "kernels", "kernels.select_s", hot=True),
        Target(machine_runtime, "scatter_reduce", "kernels",
               "kernels.reduce_s", hot=True),
        Target(machine_runtime, "apply_segment_sums", "kernels",
               "kernels.reduce_s", hot=True),
        Target(coherency, "scatter_reduce", "kernels", "kernels.reduce_s",
               hot=True),
        Target(CoherencyExchanger, "exchange", "core", "core.exchange_s",
               starts_superstep=True),
        Target(CoherencyExchanger, "deliver", "core", "core.deliver_s"),
        # serve
        Target(EngineResult, "to_dict", "serve", "serve.serialize_s"),
        Target(EngineResult, "from_dict", "serve", "serve.deserialize_s"),
        # dynamic: apply path
        Target(MutationBatch, "validate", "graph", "graph.validate_s"),
        Target(session, "apply_batch", "graph", "graph.apply_batch_s"),
        Target(session, "symmetrized_patch", "graph", "graph.apply_batch_s"),
        Target(session, "patch_partition", "partition", "partition.patch_s"),
        # dynamic: incremental path
        Target(session, "plan_warm_start", "runtime", "runtime.warm_plan_s"),
        Target(warm_start, "graph_delta", "runtime",
               "runtime.warm_graph_delta_s"),
        Target(session, "collect_state", "runtime",
               "runtime.collect_state_s"),
    ]
    seen = set()
    for program in list(programs) + [WarmStartProgram]:
        cls = program if isinstance(program, type) else type(program)
        for klass in cls.__mro__:
            if "apply" in klass.__dict__:
                if klass not in seen:
                    seen.add(klass)
                    out.append(Target(klass, "apply", "algorithms",
                                      "algorithms.apply_s", hot=True))
                break
    return out
