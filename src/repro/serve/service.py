"""GraphService: a resident graph-query serving layer over one session.

The paper's engines are batch artifacts: one algorithm, one run, one
result. A serving workload inverts that shape — many small point
queries ("PPR around these seeds", "hops from this vertex") against one
resident graph, arriving asynchronously. :class:`GraphService` fronts a
:class:`~repro.session.GraphSession` with the three mechanisms that
workload needs:

* **a request queue + dispatcher thread**: ``submit`` returns a
  :class:`concurrent.futures.Future` immediately; every engine run
  executes on the single dispatcher thread, so the session's cached
  artifacts are never raced;
* **query batching**: requests are drained in windows of up to
  ``max_batch`` requests / ``max_wait`` seconds. Identical queries in a
  window always share one run (single-flight). In ``batch_mode="fused"``
  (the default), *compatible point queries* — BFS-distance queries, or
  PPR queries differing only in seeds — additionally fuse into **one
  shared multi-source delta sweep** (``msbfs`` over the union of
  sources; ``ppr`` over the union of seeds). A fused answer is the
  multi-source result, bit-identical to a fresh ``repro.run`` of the
  union program; ``ServedResult.batched``/``sources_served`` make the
  fusion visible, and ``batch_mode="exact"`` turns it off for callers
  that need per-source isolation;
* **an LRU result cache** keyed on ``(graph version, engine, program,
  params, source set, policy)``. An entry is the run's result with its
  values copied once into a read-only ``float64`` array
  (``flags.writeable = False``) and its stats detached
  (:meth:`~repro.cluster.stats.RunStats.copy`). Every caller — a hit,
  or each rider of a shared run — gets a fresh writable
  ``values.copy()``, so no answer shares an array with another answer
  or with the cache.

**Hits do not queue.** ``submit`` canonicalises the request and looks
its key up on the caller's thread; a hit resolves the future before
``submit`` returns, with zero-width batch and run legs and zero engine
cost. The lookup is skipped while a mutation is queued or applying:
``submit_mutation`` counts one up, and the dispatcher counts it down
once ``session.apply`` returns or raises. A query submitted behind a
mutation therefore still waits for it in the FIFO, and any later hit
is keyed on the post-mutation graph version. A request that does not
canonicalise goes through the queue and fails on the dispatcher, like
every other error. ``serve.batches`` counts dispatcher batches only; a
submit-time hit rides none.

One lock guards what client threads share with the dispatcher: the
LRU, the ``serve.*`` counters and in-flight count, and the latency
histogram. Engine runs, array copies and sink writes happen outside it
(the trace and telemetry sinks serialise their own writes).

The resident graph accepts **mutations in-band**:
``submit_mutation(batch)`` / ``mutate(batch)`` enqueue a
:class:`~repro.graph.mutation.MutationBatch` as a FIFO *barrier* — every
query accepted before it answers against the pre-mutation graph, the
session then applies the batch (``session.apply``, bumping
``graph_version``), and every query after answers against the patched
graph. Cache invalidation is free because ``graph_version`` is part of
the result-cache key; the CLI verb is ``mutate {json}`` on the
``repro serve`` stdin protocol.

Every query carries a :class:`~repro.obs.request_trace.RequestContext`
(request id, the host timestamps of its queue/batch/run/handout legs,
how it was served and what it cost), written once per fact and read by
both the :class:`ServedResult` and the trace; opt-in observability
rides on it with zero behavior change:

* ``trace_out=`` streams a **serve trace** — one record per request and
  one per engine run (holding that run's own tracer stream), with
  fused/single-flight engine cost split bit-exactly across riding
  requests (:mod:`repro.obs.request_trace`; ``repro analyze``);
* ``telemetry_out=`` attaches a :class:`~repro.obs.telemetry.
  TelemetrySink` ticker sampling queue depth, in-flight count, cache
  hit rate and sliding-window per-class latency quantiles
  (``repro analyze``: view, ``--follow``, SLO thresholds).

Neither sink touches the ``serve.*`` metrics registry, so counters and
answers are bit-identical whether observability is on or off.
"""

from __future__ import annotations

import itertools
import queue
import threading
import time
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.errors import ConfigError
from repro.graph.mutation import MutationBatch
from repro.obs.metrics import MetricsRegistry
from repro.obs.request_trace import RequestContext, ServeTraceWriter, split_cost
from repro.obs.telemetry import TelemetrySink
from repro.obs.tracer import Tracer
from repro.runtime.registry import get_engine
from repro.runtime.result import EngineResult
from repro.runtime.run_config import RunConfig
from repro.session import ApplyResult, GraphSession

__all__ = ["GraphService", "QueryRequest", "ServedResult"]

# algorithms whose point queries fuse into one multi-source sweep, and
# the canonical multi-source program each fuses into
_FUSABLE = {"bfs": "msbfs", "msbfs": "msbfs", "ppr": "ppr"}
# how each algorithm spells its source set as program parameters
_SOURCE_PARAM = {
    "bfs": "source", "sssp": "source", "msbfs": "sources", "ppr": "seeds",
}


@dataclass(frozen=True)
class QueryRequest:
    """One algorithm request against the resident graph."""

    algorithm: str
    sources: Tuple[int, ...] = ()
    params: Tuple[Tuple[str, Any], ...] = ()

    @classmethod
    def make(
        cls, algorithm: str, sources: Sequence[int] = (), **params: Any
    ) -> "QueryRequest":
        # freeze list-valued params (e.g. seeds=[1, 2]) so requests stay
        # hashable — batching dedups on request identity
        frozen = tuple(
            (k, tuple(v) if isinstance(v, (list, set)) else v)
            for k, v in sorted(params.items())
        )
        return cls(
            algorithm=algorithm,
            sources=tuple(int(s) for s in sources),
            params=frozen,
        )

    @property
    def params_dict(self) -> Dict[str, Any]:
        return dict(self.params)


@dataclass
class ServedResult:
    """A query answer plus how it was produced.

    ``batched`` marks answers produced by a fused multi-source sweep;
    ``sources_served`` is then the union source set the sweep ran over
    (equal to the request's own sources otherwise). ``cached`` marks
    LRU hits. ``latency_s`` is submit-to-completion wall time — the
    left-to-right sum of the request's queue/batch/run/handout leg
    widths, so it matches the traced waterfall bit-for-bit.
    ``request_id`` names this request across the trace and telemetry
    planes; ``engine_cost_s`` is the share of engine modeled time
    attributed to this request (0 for cache hits, an exact
    ``1/riders`` split for fused runs); ``cache_key`` is the artifact
    key an LRU hit was served from.
    """

    result: EngineResult
    request: QueryRequest
    cached: bool = False
    batched: bool = False
    sources_served: Tuple[int, ...] = ()
    batch_size: int = 1
    latency_s: float = 0.0
    request_id: int = 0
    engine_cost_s: float = 0.0
    cache_key: Optional[str] = None


@dataclass
class _Pending:
    request: QueryRequest
    future: Future
    ctx: RequestContext


@dataclass
class _PendingMutation:
    """A mutation request riding the same FIFO as queries.

    Queue order is the consistency contract: queries submitted before
    the mutation answer against the old graph version, queries after it
    against the new one. Mutations are not engine runs and take no
    trace record.
    """

    batch: MutationBatch
    future: Future


_STOP = object()


def _frozen(result: EngineResult) -> EngineResult:
    """The LRU's copy of ``result``: read-only float64 values, detached
    stats, no trace."""
    values = np.array(result.values, dtype=np.float64)
    values.flags.writeable = False
    return replace(
        result, values=values, stats=result.stats.copy(), trace=None
    )


def _thawed(entry: EngineResult) -> EngineResult:
    """One caller's independent, writable copy of an LRU entry."""
    return replace(entry, values=entry.values.copy(), stats=entry.stats.copy())


def _close_legs(ctx: RequestContext, now: float) -> None:
    """Stamp every leg boundary the request has not reached with ``now``."""
    for stamp in ("t_dispatch", "t_run0", "t_run1"):
        if getattr(ctx, stamp) == 0.0:
            setattr(ctx, stamp, now)


class GraphService:
    """Resident query service over one :class:`GraphSession`.

    Parameters
    ----------
    session:
        An open session the service takes queries against (not owned:
        closing the service leaves the session open).
    engine / policy:
        Fixed run-level configuration every query runs under, resolved
        here: an unknown engine or policy, or a policy on an eager
        engine, raises :class:`ConfigError` before any thread starts.
    max_batch / max_wait:
        Batching window: the dispatcher drains up to ``max_batch``
        queued requests, waiting at most ``max_wait`` seconds for
        stragglers after the first.
    cache_size:
        LRU capacity in distinct query keys (0 disables caching).
    batch_mode:
        ``"fused"`` (default) fuses compatible point queries into one
        multi-source sweep; ``"exact"`` only ever shares runs between
        *identical* queries.
    trace_out:
        Path for the serve trace JSONL (None disables request
        tracing; see :mod:`repro.obs.request_trace`).
    telemetry_out / telemetry_interval / telemetry_window:
        Path for the append-only service telemetry JSONL (None disables
        the ticker), its sampling interval, and the sliding-window
        horizon for per-class latency quantiles.
    """

    def __init__(
        self,
        session: GraphSession,
        engine: str = "lazy-block",
        policy: Any = None,
        max_batch: int = 8,
        max_wait: float = 0.002,
        cache_size: int = 128,
        batch_mode: str = "fused",
        trace_out: Optional[str] = None,
        telemetry_out: Optional[str] = None,
        telemetry_interval: float = 1.0,
        telemetry_window: float = 60.0,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        if max_wait < 0:
            raise ConfigError(f"max_wait must be >= 0, got {max_wait}")
        if cache_size < 0:
            raise ConfigError(f"cache_size must be >= 0, got {cache_size}")
        if batch_mode not in ("fused", "exact"):
            raise ConfigError(
                f"batch_mode must be 'fused' or 'exact', got {batch_mode!r}"
            )
        # None on an eager engine; the resolved policy on a lazy one
        self.policy = RunConfig(policy=policy).engine_kwargs(
            get_engine(engine)
        ).get("policy")
        self._policy_key = repr(self.policy)
        self.session = session
        self.engine = engine
        self.max_batch = max_batch
        self.max_wait = max_wait
        self.batch_mode = batch_mode
        self.cache_size = cache_size
        self._cache: "OrderedDict[Tuple, EngineResult]" = OrderedDict()
        # guards the cache, counters, histogram, in-flight and barrier
        # counts, and the sinks: client threads answer hits themselves
        self._lock = threading.Lock()
        # mutations submitted and not yet applied (or failed): while
        # nonzero, submit() leaves every query to the FIFO
        self._mutations_queued = 0
        self.metrics = MetricsRegistry()
        self._latency = self.metrics.histogram(
            "serve.latency_s",
            buckets=[0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 60],
        )
        # request/batch/run identity for the trace + telemetry planes;
        # inflight is a plain int (NOT a registry metric) so the serve.*
        # counter export stays byte-identical with observability off
        self._req_ids = itertools.count(1)
        self._batch_ids = itertools.count(1)
        self._run_ids = itertools.count(1)
        self._inflight = 0
        self._trace = ServeTraceWriter(trace_out) if trace_out else None
        self._telemetry = (
            TelemetrySink(
                self, telemetry_out,
                interval_s=telemetry_interval, window_s=telemetry_window,
            )
            if telemetry_out else None
        )
        self._queue: "queue.Queue" = queue.Queue()
        self._closed = False
        self._cancel = False
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()

    # ------------------------------------------------------------------
    # public API
    def submit(
        self, algorithm: str, sources: Sequence[int] = (), **params: Any
    ) -> "Future[ServedResult]":
        """Enqueue one query; resolve its answer asynchronously.

        A cache hit is answered on the calling thread: its future is
        resolved when this returns.
        """
        if self._closed:
            raise ConfigError("service is closed")
        req = QueryRequest.make(algorithm, sources, **params)
        fut: "Future[ServedResult]" = Future()
        pending = _Pending(req, fut, RequestContext(
            request_id=next(self._req_ids),
            algorithm=algorithm,
            sources=req.sources,
        ))
        with self._lock:
            self.metrics.counter("serve.queries").inc()
            self._inflight += 1
        if not self._serve_hit(pending):
            self._queue.put(pending)
        return fut

    def query(
        self,
        algorithm: str,
        sources: Sequence[int] = (),
        timeout: Optional[float] = None,
        **params: Any,
    ) -> ServedResult:
        """Blocking :meth:`submit` — returns the served answer."""
        return self.submit(algorithm, sources, **params).result(timeout)

    def submit_mutation(
        self, batch: MutationBatch
    ) -> "Future[ApplyResult]":
        """Enqueue a graph mutation; resolves to the session's
        :class:`~repro.session.ApplyResult`.

        The mutation rides the request FIFO: every query already
        submitted is served (against the current graph version) before
        the batch applies, the version bump then retires the LRU for
        free (cache keys carry the graph version), and later queries
        answer against the mutated graph.
        """
        if self._closed:
            raise ConfigError("service is closed")
        if not isinstance(batch, MutationBatch):
            raise ConfigError(
                f"submit_mutation takes a MutationBatch, "
                f"got {type(batch).__name__}"
            )
        fut: "Future[ApplyResult]" = Future()
        with self._lock:
            self.metrics.counter("serve.mutations").inc()
            self._inflight += 1
            self._mutations_queued += 1
        self._queue.put(_PendingMutation(batch, fut))
        return fut

    def mutate(
        self, batch: MutationBatch, timeout: Optional[float] = None
    ) -> ApplyResult:
        """Blocking :meth:`submit_mutation`."""
        return self.submit_mutation(batch).result(timeout)

    def stats(self) -> Dict[str, Any]:
        """Service counters + latency summary (JSON-serializable)."""
        with self._lock:
            out = self.metrics.export()
        hits = out.get("serve.cache_hits", 0.0)
        misses = out.get("serve.cache_misses", 0.0)
        total = hits + misses
        out["serve.cache_hit_rate"] = hits / total if total else 0.0
        return out

    def telemetry_snapshot(self) -> Dict[str, Any]:
        """Instantaneous service state for the telemetry ticker.

        Read-only: samples the queue, in-flight count, cache occupancy,
        cumulative ``serve.*`` counters/latency, and the session's
        artifact census. Values are best-effort snapshots (the
        dispatcher keeps running while we read).
        """
        with self._lock:
            exported = self.metrics.export()
            inflight = self._inflight
            entries = len(self._cache)
        counters = {
            k: v for k, v in exported.items() if not isinstance(v, dict)
        }
        latency = exported.get("serve.latency_s")
        hits = counters.get("serve.cache_hits", 0.0)
        misses = counters.get("serve.cache_misses", 0.0)
        lookups = hits + misses
        return {
            "queue_depth": self._queue.qsize(),
            "inflight": inflight,
            "cache": {
                "entries": entries,
                "capacity": self.cache_size,
            },
            "counters": counters,
            "hit_rate": hits / lookups if lookups else 0.0,
            "latency": latency if isinstance(latency, dict) else {},
            "session": self.session.artifact_stats(),
        }

    def close(self, timeout: float = 30.0, mode: str = "drain") -> None:
        """Stop the service deterministically (idempotent).

        ``mode="drain"`` (default) serves every request already
        submitted — including any that raced past the shutdown sentinel
        — before returning, so no accepted future is left unresolved.
        ``mode="cancel"`` resolves queued-but-unstarted requests with
        ``Future.cancel()`` instead (requests already being served
        complete normally). Either way ``submit`` raises immediately
        once close begins, and the trace/telemetry sinks are flushed
        and closed last.
        """
        if mode not in ("drain", "cancel"):
            raise ConfigError(
                f"close mode must be 'drain' or 'cancel', got {mode!r}"
            )
        if self._closed:
            return
        self._cancel = mode == "cancel"
        self._closed = True
        self._queue.put(_STOP)
        self._dispatcher.join(timeout)
        # the submit/close race can enqueue requests behind _STOP; the
        # dispatcher never sees them, so resolve them here on the
        # closing thread (the dispatcher is gone)
        leftovers: List[_Pending] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if item is not _STOP:
                leftovers.append(item)
        if leftovers:
            if self._cancel:
                for p in leftovers:
                    self._cancel_pending(p)
            else:
                # preserve FIFO semantics: mutations stay barriers even
                # in the drain path
                run: List[_Pending] = []
                for p in leftovers:
                    if isinstance(p, _PendingMutation):
                        if run:
                            self._serve_batch(run)
                            run = []
                        self._apply_mutation(p)
                    else:
                        run.append(p)
                if run:
                    self._serve_batch(run)
        if self._telemetry is not None:
            self._telemetry.close()
        if self._trace is not None:
            self._trace.close(meta={"service_stats": self.stats()})

    def __enter__(self) -> "GraphService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # dispatcher internals (single thread; owns session.run)
    def _dispatch_loop(self) -> None:
        while True:
            try:
                item = self._queue.get(timeout=0.05)
            except queue.Empty:
                if self._closed:
                    return
                continue
            if item is _STOP:
                return
            if self._cancel:
                self._cancel_pending(item)
                continue
            if isinstance(item, _PendingMutation):
                # a mutation is a barrier: everything before it has
                # already been served (FIFO + single dispatcher thread)
                self._apply_mutation(item)
                continue
            batch = [item]
            tail: Optional[_PendingMutation] = None
            deadline = time.perf_counter() + self.max_wait
            while len(batch) < self.max_batch:
                remaining = deadline - time.perf_counter()
                if remaining <= 0:
                    break
                try:
                    nxt = self._queue.get(timeout=remaining)
                except queue.Empty:
                    break
                if nxt is _STOP:
                    if self._cancel:
                        for p in batch:
                            self._cancel_pending(p)
                    else:
                        self._serve_batch(batch)
                    return
                if isinstance(nxt, _PendingMutation):
                    # close the window early: the queries gathered so
                    # far answer against the pre-mutation graph
                    tail = nxt
                    break
                batch.append(nxt)
            self._serve_batch(batch)
            if tail is not None:
                self._apply_mutation(tail)

    def _apply_mutation(self, pending: _PendingMutation) -> None:
        # the barrier lifts once apply returns or raises: by then the
        # graph version (part of every cache key) is final
        try:
            result = self.session.apply(pending.batch)
        except Exception as exc:
            with self._lock:
                self._mutations_queued -= 1
                self._inflight -= 1
            pending.future.set_exception(exc)
            return
        with self._lock:
            self._mutations_queued -= 1
            self._inflight -= 1
            self.metrics.counter("serve.mutations_applied").inc()
        pending.future.set_result(result)

    def _run_key(
        self, program: str, params: Tuple[Tuple[str, Any], ...],
        sources: Tuple[int, ...],
    ) -> Tuple:
        return (
            self.session.graph_version, self.engine, program,
            repr(params), sources, self._policy_key,
        )

    def _canonical(self, req: QueryRequest) -> Tuple[str, Tuple[int, ...]]:
        """Normalize a request to (program name, ordered source tuple)."""
        srcs = tuple(sorted(set(req.sources)))
        alg = req.algorithm
        if alg in ("bfs", "sssp") and len(srcs) > 1:
            raise ConfigError(
                f"{alg} takes one source, got {len(srcs)}; use msbfs for "
                f"multi-source distance queries"
            )
        if alg == "bfs" and not srcs:
            srcs = (int(req.params_dict.get("source", 0)),)
        if alg in ("msbfs", "ppr") and not srcs:
            key = _SOURCE_PARAM[alg]
            raw = req.params_dict.get(key, ())
            srcs = tuple(sorted({int(s) for s in raw})) if raw else ()
        return alg, srcs

    def _run_params(
        self, alg: str, srcs: Tuple[int, ...], params: Dict[str, Any]
    ) -> Dict[str, Any]:
        params = dict(params)
        key = _SOURCE_PARAM.get(alg)
        if key is not None and srcs:
            params[key] = (
                int(srcs[0]) if key == "source" else list(srcs)
            )
        return params

    def _execute(
        self,
        alg: str,
        srcs: Tuple[int, ...],
        params: Dict[str, Any],
        tracer: Optional[Tracer] = None,
    ) -> EngineResult:
        config = RunConfig(
            engine=self.engine, policy=self.policy,
            params=self._run_params(alg, srcs, params),
            tracer=tracer,
        )
        self._count("serve.runs")
        return self.session.run(alg, config=config)

    def _count(self, name: str) -> None:
        with self._lock:
            self.metrics.counter(name).inc()

    # the two LRU operations run with self._lock held
    def _cache_get(self, key: Tuple) -> Optional[EngineResult]:
        entry = self._cache.get(key)
        if entry is not None:
            self._cache.move_to_end(key)
        return entry

    def _cache_put(self, key: Tuple, entry: EngineResult) -> None:
        if self.cache_size == 0:
            return
        self._cache[key] = entry
        self._cache.move_to_end(key)
        while len(self._cache) > self.cache_size:
            self._cache.popitem(last=False)

    def _serve_hit(self, pending: _Pending) -> bool:
        """Answer ``pending`` from the LRU on the calling thread.

        False — the dispatcher takes it — while a mutation is queued or
        applying, on a miss, and for a request that does not
        canonicalise (the dispatcher fails it).
        """
        try:
            alg, srcs = self._canonical(pending.request)
        except Exception:
            return False
        with self._lock:
            if self._mutations_queued:
                return False
            key = self._run_key(alg, pending.request.params, srcs)
            entry = self._cache_get(key)
            if entry is None:
                return False
            self.metrics.counter("serve.cache_hits").inc()
        self._finish_hit(pending, key, srcs, entry)
        return True

    def _finish_hit(
        self, pending: _Pending, key: Tuple, srcs: Tuple[int, ...],
        entry: EngineResult,
    ) -> None:
        ctx = pending.ctx
        # zero-width run leg: an LRU hit pays no engine time
        _close_legs(ctx, time.perf_counter())
        ctx.cached = True
        ctx.cache_key = repr(key)
        ctx.sources_served = srcs
        self._finish(pending, _thawed(entry))

    # ------------------------------------------------------------------
    # request lifecycle terminals: every accepted request leaves through
    # exactly one of _finish / _fail / _cancel_pending
    def _end_request(
        self, ctx: RequestContext, outcome: str, error: Optional[str] = None
    ) -> None:
        """Stamp a request's end (and every leg it never reached) and
        write its trace record."""
        ctx.t_done = time.perf_counter()
        _close_legs(ctx, ctx.t_done)
        ctx.outcome = outcome
        ctx.error = error
        if self._trace is not None:
            self._trace.record_request(ctx)

    def _finish(self, pending: _Pending, result: EngineResult) -> None:
        ctx = pending.ctx
        self._end_request(ctx, "ok")
        served = ServedResult(
            result=result,
            request=pending.request,
            cached=ctx.cached,
            batched=ctx.batched,
            sources_served=ctx.sources_served,
            batch_size=ctx.batch_size,
            latency_s=ctx.latency_s,
            request_id=ctx.request_id,
            engine_cost_s=ctx.engine_cost_s,
            cache_key=ctx.cache_key,
        )
        if self._telemetry is not None:
            self._telemetry.observe(
                ctx.algorithm, served.latency_s, served.cached
            )
        with self._lock:
            self._inflight -= 1
            self._latency.observe(served.latency_s)
        pending.future.set_result(served)

    def _fail(self, pending: _Pending, exc: BaseException) -> None:
        self._end_request(pending.ctx, "error", repr(exc))
        with self._lock:
            self._inflight -= 1
        pending.future.set_exception(exc)

    def _cancel_pending(
        self, pending: Union[_Pending, _PendingMutation]
    ) -> None:
        """Cancel a queued query or mutation (``close(mode="cancel")``)."""
        if isinstance(pending, _Pending):
            self._end_request(pending.ctx, "cancelled")
        with self._lock:
            if isinstance(pending, _PendingMutation):
                self._mutations_queued -= 1
            self._inflight -= 1
        pending.future.cancel()

    def _serve_batch(self, batch: List[_Pending]) -> None:
        self._count("serve.batches")
        batch_id = next(self._batch_ids)
        t_dispatch = time.perf_counter()
        for p in batch:
            p.ctx.t_dispatch = t_dispatch
            p.ctx.batch_id = batch_id
        # pass 1: cache hits answer immediately; misses group for runs
        groups: "OrderedDict[Tuple, List[_Pending]]" = OrderedDict()
        plans: Dict[Tuple, Tuple[str, Tuple[int, ...], Dict[str, Any]]] = {}
        for p in batch:
            try:
                alg, srcs = self._canonical(p.request)
            except Exception as exc:
                self._fail(p, exc)
                continue
            key = self._run_key(alg, p.request.params, srcs)
            with self._lock:
                entry = self._cache_get(key)
                self.metrics.counter(
                    "serve.cache_misses" if entry is None
                    else "serve.cache_hits"
                ).inc()
            if entry is not None:
                self._finish_hit(p, key, srcs, entry)
                continue
            groups.setdefault(key, []).append(p)
            plans[key] = (alg, srcs, p.request.params_dict)

        # pass 2: fuse compatible single-source groups into one sweep
        if self.batch_mode == "fused":
            groups, plans = self._fuse(groups, plans)

        # pass 3: one engine run per remaining group (single-flight)
        for key, members in groups.items():
            alg, srcs, params = plans[key]
            run_id = next(self._run_ids)
            request_ids = [m.ctx.request_id for m in members]
            run_tracer = Tracer() if self._trace is not None else None
            t_run0 = time.perf_counter()
            try:
                result = self._execute(alg, srcs, params, tracer=run_tracer)
            except Exception as exc:
                t_run1 = time.perf_counter()
                if self._trace is not None:
                    self._trace.record_run(
                        run_id, batch_id, alg, srcs, request_ids,
                        t_run0, t_run1, error=repr(exc),
                    )
                for p in members:
                    p.ctx.run_id = run_id
                    p.ctx.t_run0 = t_run0
                    p.ctx.t_run1 = t_run1
                    self._fail(p, exc)
                continue
            t_run1 = time.perf_counter()
            entry = _frozen(result)
            fused = len({m.request for m in members}) > 1
            # cost attribution: the run's modeled engine time splits
            # across its riders, summing back bit-exactly (split_cost)
            shares = split_cost(
                float(result.stats.modeled_time_s), len(members)
            )
            with self._lock:
                self._cache_put(key, entry)
                if fused:
                    self.metrics.counter("serve.fused_queries").inc(
                        len(members)
                    )
            if self._trace is not None:
                self._trace.record_run(
                    run_id, batch_id, alg, srcs, request_ids,
                    t_run0, t_run1, result=result, tracer=run_tracer,
                )
            for p, share in zip(members, shares):
                ctx = p.ctx
                ctx.run_id = run_id
                ctx.t_run0 = t_run0
                ctx.t_run1 = t_run1
                ctx.batched = fused
                ctx.batch_size = len(members)
                ctx.sources_served = srcs
                ctx.engine_cost_s = share
                # riders of a shared run each get their own copy, so
                # callers can mutate freely
                self._finish(
                    p, result if len(members) == 1 else _thawed(entry)
                )

    def _fuse(
        self,
        groups: "OrderedDict[Tuple, List[_Pending]]",
        plans: Dict[Tuple, Tuple[str, Tuple[int, ...], Dict[str, Any]]],
    ) -> Tuple["OrderedDict[Tuple, List[_Pending]]", Dict]:
        """Merge fusable miss-groups that differ only in their sources."""
        by_family: "OrderedDict[Tuple, List[Tuple]]" = OrderedDict()
        for key in groups:
            alg, srcs, params = plans[key]
            fused_alg = _FUSABLE.get(alg)
            if fused_alg is None or not srcs:
                by_family.setdefault(("solo", key), []).append(key)
                continue
            # compatibility: same fused program + same non-source params
            bare = tuple(
                (k, v) for k, v in sorted(params.items())
                if k != _SOURCE_PARAM[alg]
            )
            by_family.setdefault((fused_alg, repr(bare)), []).append(key)

        out_groups: "OrderedDict[Tuple, List[_Pending]]" = OrderedDict()
        out_plans: Dict[Tuple, Tuple[str, Tuple[int, ...], Dict[str, Any]]] = {}
        for family, keys in by_family.items():
            if family[0] == "solo" or len(keys) == 1:
                for key in keys:
                    out_groups[key] = groups[key]
                    out_plans[key] = plans[key]
                continue
            program = family[0]
            union: set = set()
            members: List[_Pending] = []
            params = {}
            for key in keys:
                alg, srcs, p = plans[key]
                union.update(srcs)
                members.extend(groups[key])
                params = {
                    k: v for k, v in p.items()
                    if k != _SOURCE_PARAM[alg]
                }
            fsrcs = tuple(sorted(union))
            fparams = tuple(sorted(params.items()))
            fkey = self._run_key(program, fparams, fsrcs)
            out_groups.setdefault(fkey, []).extend(members)
            out_plans[fkey] = (program, fsrcs, params)
        return out_groups, out_plans
