"""GraphService: batching, multi-source fusion, caching, bit-identity.

Fused answers must be bit-identical to a fresh ``repro.run`` of the
union multi-source program; cache hits must be equal to (and share no
arrays with) the miss that populated them. Hits resolve inside
``submit`` unless a mutation is pending, and stay exact with many
client threads and every sink on.
"""

import sys
import threading

import numpy as np
import pytest

import repro
from repro.errors import ConfigError
from repro.graph.mutation import MutationBatch, apply_batch
from repro.obs.records import load_trace
from repro.obs.request_trace import RequestContext, analyze_serve_trace
from repro.serve import GraphService, QueryRequest
from repro.serve.service import _Pending
from repro.session import GraphSession

try:  # Future lives in the stdlib; imported here for direct-batch tests
    from concurrent.futures import Future
except ImportError:  # pragma: no cover
    Future = None

MACHINES = 4


@pytest.fixture
def session(er_graph):
    with GraphSession.open(er_graph, machines=MACHINES, seed=0) as s:
        yield s


@pytest.fixture
def service(session):
    with GraphService(session, max_wait=0.0) as svc:
        yield svc


def _pending(algorithm, sources=(), **params):
    req = QueryRequest.make(algorithm, sources, **params)
    return _Pending(req, Future(), RequestContext(
        request_id=0, algorithm=algorithm, sources=req.sources,
    ))


def _serve_direct(service, *pendings):
    """Run one batch synchronously, bypassing the dispatcher window."""
    service._serve_batch(list(pendings))
    return [p.future.result(timeout=0) for p in pendings]


class TestQueryRequest:
    def test_make_freezes_list_params(self):
        a = QueryRequest.make("ppr", seeds=[1, 2])
        b = QueryRequest.make("ppr", seeds=[1, 2])
        assert a == b and hash(a) == hash(b)
        assert a.params_dict == {"seeds": (1, 2)}

    def test_sources_coerced_to_ints(self):
        req = QueryRequest.make("msbfs", sources=np.array([3, 1]))
        assert req.sources == (3, 1)
        assert all(isinstance(s, int) for s in req.sources)


class TestServingBitIdentity:
    def test_single_query_equals_fresh_run(self, service, er_graph):
        served = service.query("bfs", sources=[0])
        want = repro.run(
            er_graph, "bfs", machines=MACHINES, seed=0, source=0
        )
        assert not served.cached and not served.batched
        assert served.sources_served == (0,)
        assert np.array_equal(served.result.values, want.values)

    def test_msbfs_single_source_equals_bfs(self, service):
        multi = service.query("msbfs", sources=[5])
        single = service.query("bfs", sources=[5])
        assert np.array_equal(multi.result.values, single.result.values)

    def test_fused_batch_equals_fresh_union_run(self, service, er_graph):
        batch = [_pending("bfs", [0]), _pending("bfs", [7])]
        served = _serve_direct(service, *batch)
        want = repro.run(
            er_graph, "msbfs", machines=MACHINES, seed=0, sources=[0, 7]
        )
        for s in served:
            assert s.batched and s.sources_served == (0, 7)
            assert s.batch_size == 2
            assert np.array_equal(s.result.values, want.values)
        assert service.metrics.export()["serve.runs"] == 1.0
        assert service.metrics.export()["serve.fused_queries"] == 2.0

    def test_ppr_seed_queries_fuse(self, service, er_graph):
        batch = [_pending("ppr", [2]), _pending("ppr", [9])]
        served = _serve_direct(service, *batch)
        want = repro.run(
            er_graph, "ppr", machines=MACHINES, seed=0, seeds=[2, 9]
        )
        for s in served:
            assert s.batched and s.sources_served == (2, 9)
            assert np.array_equal(s.result.values, want.values)

    def test_incompatible_params_do_not_fuse(self, service):
        batch = [
            _pending("ppr", [2], damping=0.85),
            _pending("ppr", [9], damping=0.5),
        ]
        served = _serve_direct(service, *batch)
        assert all(not s.batched for s in served)
        assert service.metrics.export()["serve.runs"] == 2.0

    def test_exact_mode_never_fuses(self, session):
        with GraphService(session, batch_mode="exact", max_wait=0.0) as svc:
            served = _serve_direct(
                svc, _pending("bfs", [0]), _pending("bfs", [7])
            )
            assert all(not s.batched for s in served)
            assert svc.metrics.export()["serve.runs"] == 2.0

    def test_identical_queries_share_one_run(self, service):
        served = _serve_direct(
            service, _pending("bfs", [3]), _pending("bfs", [3])
        )
        assert service.metrics.export()["serve.runs"] == 1.0
        # identical queries single-flight without counting as fused
        assert all(not s.batched for s in served)
        assert all(s.batch_size == 2 for s in served)
        assert np.array_equal(
            served[0].result.values, served[1].result.values
        )


class TestCache:
    def test_miss_then_hit(self, service):
        first = service.query("bfs", sources=[4])
        second = service.query("bfs", sources=[4])
        assert not first.cached and second.cached
        assert np.array_equal(first.result.values, second.result.values)
        stats = service.stats()
        assert stats["serve.cache_hits"] == 1.0
        assert stats["serve.cache_misses"] == 1.0
        assert stats["serve.cache_hit_rate"] == 0.5

    def test_hits_share_no_arrays(self, service):
        first = service.query("bfs", sources=[4])
        second = service.query("bfs", sources=[4])
        second.result.values[0] += 1.0
        third = service.query("bfs", sources=[4])
        assert third.cached
        assert np.array_equal(third.result.values, first.result.values)

    def test_fused_run_populates_union_key(self, service):
        _serve_direct(service, _pending("bfs", [0]), _pending("bfs", [7]))
        hit = service.query("msbfs", sources=[0, 7])
        assert hit.cached

    def test_lru_eviction(self, session):
        with GraphService(session, cache_size=1, max_wait=0.0) as svc:
            svc.query("bfs", sources=[0])
            svc.query("bfs", sources=[1])  # evicts source-0 entry
            assert not svc.query("bfs", sources=[0]).cached

    def test_cache_disabled(self, session):
        with GraphService(session, cache_size=0, max_wait=0.0) as svc:
            svc.query("bfs", sources=[0])
            assert not svc.query("bfs", sources=[0]).cached

    def test_entries_are_read_only_float64_arrays(self, service):
        single = service.query("bfs", sources=[4])
        _serve_direct(service, _pending("bfs", [0]), _pending("bfs", [7]))
        assert len(service._cache) == 2
        for entry in service._cache.values():
            assert isinstance(entry.values, np.ndarray)
            assert entry.values.dtype == np.float64
            assert not entry.values.flags.writeable
            assert entry.trace is None
            assert not np.shares_memory(entry.values, single.result.values)

    def test_fused_riders_share_no_memory(self, service):
        a, b = _serve_direct(
            service, _pending("bfs", [0]), _pending("bfs", [7])
        )
        assert a.batched and b.batched
        assert not np.shares_memory(a.result.values, b.result.values)
        (entry,) = service._cache.values()
        for rider in (a, b):
            assert not np.shares_memory(rider.result.values, entry.values)
            assert rider.result.values.flags.writeable
            assert rider.result.stats is not entry.stats
        want = b.result.values.copy()
        a.result.values[:] = -1.0
        hit = service.query("msbfs", sources=[0, 7])
        assert hit.cached
        assert np.array_equal(hit.result.values, want)
        assert np.array_equal(b.result.values, want)


class TestSubmitTimeHits:
    """A hit resolves inside ``submit``, unless a mutation is pending."""

    def test_hit_resolves_before_submit_returns(self, service):
        service.query("bfs", sources=[0])
        batches = service.stats()["serve.batches"]
        fut = service.submit("bfs", sources=[0])
        assert fut.done()
        served = fut.result(timeout=0)
        assert served.cached and served.engine_cost_s == 0.0
        # a submit-time hit rides no dispatcher batch
        assert service.stats()["serve.batches"] == batches

    def test_mutation_barrier_holds_on_the_fast_path(
        self, service, session, er_graph, monkeypatch
    ):
        started, release = threading.Event(), threading.Event()
        apply = session.apply

        def gated(batch):
            started.set()
            assert release.wait(60)
            return apply(batch)

        monkeypatch.setattr(session, "apply", gated)
        service.query("bfs", sources=[0])  # bfs(0) is now cached
        batch = MutationBatch().add_edge(0, 150)
        mutation = service.submit_mutation(batch)
        fut = service.submit("bfs", sources=[0])
        assert not fut.done()
        assert started.wait(60)
        # the dispatcher is inside apply: only it can answer fut
        assert not fut.done()
        release.set()
        assert mutation.result(timeout=60).graph_version == 1
        served = fut.result(timeout=60)
        assert not served.cached
        patched, _ = apply_batch(er_graph, batch)
        want = repro.run(patched, "bfs", machines=MACHINES, seed=0, source=0)
        assert np.array_equal(served.result.values, want.values)
        assert served.result.values[150] == 1.0

    def test_failed_mutation_releases_the_barrier(
        self, service, session, monkeypatch
    ):
        def broken(batch):
            raise RuntimeError("injected apply failure")

        monkeypatch.setattr(session, "apply", broken)
        service.query("bfs", sources=[0])
        with pytest.raises(RuntimeError, match="injected"):
            service.mutate(MutationBatch().add_edge(0, 150), timeout=60)
        assert service._mutations_queued == 0
        fut = service.submit("bfs", sources=[0])
        assert fut.done() and fut.result(timeout=0).cached


class TestConcurrentClients:
    """Client threads answering hits race the dispatcher under one lock."""

    HOT = [
        ("bfs", 0), ("bfs", 7), ("ppr", 2), ("ppr", 9), ("sssp", 3),
        ("msbfs", 11),
    ]
    THREADS = 4
    PER_THREAD = 150

    def test_many_threads_with_observability(self, session, tmp_path):
        trace_path = tmp_path / "serve.trace.jsonl"
        futures = [[] for _ in range(self.THREADS)]

        def client(i):
            for q in range(self.PER_THREAD):
                alg, src = self.HOT[(i + q) % len(self.HOT)]
                fut = svc.submit(alg, sources=[src])
                fut.result(timeout=120)
                futures[i].append(fut)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more preemption: races show up
        try:
            with GraphService(
                session, max_wait=0.001, trace_out=str(trace_path),
                telemetry_out=str(tmp_path / "service.telemetry.jsonl"),
                telemetry_interval=0.05,
            ) as svc:
                threads = [
                    threading.Thread(target=client, args=(i,))
                    for i in range(self.THREADS)
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=300)
                    assert not t.is_alive()
        finally:
            sys.setswitchinterval(switch)
        everything = [f for per in futures for f in per]
        assert len(everything) == self.THREADS * self.PER_THREAD
        assert all(f.done() and f.exception() is None for f in everything)
        stats = svc.stats()
        assert stats["serve.queries"] == len(everything)
        assert stats["serve.queries"] == (
            stats["serve.cache_hits"] + stats["serve.cache_misses"]
        )
        assert stats["serve.cache_hits"] > 0
        assert svc._inflight == 0

        trace = load_trace(str(trace_path))
        # concurrent writers lose no record and duplicate none
        ids = [s["attrs"]["request_id"] for s in trace.spans
               if s["name"] == "serve.request"]
        assert sorted(ids) == sorted(f.result().request_id for f in everything)
        analysis = analyze_serve_trace(trace)
        assert analysis["totals"]["requests"] == len(everything)
        assert analysis["totals"]["latency_exact"]
        assert analysis["totals"]["attribution_exact"]
        hits = [r for r in analysis["requests"] if r["cached"]]
        assert len(hits) == stats["serve.cache_hits"]
        assert all(r["run_s"] == 0.0 for r in hits)
        assert all(r["engine_cost_s"] == 0.0 for r in hits)


class TestLifecycleAndErrors:
    def test_invalid_knobs_rejected(self, session):
        for kwargs in (
            {"max_batch": 0},
            {"max_wait": -1.0},
            {"cache_size": -1},
            {"batch_mode": "sometimes"},
        ):
            with pytest.raises(ConfigError):
                GraphService(session, **kwargs)

    @pytest.mark.parametrize("kwargs, message", [
        ({"policy": "bogus"}, "unknown coherency policy"),
        ({"engine": "nope"}, "unknown engine"),
        ({"engine": "powergraph-sync", "policy": "paper"},
         "eagerly coherent"),
    ], ids=["policy", "engine", "policy-on-eager"])
    def test_engine_and_policy_rejected_at_construction(
        self, session, kwargs, message
    ):
        import threading

        before = set(threading.enumerate())
        with pytest.raises(ConfigError, match=message):
            GraphService(session, **kwargs)
        assert not set(threading.enumerate()) - before  # no dispatcher

    def test_resolved_policy_keys_the_cache(self, session):
        with GraphService(session, max_wait=0.0) as default, \
                GraphService(session, max_wait=0.0, policy="paper") as named:
            assert default.policy == named.policy == repro.CoherencyPolicy()
            assert default._run_key("cc", (), ()) == named._run_key(
                "cc", (), ()
            )
        with GraphService(session, engine="powergraph-sync") as eager:
            assert eager.policy is None

    def test_multi_source_bfs_rejected_with_guidance(self, service):
        fut = service.submit("bfs", sources=[0, 1])
        with pytest.raises(ConfigError, match="msbfs"):
            fut.result(timeout=30)

    def test_run_errors_propagate_to_futures(self, service):
        fut = service.submit("pagerank", tolerance=-1.0)
        with pytest.raises(Exception):
            fut.result(timeout=30)

    def test_submit_after_close_rejected(self, session):
        svc = GraphService(session, max_wait=0.0)
        svc.close()
        svc.close()  # idempotent
        with pytest.raises(ConfigError, match="closed"):
            svc.submit("bfs", sources=[0])

    def test_session_outlives_service(self, session):
        with GraphService(session, max_wait=0.0) as svc:
            svc.query("cc")
        # the service never owned the session
        session.run("cc")

    def test_dispatcher_batches_submissions(self, session):
        # a generous window lets both submissions land in one batch
        with GraphService(session, max_wait=0.5) as svc:
            futs = [svc.submit("bfs", sources=[s]) for s in (0, 7)]
            served = [f.result(timeout=60) for f in futs]
        assert all(s.batched for s in served)
        assert all(s.sources_served == (0, 7) for s in served)


class TestGracefulClose:
    """Every accepted future resolves deterministically at close."""

    def test_invalid_mode_rejected(self, session):
        svc = GraphService(session, max_wait=0.0)
        with pytest.raises(ConfigError, match="drain"):
            svc.close(mode="sometimes")
        svc.close()

    def test_drain_serves_inflight_work(self, session):
        svc = GraphService(session, max_wait=5.0)  # window still open
        futs = [svc.submit("bfs", sources=[s]) for s in (0, 7)]
        svc.close(mode="drain")
        served = [f.result(timeout=0) for f in futs]
        assert all(s.result is not None for s in served)
        assert svc.stats()["serve.queries"] == 2.0

    def test_cancel_resolves_pending_futures(self, session):
        svc = GraphService(session, max_wait=5.0)
        futs = [svc.submit("bfs", sources=[s]) for s in (0, 7)]
        svc.close(mode="cancel")
        for f in futs:
            # deterministic terminal state: served before the sentinel
            # landed, or cancelled — never left unresolved
            assert f.done()
        assert svc._inflight == 0

    def test_drain_covers_submit_close_race(self, session):
        # enqueue directly behind the dispatcher's back to model a
        # request racing past the shutdown sentinel
        svc = GraphService(session, max_wait=0.0)
        svc.query("bfs", sources=[0])  # quiesce the dispatcher
        racer = _pending("bfs", [7])
        svc._closed = True  # submit() now rejects; queue still accepts
        svc._queue.put(racer)
        svc._closed = False
        svc.close(mode="drain")
        assert racer.future.result(timeout=0).result is not None

    def test_inflight_returns_to_zero(self, session):
        with GraphService(session, max_wait=0.0) as svc:
            svc.query("bfs", sources=[0])
            svc.query("bfs", sources=[0])
            fut = svc.submit("bfs", sources=[0, 1])
            with pytest.raises(Exception):
                fut.result(timeout=30)
            assert svc._inflight == 0


class TestObservabilityNeutrality:
    """Tracing/telemetry on must not change answers or serve.* counters."""

    WORKLOAD = [("bfs", [0]), ("bfs", [7]), ("ppr", [2]), ("bfs", [0])]

    def _run_workload(self, session, **kwargs):
        with GraphService(session, max_wait=0.0, **kwargs) as svc:
            served = [
                svc.query(alg, sources=srcs) for alg, srcs in self.WORKLOAD
            ]
            counters = {
                k: v for k, v in svc.metrics.export().items()
                if not isinstance(v, dict)  # drop the latency histogram
            }
        return served, counters

    def test_answers_and_counters_bit_identical(self, session, tmp_path):
        plain, plain_counters = self._run_workload(session)
        traced, traced_counters = self._run_workload(
            session,
            trace_out=str(tmp_path / "serve.trace.jsonl"),
            telemetry_out=str(tmp_path / "service.telemetry.jsonl"),
            telemetry_interval=10.0,
        )
        assert traced_counters == plain_counters
        for a, b in zip(plain, traced):
            assert np.array_equal(a.result.values, b.result.values)
            assert a.result.values.dtype == b.result.values.dtype
            assert a.cached == b.cached and a.batched == b.batched
            assert a.sources_served == b.sources_served

    def test_request_ids_assigned_without_observability(self, session):
        served, _ = self._run_workload(session)
        assert [s.request_id for s in served] == [1, 2, 3, 4]

    def test_latency_matches_context_leg_sum(self, session):
        with GraphService(session, max_wait=0.0) as svc:
            served = svc.query("bfs", sources=[0])
        assert served.latency_s > 0.0
        assert served.engine_cost_s > 0.0


class TestMutations:
    """Mutations ride the FIFO queue as barriers; versioned cache keys
    make invalidation free."""

    def test_mutate_bumps_version_and_counters(self, service, session):
        from repro.graph.mutation import MutationBatch

        applied = service.mutate(MutationBatch().add_edge(0, 9))
        assert applied.graph_version == 1
        assert session.graph_version == 1
        counters = service.metrics.export()
        assert counters["serve.mutations"] == 1
        assert counters["serve.mutations_applied"] == 1

    def test_queries_see_the_graph_version_they_follow(self, service):
        from repro.graph.mutation import MutationBatch

        before = service.query("bfs", sources=[0])
        assert before.result.values[150] > 1.0
        service.mutate(MutationBatch().add_edge(0, 150))
        after = service.query("bfs", sources=[0])
        assert not after.cached  # version bump invalidated the key
        assert after.result.values[150] == 1.0
        repeat = service.query("bfs", sources=[0])
        assert repeat.cached
        assert np.array_equal(repeat.result.values, after.result.values)

    def test_answers_across_a_mutation_equal_one_variant_sessions(
        self, service, session, er_graph
    ):
        """bfs and sssp share one partition (sssp's re-weights bfs's),
        and ``mutate`` patches it once: every answer, hit or miss,
        equals a session that holds only its own variant, taken
        through the same batches to the version the answer reports."""
        batches = [MutationBatch().remove_edge(
            int(er_graph.src[5]), int(er_graph.dst[5])
        ).add_edges([(0, 150), (3, 77)])]
        queries = [("bfs", 0), ("sssp", 0), ("bfs", 9), ("sssp", 9)]

        def alone(alg, source, version):
            with GraphSession.open(er_graph, machines=MACHINES, seed=0) as s:
                s.run(alg, source=0)  # prepared before any batch
                for batch in batches[:version]:
                    s.apply(batch)
                return s.run(alg, source=source).values

        served = []
        for version in range(len(batches) + 1):
            if version:
                service.mutate(batches[version - 1])
            for alg, source in queries:
                miss = service.query(alg, sources=[source])
                hit = service.query(alg, sources=[source])
                assert not miss.cached and hit.cached
                # a hit's key starts with the graph version it answers
                assert hit.cache_key.startswith(f"({version},")
                served.append((alg, source, version, miss, hit))
        assert session.artifact_stats()["partitioned_graphs"] == 2
        for alg, source, version, miss, hit in served:
            want = alone(alg, source, version)
            np.testing.assert_array_equal(miss.result.values, want)
            np.testing.assert_array_equal(hit.result.values, want)

    def test_rejects_non_batch_and_closed_service(self, session):
        from repro.graph.mutation import MutationBatch

        svc = GraphService(session, max_wait=0.0)
        with pytest.raises(ConfigError):
            svc.submit_mutation({"add_edges": [[0, 1]]})
        svc.close()
        with pytest.raises(ConfigError):
            svc.submit_mutation(MutationBatch().add_edge(0, 1))

    def test_close_drains_mutation_barriers_in_order(self, session):
        from repro.graph.mutation import MutationBatch

        svc = GraphService(session, max_wait=5.0, max_batch=64)
        q1 = svc.submit("bfs", sources=[0])
        m = svc.submit_mutation(MutationBatch().add_edge(0, 150))
        q2 = svc.submit("bfs", sources=[0])
        svc.close()  # drain mode must honour FIFO: q1, mutate, q2
        assert q1.result(timeout=0).result.values[150] > 1.0
        assert m.result(timeout=0).graph_version == 1
        assert q2.result(timeout=0).result.values[150] == 1.0
