"""GraphSession lifecycle: caching, validation, reset, close — and the
mutation path's bookkeeping (bounded fixpoints, delta log, atomic apply)."""

import tracemalloc

import numpy as np
import pytest

import repro
import repro.core.transmission as transmission
import repro.session as session_module
from repro.bench import harness
from repro.core.transmission import build_lazy_graph
from repro.errors import ConfigError, PartitionError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.graph.mutation import MutationBatch
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.registry import get_engine
from repro.runtime.run_config import RunConfig
from repro.session import GraphSession
from tests.unit.test_build_pins import digest

MACHINES = 4


@pytest.fixture
def session(er_graph):
    with GraphSession.open(er_graph, machines=MACHINES, seed=0) as s:
        yield s


class TestLifecycle:
    def test_open_fixes_graph_level_choices(self, er_graph):
        s = GraphSession.open(
            er_graph, machines=8, partitioner="oblivious", seed=3
        )
        assert s.machines == 8
        assert s.partitioner == "oblivious"
        assert s.seed == 3
        assert s.graph_version == 0
        assert s.runs_completed == 0
        s.close()

    def test_invalid_machine_count_rejected(self, er_graph):
        with pytest.raises(ConfigError, match="machines"):
            GraphSession.open(er_graph, machines=0)

    def test_closed_session_rejects_runs(self, er_graph):
        s = GraphSession.open(er_graph, machines=MACHINES)
        s.close()
        with pytest.raises(ConfigError, match="closed"):
            s.run("cc")
        # close is idempotent
        s.close()

    def test_context_manager_closes(self, er_graph):
        with GraphSession.open(er_graph, machines=MACHINES) as s:
            s.run("cc")
        with pytest.raises(ConfigError, match="closed"):
            s.run("cc")

    def test_reset_drops_last_result(self, session):
        session.run("cc")
        assert session.last_result is not None
        session.reset()
        assert session.last_result is None
        assert session.runs_completed == 1


class TestRunValidation:
    def test_unknown_trace_format_rejected(self, session):
        with pytest.raises(ConfigError, match="trace format"):
            session.run("cc", trace_format="xml")

    def test_params_with_program_instance_rejected(self, session):
        from repro.algorithms import ConnectedComponentsProgram

        with pytest.raises(ConfigError, match="by name"):
            session.run(ConnectedComponentsProgram(), k=3)

    def test_program_flavour_checked_against_engine(self, session):
        from repro.algorithms import ConnectedComponentsProgram

        with pytest.raises(ConfigError, match="GASProgram"):
            session.run(
                ConnectedComponentsProgram(), engine="powergraph-gas-sync"
            )

    @pytest.mark.parametrize("knob", [
        {"backend": "process"}, {"backend": "serial"}, {"workers": 2},
    ], ids=str)
    def test_process_backend_knobs_fail_before_the_algorithm_sees_them(
        self, session, er_graph, knob
    ):
        # not a RunConfig field any more: without the check the knob
        # would reach ConnectedComponentsProgram(backend=...) as a TypeError
        for call in (
            lambda: session.run("cc", **knob),
            lambda: session.run("cc", config=RunConfig(), **knob),
            lambda: repro.run(er_graph, "cc", machines=MACHINES, **knob),
        ):
            with pytest.raises(ConfigError, match="process backend"):
                call()
        assert session.runs_completed == 0

    def test_config_object_and_overrides_compose(self, session, er_graph):
        base = RunConfig(engine="lazy-vertex")
        got = session.run("pagerank", config=base, tolerance=1e-3)
        # the override landed in params, the config object is untouched
        assert base.params == {}
        want = repro.run(
            er_graph, "pagerank", engine="lazy-vertex",
            machines=MACHINES, seed=0, tolerance=1e-3,
        )
        assert np.array_equal(got.values, want.values)


class TestArtifactCaching:
    def test_graph_shape_cached_per_program_requirements(self, session):
        session.run("pagerank", tolerance=1e-3)  # directed, unweighted
        session.run("bfs", source=0)             # same shape
        assert len(session._pgraphs) == 1
        session.run("cc")                        # symmetric shape
        assert len(session._pgraphs) == 2
        session.run("sssp", source=0)            # directed + weights
        assert len(session._pgraphs) == 3

    def test_plans_cached_per_shape_and_runtime_kind(self, session):
        session.run("pagerank", tolerance=1e-3)      # delta plans
        session.run("bfs", source=0)                 # reuses them
        assert len(session._plans) == 1
        session.run(
            "pagerank", engine="powergraph-gas-sync", tolerance=1e-3
        )                                            # gas plans, same shape
        assert len(session._plans) == 2
        key = next(k for k in session._plans if k[1] == "gas")
        assert all(len(pair) == 2 for pair in session._plans[key])

    def test_plan_reuse_is_bit_identical(self, session, er_graph):
        first = session.run("bfs", source=0)
        second = session.run("bfs", source=0)
        fresh = repro.run(er_graph, "bfs", machines=MACHINES, seed=0, source=0)
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.values, fresh.values)

    def test_close_releases_caches(self, session):
        session.run("cc")
        session.close()
        assert not session._graphs and not session._pgraphs
        assert not session._plans
        assert session.last_result is None


def _fresh_batch(graph):
    """Two removals + two insertions of pairs the graph does not have."""
    present = set(zip(graph.src.tolist(), graph.dst.tolist()))
    fresh = [
        (u, v) for u in range(3, 40) for v in (u + 50, u + 90)
        if (u, v) not in present and (v, u) not in present
    ][:2]
    return (
        MutationBatch()
        .remove_edge(int(graph.src[5]), int(graph.dst[5]))
        .remove_edge(int(graph.src[300]), int(graph.dst[300]))
        .add_edges(fresh)
    )


@pytest.fixture
def cuts(monkeypatch):
    """Calls into the partitioner through the seam the benchmark traces."""
    calls = []
    real = transmission.partition_graph

    def counted(graph, *args, **kwargs):
        calls.append(graph)
        return real(graph, *args, **kwargs)

    monkeypatch.setattr(transmission, "partition_graph", counted)
    return calls


def _assert_equals_unshared(session):
    """Every cached partition is what cutting its own graph gives."""
    for pgraph in session._pgraphs.values():
        alone = build_lazy_graph(
            pgraph.graph, session.machines, partitioner=session.partitioner,
            split_config=session.split, seed=session.seed,
        )
        assert digest(pgraph) == digest(alone)


class TestOneCutPerTopology:
    def test_weight_variants_share_the_cut(self, session, cuts):
        session.run("bfs", source=0)
        session.run("ppr", seeds=[0])
        session.run("sssp", source=0)  # same edges + synthetic weights
        assert len(cuts) == 1
        stats = session.artifact_stats()
        assert (stats["prepared_graphs"], stats["partitioned_graphs"]) == (2, 2)
        session.run("cc")  # symmetrized: another topology
        assert len(cuts) == 2
        stats = session.artifact_stats()
        assert (stats["prepared_graphs"], stats["partitioned_graphs"]) == (3, 3)
        _assert_equals_unshared(session)

    def test_weight_variants_share_all_but_eweight(self):
        # big enough that the variant's own arrays dwarf its objects
        graph = erdos_renyi_graph(5_000, 60_000, seed=3)
        with GraphSession.open(graph, machines=MACHINES, seed=0) as s:
            s.run("bfs", source=0)
            sssp = get_engine("lazy-block").make_program("sssp")
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                s.partitioned(sssp)
                added = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            # its weights and its eweight: 2 * E * 8 B, plus 10 %
            assert added <= 1.1 * 2 * graph.num_edges * 8
            s.run("sssp", source=0)
            lender = s._pgraphs[(False, False)]
            borrower = s._pgraphs[(False, True)]
            for name, arr in borrower._flat.items():
                assert np.shares_memory(arr, lender._flat[name]) == (
                    name != "eweight"
                ), name
            merged = [b for b in lender.blocks if b.num_machines > 1]
            assert merged
            for a, b in zip(borrower.blocks, lender.blocks):
                assert a.esrc is b.esrc and a.edst is b.edst
            assert (s._plans[((False, True), "delta")]
                    is s._plans[((False, False), "delta")])
            stats = s.artifact_stats()
            assert (stats["prepared_graphs"], stats["partitioned_graphs"],
                    stats["plans"]) == (2, 2, 2)
            _assert_equals_unshared(s)

    def test_variant_first_prepared_after_a_mutation_is_cut_cold(
        self, er_graph, session, cuts
    ):
        batch = _fresh_batch(er_graph)
        session.run("bfs", source=0)
        session.apply(batch)
        session.run("sssp", source=0)
        # the patched bfs partition is not a cold cut of the new graph
        assert len(cuts) == 2
        with GraphSession.open(er_graph, machines=MACHINES, seed=0) as fresh:
            fresh.apply(batch)
            fresh.run("sssp", source=0)
            assert np.array_equal(
                session._pgraphs[(False, True)].assignment,
                fresh._pgraphs[(False, True)].assignment,
            )
            # two variants both first prepared after the batch do share
            fresh.run("bfs", source=0)
            assert len(cuts) == 3
            _assert_equals_unshared(fresh)

    def test_weighted_base_graph_shares(self, er_weighted, cuts):
        with GraphSession.open(er_weighted, machines=MACHINES, seed=0) as s:
            s.run("bfs", source=0)
            s.run("sssp", source=0)  # the same DiGraph under both keys
            assert len(cuts) == 1
            _assert_equals_unshared(s)

    @pytest.mark.parametrize("textra,expected_cuts", [(0.0, 1), (0.02, 2)])
    def test_split_session_shares_or_falls_back(
        self, er_graph, cuts, textra, expected_cuts
    ):
        """A split partition stores -1 on its parallel edges, so it is
        lent only when the splitter selected nothing."""
        split = EdgeSplitConfig(textra=textra)
        with GraphSession.open(
            er_graph, machines=MACHINES, split=split, seed=0
        ) as s:
            s.run("bfs", source=0)
            s.run("sssp", source=0)
            assert (s._pgraphs[(False, False)].parallel_eids.size > 0) \
                == (textra > 0)
            assert len(cuts) == expected_cuts
            _assert_equals_unshared(s)

    def test_harness_dataset_session_shares(self, cuts):
        harness.clear_caches()
        try:
            s = harness.session_for("road-ca-mini", machines=8)
            s.run("bfs", source=0)
            s.run("sssp", source=0)  # the dataset is loaded a second time
            assert len(cuts) == 1
            _assert_equals_unshared(s)
        finally:
            harness.clear_caches()

    def test_different_edge_lists_are_not_assumed_equal(
        self, er_graph, er_weighted, cuts, monkeypatch
    ):
        """A dataset whose weighted load orders its edges differently."""
        flipped = DiGraph(
            er_weighted.num_vertices, er_weighted.src[::-1],
            er_weighted.dst[::-1], er_weighted.weights[::-1],
        )
        monkeypatch.setattr(
            "repro.graph.datasets.load_dataset",
            lambda name, weighted=False: flipped if weighted else er_graph,
        )
        with GraphSession.open("two-loads", machines=MACHINES, seed=0) as s:
            s.run("bfs", source=0)
            s.run("sssp", source=0)
            assert len(cuts) == 2
            _assert_equals_unshared(s)

    @pytest.mark.parametrize("bad,match", [
        (lambda n: np.zeros(n - 1, dtype=np.int32), "one entry per edge"),
        (lambda n: np.full(n, MACHINES, dtype=np.int32), r"must lie in \[0, 4\)"),
        (lambda n: np.zeros(n, dtype=np.float64), "integer array"),
    ], ids=["length", "range", "dtype"])
    def test_build_lazy_graph_checks_a_given_assignment(
        self, er_graph, cuts, bad, match
    ):
        with pytest.raises(PartitionError, match=match):
            build_lazy_graph(
                er_graph, MACHINES, assignment=bad(er_graph.num_edges)
            )
        assert not cuts


class TestFixpointStoreIsBounded:
    def test_distinct_sources_evict_least_recently_run(self, session, er_graph):
        cap = session_module._MAX_FIXPOINTS
        for source in range(cap + 3):
            session.run("bfs", source=source)
        assert len(session._fixpoints) <= cap
        assert session.artifact_stats()["fixpoints"] <= cap

        session.apply(_fresh_batch(er_graph))
        # source 0 was evicted: the documented cold fallback
        evicted = session.run("bfs", source=0, incremental=True)
        assert evicted.stats.extra["warm_start"] == 0
        cold = session.run("bfs", source=0)
        np.testing.assert_array_equal(evicted.values, cold.values)
        # the most recently run source still warm-starts
        kept = session.run("bfs", source=cap + 2, incremental=True)
        assert kept.stats.extra["warm_start"] == 1
        assert len(session._fixpoints) <= cap

    def test_rerun_refreshes_recency(self, session):
        cap = session_module._MAX_FIXPOINTS
        session.run("bfs", source=0)
        for source in range(1, cap):
            session.run("bfs", source=source)
        session.run("bfs", source=0)  # now the newest record
        session.run("bfs", source=cap)  # evicts source 1, not source 0
        session.apply(MutationBatch().add_edge(1, 7))
        again = session.run("bfs", source=0, incremental=True)
        assert again.stats.extra["warm_start"] == 1


class TestWarmStartDeltaComesFromTheDiffs:
    def test_incremental_run_never_calls_the_oracle(
        self, session, er_graph, monkeypatch
    ):
        """Tier-1 form of the benchmark's ``runtime.warm_graph_delta_s``
        == 0: planning takes the delta the patches recorded."""
        from repro.runtime import warm_start

        def boom(*_args, **_kwargs):
            raise AssertionError("graph_delta is a test oracle")

        session.run("bfs", source=0)
        session.run("pagerank", tolerance=1e-4)
        session.apply(_fresh_batch(er_graph))
        monkeypatch.setattr(warm_start, "graph_delta", boom)
        for alg, params in (
            ("bfs", {"source": 0}), ("pagerank", {"tolerance": 1e-4}),
        ):
            inc = session.run(alg, incremental=True, **params)
            assert inc.stats.extra["warm_start"] == 1

    def test_incremental_run_never_sorts(
        self, session, er_graph, monkeypatch
    ):
        """After warm-up an incremental run builds no CSR and sorts no
        keys: the plan walks the resident partition."""
        from repro.graph.digraph import DiGraph
        from repro.utils import keysort

        def boom(*_args, **_kwargs):
            raise AssertionError("an incremental run sorted")

        session.run("bfs", source=0)
        session.run("pagerank", tolerance=1e-4)
        session.apply(_fresh_batch(er_graph))
        monkeypatch.setattr(DiGraph, "_build_csr", boom)
        monkeypatch.setattr(keysort, "stable_argsort", boom)
        for alg, params in (
            ("bfs", {"source": 0}), ("pagerank", {"tolerance": 1e-4}),
        ):
            inc = session.run(alg, incremental=True, **params)
            assert inc.stats.extra["warm_start"] == 1

    def test_threaded_delta_is_the_oracles_delta(
        self, session, er_graph, monkeypatch
    ):
        """Across variants (directed, symmetric, synthetic weights) and
        spans of one to three graph versions."""
        from repro.runtime.warm_start import graph_delta

        seen = []
        real_plan = session_module.plan_warm_start

        def checked(program, old, new, state, removed, inserted, **kw):
            want_removed, want_inserted = graph_delta(old, new)
            np.testing.assert_array_equal(removed, want_removed)
            np.testing.assert_array_equal(inserted, want_inserted)
            seen.append((program.name, removed.size, inserted.size))
            return real_plan(
                program, old, new, state, removed, inserted, **kw
            )

        monkeypatch.setattr(session_module, "plan_warm_start", checked)
        runs = {
            "bfs": {"source": 0}, "cc": {}, "sssp": {"source": 0},
        }
        for alg, params in runs.items():
            session.run(alg, **params)
        present = set(zip(er_graph.src.tolist(), er_graph.dst.tolist()))
        fresh = iter(
            (u, v) for u in range(60, 120) for v in range(u + 1, u + 9)
            if (u, v) not in present and (v, u) not in present
        )
        # each program skips some versions, so plans span 1-3 of them
        schedule = [("bfs",), ("bfs", "cc"), ("bfs", "cc", "sssp")]
        for step, algs in enumerate(schedule):
            e = 10 + 40 * step
            session.apply(
                MutationBatch()
                .remove_edge(int(er_graph.src[e]), int(er_graph.dst[e]))
                .add_edges([next(fresh), next(fresh)])
            )
            for alg in algs:
                inc = session.run(alg, incremental=True, **runs[alg])
                assert inc.stats.extra["warm_start"] == 1
                cold = session.run(alg, **runs[alg])
                np.testing.assert_array_equal(inc.values, cold.values)
        assert [name for name, _, _ in seen] == [
            "bfs", "bfs", "cc", "bfs", "cc", "sssp",
        ]
        assert all(gone and born for _, gone, born in seen)


def _artifacts(session):
    """Identity of every cached artifact, to check a refused apply."""
    return {
        "version": session.graph_version,
        "bases": {k: id(v) for k, v in session._bases.items()},
        "graphs": {k: id(v) for k, v in session._graphs.items()},
        "pgraphs": {k: id(v) for k, v in session._pgraphs.items()},
        "plans": {k: id(v) for k, v in session._plans.items()},
        "deltas": {k: len(v) for k, v in session._deltas.items()},
        "log": len(session._mutation_log),
        "fixpoints": list(session._fixpoints),
        "last_apply": session.last_apply,
    }


class TestApplyIsAtomic:
    def test_failing_patch_leaves_the_session_unchanged(
        self, session, er_graph, monkeypatch
    ):
        session.run("bfs", source=0)   # directed variant
        session.run("cc")              # symmetric variant
        session.apply(MutationBatch().add_edge(1, 7))  # a delta-log entry
        assert len(session._graphs) == 2 and len(session._pgraphs) == 2

        before = _artifacts(session)
        real_patch = session_module.patch_partition
        calls = []

        def second_variant_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("patch failed")
            return real_patch(*args, **kwargs)

        batch = _fresh_batch(er_graph)
        monkeypatch.setattr(
            session_module, "patch_partition", second_variant_fails
        )
        with pytest.raises(RuntimeError, match="patch failed"):
            session.apply(batch)
        assert len(calls) == 2  # the first variant had already patched
        assert _artifacts(session) == before

        monkeypatch.setattr(session_module, "patch_partition", real_patch)
        applied = session.apply(batch)
        assert applied.graph_version == before["version"] + 1
        assert set(applied.patches) == {"directed", "symmetric"}
        for alg, params in (("bfs", {"source": 0}), ("cc", {})):
            inc = session.run(alg, incremental=True, **params)
            assert inc.stats.extra["warm_start"] == 1
            cold = session.run(alg, **params)
            np.testing.assert_array_equal(inc.values, cold.values)

    def test_split_session_refuses_apply_and_changes_nothing(self, er_graph):
        with GraphSession.open(
            er_graph, machines=MACHINES, seed=0,
            split=EdgeSplitConfig(textra=0.02),
        ) as s:
            s.run("bfs", source=0)
            s.run("cc")
            assert all(pg.parallel_eids.size > 0 for pg in s._pgraphs.values())
            before = _artifacts(s)
            with pytest.raises(ConfigError, match="whole-graph degree"):
                s.apply(_fresh_batch(er_graph))
            assert _artifacts(s) == before
            assert s.graph_version == 0

    def test_a_refused_batch_leaves_both_weight_variants(
        self, session, er_graph, monkeypatch
    ):
        session.run("bfs", source=0)
        session.run("sssp", source=0)  # re-weights the bfs partition
        before = _artifacts(session)

        def refuse(*_args, **_kwargs):
            raise PartitionError("refused")

        # the splice passes, its re-weighting fails: nothing commits
        monkeypatch.setattr(PartitionedGraph, "reweighted", refuse)
        with pytest.raises(PartitionError, match="refused"):
            session.apply(_fresh_batch(er_graph))
        assert _artifacts(session) == before

    def test_validation_runs_once_per_distinct_base(
        self, session, er_graph, monkeypatch
    ):
        # three variants over one base graph object: one apply_batch
        session.run("bfs", source=0)
        session.run("cc")
        session.run("sssp", source=0)
        validated = []
        real_validate = MutationBatch.validate

        def counting(self, graph):
            validated.append(graph)
            return real_validate(self, graph)

        monkeypatch.setattr(MutationBatch, "validate", counting)
        session.apply(_fresh_batch(er_graph))
        assert len(session._graphs) == 3
        assert len(validated) == len(
            {id(base) for base in session._bases.values()}
        ) == 1

    def test_bad_batch_changes_nothing(self, session, er_graph):
        from repro.errors import GraphError

        session.run("bfs", source=0)
        session.run("cc")
        graphs = {k: id(v) for k, v in session._graphs.items()}
        absent = MutationBatch().add_edge(0, 1).remove_edge(0, 0)
        with pytest.raises(GraphError, match="not present"):
            session.apply(absent)
        assert session.graph_version == 0
        assert {k: id(v) for k, v in session._graphs.items()} == graphs
        assert not session._mutation_log and not session._deltas
