"""The paper's §3.5 correctness theorem, tested as a matrix.

Every engine in the registry (eager Sync/Async, the classic GAS pull
engine, lazy Block/Vertex — and any future registration, automatically)
under every partitioner, machine count, coherency mode, and interval
strategy must converge to the single-machine reference values — exactly
for the min/peeling algorithms, within O(tolerance) for PageRank — and
all replicas of every vertex must agree at termination.
"""

import numpy as np
import pytest

from repro.algorithms import (
    ConnectedComponentsProgram,
    KCoreProgram,
    PageRankDeltaProgram,
    SSSPProgram,
    bfs_reference,
    cc_reference,
    kcore_reference,
    pagerank_reference,
    sssp_reference,
)
from repro.core import CoherencyPolicy, LazyBlockAsyncEngine, build_lazy_graph
from repro.errors import AlgorithmError
from repro.runtime.registry import engine_specs

SPECS = {spec.name: spec for spec in engine_specs()}


def run_engine(spec_name, pgraph, algorithm, **params):
    """Run one registry engine on its own flavour of ``algorithm``.

    Skips when the engine's program API has no formulation of the
    algorithm (e.g. no classic full-gather bfs/kcore).
    """
    spec = SPECS[spec_name]
    try:
        program = spec.make_program(algorithm, **params)
    except AlgorithmError as exc:
        pytest.skip(f"{spec_name}: {exc}")
    return spec.cls(pgraph, program).run()


def assert_matches(result, reference, atol=0.0, rtol=0.0):
    finite = np.isfinite(reference)
    assert np.array_equal(np.isfinite(result.values), finite)
    err = np.abs(result.values[finite] - reference[finite])
    bound = atol + rtol * np.abs(reference[finite])
    if err.size:
        assert np.all(err <= bound), f"max excess {np.max(err - bound)}"
    assert result.replica_max_disagreement <= max(atol * 1e-3, 1e-9)
    assert result.stats.converged


@pytest.mark.parametrize("engine_name", list(SPECS))
class TestAllEnginesMatchReference:
    def test_sssp(self, er_weighted, engine_name):
        pg = build_lazy_graph(er_weighted, 6, seed=1)
        result = run_engine(engine_name, pg, "sssp", source=0)
        assert_matches(result, sssp_reference(er_weighted, 0))

    def test_bfs(self, er_graph, engine_name):
        pg = build_lazy_graph(er_graph, 6, seed=1)
        result = run_engine(engine_name, pg, "bfs", source=0)
        assert_matches(result, bfs_reference(er_graph, 0))

    def test_cc(self, er_symmetric, engine_name):
        pg = build_lazy_graph(er_symmetric, 6, seed=1)
        result = run_engine(engine_name, pg, "cc")
        assert_matches(result, cc_reference(er_symmetric))

    def test_kcore(self, er_symmetric, engine_name):
        pg = build_lazy_graph(er_symmetric, 6, seed=1)
        result = run_engine(engine_name, pg, "kcore", k=4)
        assert_matches(result, kcore_reference(er_symmetric, 4))

    def test_pagerank(self, er_graph, engine_name):
        tol = 1e-5
        pg = build_lazy_graph(er_graph, 6, seed=1)
        result = run_engine(engine_name, pg, "pagerank", tolerance=tol)
        # residual pending mass amplifies by at most 1/(1-d)
        assert_matches(result, pagerank_reference(er_graph), atol=tol * 10, rtol=tol * 20)


@pytest.mark.parametrize(
    "partitioner",
    ["random", "grid", "coordinated", "oblivious", "hybrid", "edge"],
)
class TestEveryPartitioner:
    def test_lazy_sssp(self, er_weighted, partitioner):
        pg = build_lazy_graph(er_weighted, 5, partitioner=partitioner, seed=2)
        result = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        assert_matches(result, sssp_reference(er_weighted, 0))

    def test_lazy_kcore(self, er_symmetric, partitioner):
        pg = build_lazy_graph(er_symmetric, 5, partitioner=partitioner, seed=2)
        result = LazyBlockAsyncEngine(pg, KCoreProgram(k=3)).run()
        assert_matches(result, kcore_reference(er_symmetric, 3))


@pytest.mark.parametrize("machines", [1, 2, 3, 7, 16])
class TestEveryMachineCount:
    def test_lazy_cc(self, er_symmetric, machines):
        pg = build_lazy_graph(er_symmetric, machines, seed=3)
        result = LazyBlockAsyncEngine(pg, ConnectedComponentsProgram()).run()
        assert_matches(result, cc_reference(er_symmetric))

    def test_lazy_pagerank(self, er_graph, machines):
        pg = build_lazy_graph(er_graph, machines, seed=3)
        result = LazyBlockAsyncEngine(pg, PageRankDeltaProgram(tolerance=1e-5)).run()
        assert_matches(result, pagerank_reference(er_graph), atol=1e-4, rtol=2e-4)


@pytest.mark.parametrize("mode", ["a2a", "m2m", "dynamic"])
class TestEveryCoherencyMode:
    def test_sssp(self, er_weighted, mode):
        pg = build_lazy_graph(er_weighted, 6, seed=1)
        result = LazyBlockAsyncEngine(
            pg, SSSPProgram(0), policy=CoherencyPolicy(mode=mode)
        ).run()
        assert_matches(result, sssp_reference(er_weighted, 0))

    def test_kcore(self, er_symmetric, mode):
        pg = build_lazy_graph(er_symmetric, 6, seed=1)
        result = LazyBlockAsyncEngine(
            pg, KCoreProgram(k=4), policy=CoherencyPolicy(mode=mode)
        ).run()
        assert_matches(result, kcore_reference(er_symmetric, 4))


# interval strategy -> the named policy that runs it
STRATEGIES = {"adaptive": "paper", "simple": "simple", "never": "never"}


@pytest.mark.parametrize("interval", list(STRATEGIES))
class TestEveryIntervalStrategy:
    def test_sssp(self, er_weighted, interval):
        pg = build_lazy_graph(er_weighted, 6, seed=1)
        result = LazyBlockAsyncEngine(
            pg, SSSPProgram(0),
            policy=STRATEGIES[interval],
        ).run()
        assert_matches(result, sssp_reference(er_weighted, 0))

    def test_cc(self, er_symmetric, interval):
        pg = build_lazy_graph(er_symmetric, 6, seed=1)
        result = LazyBlockAsyncEngine(
            pg, ConnectedComponentsProgram(),
            policy=STRATEGIES[interval],
        ).run()
        assert_matches(result, cc_reference(er_symmetric))


class TestGraphClasses:
    """The equivalence holds on all three structural classes."""

    def test_road(self, road_graph):
        from repro.graph.generators import attach_uniform_weights

        gw = attach_uniform_weights(road_graph, 1.0, 1.3, seed=4)
        pg = build_lazy_graph(gw, 8, seed=4)
        assert_matches(
            LazyBlockAsyncEngine(pg, SSSPProgram(0)).run(),
            sssp_reference(gw, 0),
        )

    def test_social(self, social_graph):
        sym = social_graph.symmetrized()
        pg = build_lazy_graph(sym, 8, seed=4)
        assert_matches(
            LazyBlockAsyncEngine(pg, KCoreProgram(k=6)).run(),
            kcore_reference(sym, 6),
        )

    def test_web(self, webby_graph):
        pg = build_lazy_graph(webby_graph, 8, seed=4)
        assert_matches(
            LazyBlockAsyncEngine(pg, PageRankDeltaProgram(tolerance=1e-5)).run(),
            pagerank_reference(webby_graph),
            atol=1e-4,
            rtol=2e-4,
        )


class TestGASEngineInMatrix:
    """The classic pull engine satisfies the same equivalence."""

    @pytest.mark.parametrize("partitioner", ["coordinated", "random", "grid"])
    def test_gas_sssp(self, er_weighted, partitioner):
        from repro.powergraph import GASSSSP, PowerGraphGASSyncEngine

        pg = build_lazy_graph(er_weighted, 5, partitioner=partitioner, seed=2)
        result = PowerGraphGASSyncEngine(pg, GASSSSP(0)).run()
        assert_matches(result, sssp_reference(er_weighted, 0))

    @pytest.mark.parametrize("machines", [1, 3, 8])
    def test_gas_cc(self, er_symmetric, machines):
        from repro.algorithms import cc_reference as ccref
        from repro.powergraph import (
            GASConnectedComponents,
            PowerGraphGASSyncEngine,
        )

        pg = build_lazy_graph(er_symmetric, machines, seed=3)
        result = PowerGraphGASSyncEngine(pg, GASConnectedComponents()).run()
        assert_matches(result, ccref(er_symmetric))


class TestDeterminism:
    def test_same_seed_same_everything(self, er_weighted):
        def go():
            pg = build_lazy_graph(er_weighted, 6, seed=5)
            r = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
            return r

        a, b = go(), go()
        assert np.array_equal(a.values, b.values)
        assert a.stats.global_syncs == b.stats.global_syncs
        assert a.stats.comm_bytes == b.stats.comm_bytes
        assert a.stats.modeled_time_s == b.stats.modeled_time_s


@pytest.mark.parametrize("algorithm", ["pagerank", "cc", "sssp", "kcore"])
@pytest.mark.parametrize("engine_name", list(SPECS))
class TestKernelModesBitIdentical:
    """Full runs under ``mode="generic"`` (per-call sparse flatten) and
    ``mode="auto"`` (dense sweeps, hoisted edge transforms) are the same
    run: values bit-for-bit and every RunStats field except the
    ``kernel_*`` observability metrics, which count the sweeps taken."""

    @staticmethod
    def _run(engine_name, algorithm, mode):
        import repro
        from repro import kernels

        with kernels.configured(mode=mode):
            result = repro.run(
                "road-ca-mini", algorithm, engine=engine_name,
                machines=4, seed=3,
            )
        stats = result.stats.to_dict()
        stats["extra"] = {
            k: v for k, v in stats["extra"].items()
            if not k.startswith("kernel_")
        }
        return result.values, stats

    def test_generic_equals_auto(self, engine_name, algorithm):
        from repro.powergraph.gas import GAS_ALGORITHM_NAMES

        if (
            SPECS[engine_name].program_api == "gas"
            and algorithm not in GAS_ALGORITHM_NAMES
        ):
            pytest.skip("kcore has a delta formulation only")
        generic_values, generic_stats = self._run(engine_name, algorithm, "generic")
        auto_values, auto_stats = self._run(engine_name, algorithm, "auto")
        assert np.array_equal(
            generic_values.view(np.int64), auto_values.view(np.int64)
        )
        assert generic_stats == auto_stats
