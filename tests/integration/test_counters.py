"""Counter invariants: the measured quantities behind Figs 10–11.

These pin the paper's cost structure: eager Sync performs exactly three
global synchronizations and two communication rounds per superstep;
LazyBlockAsync performs exactly one synchronization per coherency point;
traffic is conserved and consistent with the replica topology.
"""

from pathlib import Path

import pytest

from repro.algorithms import (
    ConnectedComponentsProgram,
    KCoreProgram,
    PageRankDeltaProgram,
    SSSPProgram,
)
from repro.core import LazyBlockAsyncEngine, LazyVertexAsyncEngine, build_lazy_graph
from repro.powergraph import PowerGraphAsyncEngine, PowerGraphSyncEngine
from repro.runtime.registry import engine_specs


@pytest.fixture(scope="module")
def pg(er_weighted):
    return build_lazy_graph(er_weighted, 6, seed=1)


@pytest.fixture(scope="module")
def pg_sym(er_symmetric):
    return build_lazy_graph(er_symmetric, 6, seed=1)


class TestSyncEngineCosts:
    def test_three_syncs_two_rounds_per_superstep(self, pg):
        r = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
        # +1: the final gather barrier that detects convergence
        assert r.stats.global_syncs == 3 * r.stats.supersteps + 1
        assert r.stats.comm_rounds == 2 * r.stats.supersteps + 1

    def test_no_lazy_counters(self, pg):
        r = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
        assert r.stats.local_iterations == 0
        assert r.stats.coherency_points == 0


class TestLazyEngineCosts:
    def test_one_sync_per_coherency_point(self, pg):
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        assert r.stats.global_syncs == r.stats.coherency_points

    def test_fewer_syncs_than_eager(self, pg):
        sync = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
        lazy = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        assert lazy.stats.global_syncs < sync.stats.global_syncs

    def test_local_iterations_happen(self, pg):
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        assert r.stats.local_iterations > 0

    def test_never_model_disables_local_stages(self, pg):
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0), policy="never").run()
        assert r.stats.local_iterations == 0

    def test_mode_switch_counter_present(self, pg):
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0)).run()
        assert "mode_switches" in r.stats.extra


class TestAsyncEngines:
    def test_eager_async_no_global_syncs(self, pg):
        r = PowerGraphAsyncEngine(pg, SSSPProgram(0)).run()
        assert r.stats.global_syncs == 0

    def test_lazy_vertex_no_global_syncs(self, pg):
        r = LazyVertexAsyncEngine(pg, SSSPProgram(0)).run()
        assert r.stats.global_syncs == 0

    def test_async_moves_same_data_plus_probes(self, pg):
        """Eager Async shares Sync's data flow; it additionally pays for
        the termination-detection control probes."""
        from repro.cluster.termination import PROBE_BYTES_PER_MACHINE

        a = PowerGraphAsyncEngine(pg, SSSPProgram(0)).run()
        s = PowerGraphSyncEngine(pg, SSSPProgram(0)).run()
        probes = a.stats.extra["termination_probes"]
        probe_bytes = probes * PROBE_BYTES_PER_MACHINE * pg.num_machines
        assert a.stats.comm_bytes == s.stats.comm_bytes + probe_bytes
        assert probes >= 2


class TestTrafficConsistency:
    def test_bytes_are_message_multiples(self, pg):
        prog = SSSPProgram(0)
        for engine in (PowerGraphSyncEngine, LazyBlockAsyncEngine):
            r = engine(pg, prog).run()
            assert r.stats.comm_bytes == pytest.approx(
                r.stats.comm_messages * prog.delta_bytes
            )

    def test_single_machine_moves_nothing(self, er_weighted):
        pg1 = build_lazy_graph(er_weighted, 1, seed=1)
        for engine in (PowerGraphSyncEngine, LazyBlockAsyncEngine):
            r = engine(pg1, SSSPProgram(0)).run()
            assert r.stats.comm_bytes == 0.0
            assert r.stats.comm_messages == 0

    def test_time_breakdown_adds_up(self, pg):
        r = LazyBlockAsyncEngine(pg, PageRankDeltaProgram()).run()
        assert r.stats.modeled_time_s == pytest.approx(
            r.stats.compute_time_s + r.stats.comm_time_s + r.stats.sync_time_s
        )

    def test_work_counters_positive(self, pg_sym):
        # k=8 actually peels on the ~9-mean-degree symmetric ER graph
        r = LazyBlockAsyncEngine(pg_sym, KCoreProgram(k=8)).run()
        assert r.stats.edge_traversals > 0
        assert r.stats.vertex_updates > 0


class TestTraceParity:
    """The trace is a faithful second ledger of the same run (ISSUE
    acceptance: summed phase durations == RunStats.modeled_time_s).

    Iterates the engine registry, so any newly-registered engine is
    automatically held to the phase-tiling invariant.
    """

    @pytest.mark.parametrize(
        "engine", [s.name for s in engine_specs()]
    )
    def test_phase_durations_tile_modeled_time(self, pg, engine):
        spec = dict((s.name, s) for s in engine_specs())[engine]
        r = spec.cls(pg, spec.make_program("sssp", source=0), trace=True).run()
        trace = r.trace
        assert trace is not None
        phase_sum = sum(
            s["model_t1"] - s["model_t0"] for s in trace.spans("phase")
        )
        assert phase_sum == pytest.approx(r.stats.modeled_time_s, abs=1e-6)
        assert not trace.untracked, (
            f"{engine} charged model time outside any phase span: "
            f"{trace.untracked}"
        )

    def test_chrome_file_matches_run_stats(self, pg, tmp_path):
        """The Chrome export is an output only; the document itself must
        carry the run: phase ``"X"`` durations tile the modeled time and
        ``otherData.stats`` is the RunStats dump."""
        import json

        from repro.obs import export_trace

        r = LazyBlockAsyncEngine(pg, SSSPProgram(0), trace=True).run()
        path = tmp_path / "t.json"
        export_trace(r.trace, str(path), "chrome")
        doc = json.loads(path.read_text())
        phase_us = sum(
            e["dur"] for e in doc["traceEvents"]
            if e["ph"] == "X" and e["cat"] == "phase"
        )
        assert phase_us / 1e6 == pytest.approx(
            r.stats.modeled_time_s, abs=1e-6
        )
        assert doc["otherData"]["stats"] == json.loads(
            json.dumps(r.stats.to_dict())
        )
        assert doc["otherData"]["engine"] == "lazy-block"

    def test_coherency_instants_match_counters(self, pg):
        r = LazyBlockAsyncEngine(pg, SSSPProgram(0), trace=True).run()
        exchanges = r.trace.instants("coherency-exchange")
        # one instant per non-empty exchange; each carries both priced
        # volumes so Fig 5's protocol choice is auditable from the trace
        assert 0 < len(exchanges) <= r.stats.coherency_points
        for ev in exchanges:
            attrs = ev["attrs"]
            assert attrs["volume_a2a_bytes"] >= attrs["messages"] > 0
            assert attrs["mode"] in ("all_to_all", "mirrors_to_master")


class TestGoldenReport:
    """`repro analyze` report numbers from a hand-written golden trace."""

    GOLDEN = str(Path(__file__).parent.parent / "data" / "golden_trace.jsonl")

    def test_summary_values(self):
        from repro.obs import load_trace, summarize_trace

        summary = summarize_trace(load_trace(self.GOLDEN))
        assert summary["engine"] == "lazy-block"
        assert summary["algorithm"] == "pagerank"
        rows = {row["name"]: row for row in summary["phases"]}
        assert rows["coherency"]["count"] == 2
        assert rows["coherency"]["model_s"] == pytest.approx(0.25)
        assert rows["coherency"]["comm_s"] == pytest.approx(0.17)
        assert rows["coherency"]["sync_s"] == pytest.approx(0.03)
        assert rows["local-computation"]["model_s"] == 0.0
        assert summary["total_phase_s"] == pytest.approx(
            summary["totals"]["modeled_time_s"]
        )
        assert summary["decisions"] == {"total": 2, "lazy_on": 1, "lazy_off": 1}
        assert summary["modes"] == {"all_to_all": 1, "mirrors_to_master": 1}

    def test_cli_report_renders(self, capsys):
        from repro.cli import main

        assert main(["analyze", self.GOLDEN]) == 0
        out = capsys.readouterr().out
        assert "lazy-block/pagerank" in out
        assert "coherency" in out
        assert "interval rule: 2 decisions" in out
        assert "all_to_all×1" in out


class TestLazyTrafficWins:
    @pytest.mark.parametrize("prog_factory", [
        lambda: ConnectedComponentsProgram(),
        lambda: KCoreProgram(k=4),
    ])
    def test_idempotent_or_peeling_traffic_below_eager(self, pg_sym, prog_factory):
        sync = PowerGraphSyncEngine(pg_sym, prog_factory()).run()
        lazy = LazyBlockAsyncEngine(pg_sym, prog_factory()).run()
        assert lazy.stats.comm_bytes < sync.stats.comm_bytes
