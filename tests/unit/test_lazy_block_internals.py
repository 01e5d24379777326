"""White-box tests for LazyBlockAsyncEngine's control logic, read off
the coherency lens's decision log."""

import numpy as np
import pytest

from repro.algorithms import SSSPProgram
from repro.core import (
    CoherencyPolicy,
    LazyBlockAsyncEngine,
    build_lazy_graph,
)


@pytest.fixture()
def pg(er_weighted):
    return build_lazy_graph(er_weighted, 5, seed=1)


def _engine(pg, policy="simple", **options):
    """SSSP lazy-block engine under the named policy, lens on."""
    return LazyBlockAsyncEngine(
        pg, SSSPProgram(0),
        policy=CoherencyPolicy(policy, options=tuple(options.items())),
        lens=True,
    )


def _decisions(eng, kind):
    """The inputs of every ``kind`` decision the run logged, in order."""
    return [d.inputs for d in eng.lens.decisions if d.kind == kind]


class TestIntervalIntegration:
    def test_model_consulted_each_coherency_point(self, pg):
        eng = _engine(pg)
        eng.run()
        # one decision per non-final coherency point
        assert len(_decisions(eng, "turn_on_lazy")) == \
            eng.sim.stats.coherency_points - 1

    def test_ev_ratio_passed_through(self, pg):
        eng = _engine(pg)
        eng.run()
        evs = {round(d["ev_ratio"], 6) for d in _decisions(eng, "turn_on_lazy")}
        assert evs == {round(pg.graph.ev_ratio, 6)}

    def test_first_iteration_never_lazy(self, pg):
        """Paper §4.2.1 point 3: iteration 1 has no local stage."""
        eng = _engine(pg)
        eng.run()
        # the engine ran at least one local iteration overall, but only
        # after the first coherency point consulted the rule
        assert eng.sim.stats.local_iterations > 0
        # trend at the first consultation is the 0.0 bootstrap value
        assert _decisions(eng, "turn_on_lazy")[0]["trend"] == 0.0

    def test_trends_reflect_active_counts(self, pg):
        eng = _engine(pg, "never")
        eng.run()
        trends = [d["trend"] for d in _decisions(eng, "turn_on_lazy")]
        assert trends
        # trends are finite and bounded by definition (≤ 1)
        assert all(t <= 1.0 for t in trends)

    def test_budget_measured_from_first_micro_iteration(self, pg):
        eng = _engine(pg)
        eng.run()
        firsts = [d["first_iteration_s"]
                  for d in _decisions(eng, "local_budget")]
        assert firsts, "local stages ran: budgets must be sampled"
        assert all(t > 0 for t in firsts)

    def test_zero_budget_means_single_iteration_stages(self, pg):
        """A zero budget stops every stage after its first sweep."""
        eng = _engine(pg, "paper", budget_multiplier=0.0)
        eng.run()
        stats_tiny = eng.sim.stats
        budgets = _decisions(eng, "local_budget")
        assert budgets and all(d["budget_s"] == 0.0 for d in budgets)
        assert stats_tiny.local_iterations == len(budgets)
        eng2 = _engine(pg)  # simple: every stage runs to quiescence
        eng2.run()
        # unbounded stages pack strictly more local iterations per sync
        ratio_tiny = stats_tiny.local_iterations / stats_tiny.global_syncs
        ratio_big = (
            eng2.sim.stats.local_iterations / eng2.sim.stats.global_syncs
        )
        assert ratio_big > ratio_tiny


class TestStrategiesDiffer:
    def test_never_equals_zero_local_iterations(self, pg):
        eng = _engine(pg, "never")
        eng.run()
        assert eng.sim.stats.local_iterations == 0
        assert not _decisions(eng, "local_budget")

    def test_simple_packs_most_local_work(self, pg):
        results = {}
        for policy in ("never", "paper", "simple"):
            eng = _engine(pg, policy)
            eng.run()
            results[policy] = eng.sim.stats
        assert (
            results["never"].global_syncs
            >= results["paper"].global_syncs
            >= results["simple"].global_syncs
        )

    def test_all_strategies_same_answer(self, pg):
        values = []
        for policy in ("never", "paper", "simple"):
            values.append(_engine(pg, policy).run().values)
        a = np.nan_to_num(values[0], posinf=1e18)
        for v in values[1:]:
            assert np.array_equal(a, np.nan_to_num(v, posinf=1e18))
