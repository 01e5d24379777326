"""White-box tests for LazyBlockAsyncEngine's control logic."""

import math

import numpy as np
import pytest

import repro.core.policy as policy_mod
from repro.algorithms import SSSPProgram
from repro.core import (
    CoherencyController,
    CoherencyPolicy,
    LazyBlockAsyncEngine,
    build_lazy_graph,
)


class RecordingController(CoherencyController):
    """Controller that logs every decision the engine asks for.

    ``lazy`` (0 / 1) is every ``turn_on_lazy`` verdict, ``budget`` every
    local-stage budget.
    """

    name = rule_name = "recording"

    def __init__(self, lazy=1.0, budget=math.inf):
        super().__init__()
        self.calls = []
        self.budgets = []
        self._lazy = bool(lazy)
        self._budget = budget

    def turn_on_lazy(self, signals):
        self.calls.append((signals.ev_ratio, signals.trend, self._lazy))
        return self._lazy

    def local_budget(self, first_iteration_time):
        self.budgets.append(first_iteration_time)
        return self._budget


@pytest.fixture()
def pg(er_weighted, monkeypatch):
    # a new policy is one controller class plus one table row
    monkeypatch.setitem(policy_mod._CONTROLLERS, "recording", RecordingController)
    return build_lazy_graph(er_weighted, 5, seed=1)


def _engine(pg, policy="recording", **options):
    """SSSP lazy-block engine under the named policy."""
    return LazyBlockAsyncEngine(
        pg, SSSPProgram(0),
        policy=CoherencyPolicy(policy, options=tuple(options.items())),
    )


class TestIntervalIntegration:
    def test_model_consulted_each_coherency_point(self, pg):
        eng = _engine(pg)
        model = eng.controller
        eng.run()
        # one decision per non-final coherency point
        assert len(model.calls) == eng.sim.stats.coherency_points - 1

    def test_ev_ratio_passed_through(self, pg):
        eng = _engine(pg)
        model = eng.controller
        eng.run()
        evs = {round(c[0], 6) for c in model.calls}
        assert evs == {round(pg.graph.ev_ratio, 6)}

    def test_first_iteration_never_lazy(self, pg):
        """Paper §4.2.1 point 3: iteration 1 has no local stage."""
        eng = _engine(pg)
        model = eng.controller
        eng.run()
        # the engine ran at least one local iteration overall, but only
        # after the first coherency point consulted the model
        assert eng.sim.stats.local_iterations > 0
        # trend at the first consultation is the 0.0 bootstrap value
        assert model.calls[0][1] == 0.0

    def test_trends_reflect_active_counts(self, pg):
        eng = _engine(pg, lazy=0.0)  # never lazy
        model = eng.controller
        eng.run()
        trends = [t for _, t, _ in model.calls]
        # trends are finite and bounded by definition (≤ 1)
        assert all(t <= 1.0 for t in trends)

    def test_budget_measured_from_first_micro_iteration(self, pg):
        eng = _engine(pg, budget=math.inf)
        model = eng.controller
        eng.run()
        assert model.budgets, "local stages ran: budgets must be sampled"
        assert all(b > 0 for b in model.budgets)

    def test_zero_budget_means_single_iteration_stages(self, pg):
        """A zero budget stops every stage after its first sweep."""
        eng = _engine(pg, budget=0.0)
        eng.run()
        stats_tiny = eng.sim.stats
        eng2 = _engine(pg, budget=math.inf)
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
