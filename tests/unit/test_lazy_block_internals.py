"""White-box tests for LazyBlockAsyncEngine's control logic."""

import math

import numpy as np
import pytest

from repro.algorithms import SSSPProgram
from repro.core import (
    AdaptiveIntervalModel,
    LazyBlockAsyncEngine,
    NeverLazyModel,
    PaperRuleController,
    SimpleIntervalModel,
    build_lazy_graph,
)
from repro.core.interval_model import IntervalModel


class RecordingModel(IntervalModel):
    """Interval model that logs every decision the engine asks for."""

    name = "recording"

    def __init__(self, decide=lambda ev, trend: True, budget=math.inf):
        self.calls = []
        self.budgets = []
        self._decide = decide
        self._budget = budget

    def turn_on_lazy(self, ev_ratio, trend):
        out = self._decide(ev_ratio, trend)
        self.calls.append((ev_ratio, trend, out))
        return out

    def local_budget(self, first_iteration_time):
        self.budgets.append(first_iteration_time)
        return self._budget


@pytest.fixture()
def pg(er_weighted):
    return build_lazy_graph(er_weighted, 5, seed=1)


def _engine(pg, model):
    """SSSP lazy-block engine under the paper rule with ``model``."""
    return LazyBlockAsyncEngine(
        pg, SSSPProgram(0), controller=PaperRuleController(model)
    )


class TestIntervalIntegration:
    def test_model_consulted_each_coherency_point(self, pg):
        model = RecordingModel()
        eng = _engine(pg, model)
        eng.run()
        # one decision per non-final coherency point
        assert len(model.calls) == eng.sim.stats.coherency_points - 1

    def test_ev_ratio_passed_through(self, pg):
        model = RecordingModel()
        eng = _engine(pg, model)
        eng.run()
        evs = {round(c[0], 6) for c in model.calls}
        assert evs == {round(pg.graph.ev_ratio, 6)}

    def test_first_iteration_never_lazy(self, pg):
        """Paper §4.2.1 point 3: iteration 1 has no local stage."""
        model = RecordingModel()
        eng = _engine(pg, model)
        eng.run()
        # the engine ran at least one local iteration overall, but only
        # after the first coherency point consulted the model
        assert eng.sim.stats.local_iterations > 0
        # trend at the first consultation is the 0.0 bootstrap value
        assert model.calls[0][1] == 0.0

    def test_trends_reflect_active_counts(self, pg):
        model = RecordingModel(decide=lambda ev, t: False)  # never lazy
        eng = _engine(pg, model)
        eng.run()
        trends = [t for _, t, _ in model.calls]
        # trends are finite and bounded by definition (≤ 1)
        assert all(t <= 1.0 for t in trends)

    def test_budget_measured_from_first_micro_iteration(self, pg):
        model = RecordingModel(budget=math.inf)
        eng = _engine(pg, model)
        eng.run()
        assert model.budgets, "local stages ran: budgets must be sampled"
        assert all(b > 0 for b in model.budgets)

    def test_zero_budget_means_single_iteration_stages(self, pg):
        """A zero budget stops every stage after its first sweep."""
        tiny = RecordingModel(budget=0.0)
        eng = _engine(pg, tiny)
        eng.run()
        stats_tiny = eng.sim.stats
        big = RecordingModel(budget=math.inf)
        eng2 = _engine(pg, big)
        eng2.run()
        # unbounded stages pack strictly more local iterations per sync
        ratio_tiny = stats_tiny.local_iterations / stats_tiny.global_syncs
        ratio_big = (
            eng2.sim.stats.local_iterations / eng2.sim.stats.global_syncs
        )
        assert ratio_big > ratio_tiny


class TestStrategiesDiffer:
    def test_never_equals_zero_local_iterations(self, pg):
        eng = _engine(pg, NeverLazyModel())
        eng.run()
        assert eng.sim.stats.local_iterations == 0

    def test_simple_packs_most_local_work(self, pg):
        results = {}
        for model in (NeverLazyModel(), AdaptiveIntervalModel(), SimpleIntervalModel()):
            eng = _engine(pg, model)
            eng.run()
            results[model.name] = eng.sim.stats
        assert (
            results["never"].global_syncs
            >= results["adaptive"].global_syncs
            >= results["simple"].global_syncs
        )

    def test_all_strategies_same_answer(self, pg):
        values = []
        for name in ("never", "adaptive", "simple"):
            from repro.core import make_interval_model

            eng = _engine(pg, make_interval_model(name))
            values.append(eng.run().values)
        a = np.nan_to_num(values[0], posinf=1e18)
        for v in values[1:]:
            assert np.array_equal(a, np.nan_to_num(v, posinf=1e18))
