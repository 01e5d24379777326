"""Warm-start planning: graph deltas, plan gating, adapter mechanics.

End-to-end re-convergence equivalence lives in
``tests/integration/test_dynamic_equivalence.py``; this file pins the
host-side planning pieces in isolation.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.core.transmission import build_lazy_graph
from repro.errors import AlgorithmError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph
from repro.kernels.csr import CSRPlan
from repro.runtime.warm_start import (
    WarmStartProgram,
    collect_state,
    graph_delta,
    plan_warm_start,
)
from tests.warm_plan_oracle import global_machine_graph


def toy(src, dst, n=5, weights=None):
    return DiGraph(
        n,
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        None if weights is None else np.asarray(weights, dtype=np.float64),
    )


def block_plans(partition):
    """The delta engines' out-plan of each block."""
    return [
        CSRPlan(mg.esrc, mg.num_local_vertices, dst=mg.edst)
        for mg in partition.blocks
    ]


def plan(program, old, new, state):
    """Plan the :func:`graph_delta` of ``old`` → ``new`` on ``new``'s
    partition (``new`` keeps ``old``'s surviving edges in order, then
    appends the inserted ones)."""
    partition = build_lazy_graph(new, 2, seed=0)
    return plan_warm_start(
        program, old, new, state, *graph_delta(old, new),
        partition=partition, plans=block_plans(partition),
    )


class TestGraphDelta:
    def test_pure_insert_and_remove(self):
        old = toy([0, 1, 2], [1, 2, 3])
        new = toy([0, 2, 3], [1, 3, 4])
        removed, inserted = graph_delta(old, new)
        assert removed.tolist() == [1]  # 1->2 gone
        assert inserted.tolist() == [2]  # 3->4 new

    def test_parallel_copies_pair_greedily(self):
        old = toy([0, 0, 0], [1, 1, 1])
        new = toy([0, 0], [1, 1])
        removed, inserted = graph_delta(old, new)
        assert removed.size == 1 and inserted.size == 0

    def test_weight_change_is_remove_plus_insert(self):
        old = toy([0, 1], [1, 2], weights=[1.0, 2.0])
        new = toy([0, 1], [1, 2], weights=[1.0, 5.0])
        removed, inserted = graph_delta(old, new)
        assert removed.tolist() == [1]
        assert inserted.tolist() == [1]

    def test_identical_graphs_are_empty_delta(self):
        g = erdos_renyi_graph(30, 120, seed=1)
        removed, inserted = graph_delta(g, g)
        assert removed.size == 0 and inserted.size == 0


class TestGlobalMachineGraph:
    def test_whole_graph_one_machine(self):
        g = erdos_renyi_graph(25, 100, seed=2)
        mg = global_machine_graph(g)
        assert mg.num_local_vertices == g.num_vertices
        np.testing.assert_array_equal(mg.esrc, g.src)
        np.testing.assert_array_equal(
            mg.out_deg_global, g.out_degrees()
        )
        assert bool(mg.is_master.all())


class TestPlanGating:
    def test_requires_opt_in(self):
        g = erdos_renyi_graph(20, 60, seed=0)
        program = make_program("kcore")  # supports_warm_start=False
        with pytest.raises(AlgorithmError, match="supports_warm_start"):
            plan(program, g, g, {"vdata": np.zeros(20)})

    def test_vertex_set_can_only_grow(self):
        big = erdos_renyi_graph(20, 60, seed=0)
        small = erdos_renyi_graph(10, 30, seed=0)
        program = make_program("bfs", source=0)
        with pytest.raises(AlgorithmError, match="vertex ids"):
            plan(program, big, small, {"vdata": np.zeros(20)})

    def test_partition_must_be_the_new_graphs(self):
        old = toy([0, 1], [1, 2], n=3)
        new = toy([0], [1], n=3)
        program = make_program("bfs", source=0)
        partition = build_lazy_graph(old, 2, seed=0)
        with pytest.raises(AlgorithmError, match="partition"):
            plan_warm_start(
                program, old, new, {"vdata": np.array([0.0, 1.0, 2.0])},
                *graph_delta(old, new),
                partition=partition, plans=block_plans(partition),
            )


class TestIdempotentPlan:
    def test_identity_mutation_reseeds_nothing(self):
        g = erdos_renyi_graph(30, 150, seed=3)
        program = make_program("bfs", source=0)
        # fake fixpoint: the true BFS distances
        import repro

        F = repro.run(g, "bfs", machines=2, seed=0, source=0).values
        warm = plan(program, g, g, {"vdata": F})
        assert warm.num_reseeded == 0
        assert warm.num_injections == 0

    def test_deleting_support_edge_taints_target(self):
        # path 0 -> 1 -> 2: removing 1->2 invalidates F(2)
        old = toy([0, 1], [1, 2], n=3)
        new = toy([0], [1], n=3)
        program = make_program("bfs", source=0)
        F = np.array([0.0, 1.0, 2.0])
        warm = plan(program, old, new, {"vdata": F})
        mg = global_machine_graph(new)
        state = warm.make_state(mg)
        assert state["vdata"][2] == np.inf  # reseeded to cold init
        assert state["vdata"][1] == 1.0  # untainted keeps its fixpoint

    def test_inserted_edge_from_untainted_source_injects(self):
        old = toy([0], [1], n=3)
        new = toy([0, 1], [1, 2], n=3)
        program = make_program("bfs", source=0)
        F = np.array([0.0, 1.0, np.inf])
        warm = plan(program, old, new, {"vdata": F})
        mg = global_machine_graph(new)
        inj = warm.initial_messages(mg, warm.make_state(mg))
        assert inj is not None
        idx, accum = inj
        assert idx.tolist() == [2]
        assert accum.tolist() == [2.0]  # F(1) + 1 hop


class TestInvertiblePlan:
    def test_corrections_only_touch_affected_targets(self):
        g = erdos_renyi_graph(40, 200, seed=5)
        program = make_program("pagerank", tolerance=1e-4)
        # capture full state via a session-style global view
        pgraph = build_lazy_graph(g, 2, seed=0)
        from repro.core.lazy_block_async import LazyBlockAsyncEngine

        engine = LazyBlockAsyncEngine(pgraph, make_program(
            "pagerank", tolerance=1e-4
        ))
        engine.run()
        state = collect_state(pgraph, engine.runtimes)

        batch_removed = 3
        new = DiGraph(
            g.num_vertices, g.src[:-batch_removed], g.dst[:-batch_removed]
        )
        warm = plan(program, g, new, state)
        # every target of a removed edge (and of retained out-edges of
        # the out-degree-changed sources) may get a correction; nothing
        # else does
        changed_src = set(
            g.src[-batch_removed:].tolist()
        )
        allowed = set(g.dst[-batch_removed:].tolist())
        for s in changed_src:
            allowed.update(new.dst[new.src == s].tolist())
        assert set(warm.inject_idx.tolist()) <= allowed
        assert warm.num_reseeded == 0  # SUM reseeds fresh vertices only


class TestWarmStartProgramAdapter:
    def _warm(self):
        g = erdos_renyi_graph(20, 80, seed=7)
        program = make_program("bfs", source=0)
        import repro

        F = repro.run(g, "bfs", machines=2, seed=0, source=0).values
        return plan(program, g, g, {"vdata": F}), g

    def test_mirrors_base_facts(self):
        warm, _ = self._warm()
        base = warm.base
        assert warm.name == base.name
        assert warm.algebra is base.algebra
        assert warm.requires_symmetric == base.requires_symmetric
        assert warm.needs_weights == base.needs_weights
        assert warm.supports_warm_start is False  # class default; the
        # session fingerprints through .base instead of re-wrapping

    def test_initial_scatter_masked_to_reseeded(self):
        warm, g = self._warm()
        mg = global_machine_graph(g)
        state = warm.make_state(mg)
        _, active = warm.initial_scatter(mg, state)
        assert not active.any()  # nothing reseeded -> nothing active

    def test_reseeded_slots_keep_the_cold_init(self):
        # a warm table that disagrees with the cold init where reseeded
        g = erdos_renyi_graph(20, 80, seed=7)
        reseed = np.zeros(20, dtype=bool)
        reseed[[3, 5]] = True
        warm = WarmStartProgram(
            make_program("bfs", source=0), {"vdata": np.full(20, 7.0)},
            reseed, np.empty(0, dtype=np.int64), np.empty(0),
        )
        vdata = warm.make_state(global_machine_graph(g))["vdata"]
        assert vdata[[3, 5]].tolist() == [np.inf, np.inf]
        assert (vdata[~reseed] == 7.0).all()

    def test_validate_checks_alignment(self):
        warm, _ = self._warm()
        warm.validate()
        bad = WarmStartProgram(
            warm.base,
            {"vdata": np.zeros(3)},
            np.zeros(5, dtype=bool),
            np.empty(0, dtype=np.int64),
            np.empty(0),
        )
        with pytest.raises(AlgorithmError, match="misaligned"):
            bad.validate()
