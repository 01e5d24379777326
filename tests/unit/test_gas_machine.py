"""White-box tests for the pull engine's per-machine gather kernel."""

import numpy as np
import pytest

from repro.graph.digraph import DiGraph
from repro.partition.partitioned_graph import PartitionedGraph
from repro.partition.base import partition_graph
from repro.powergraph.engine_gas import _GASMachine, gas_plans
from repro.powergraph.gas import GASPageRank, GASSSSP


def single_machine(graph, program):
    asg = np.zeros(graph.num_edges, dtype=np.int32)
    pg = PartitionedGraph.build(graph, asg, 1)
    return _GASMachine(pg.machines[0], program)


@pytest.fixture()
def diamond():
    # 0->1, 0->2, 1->3, 2->3 with weights
    return DiGraph(4, [0, 0, 1, 2], [1, 2, 3, 3], weights=[1.0, 2.0, 3.0, 4.0])


class TestGather:
    def test_pulls_over_in_edges_of_active(self, diamond):
        prog = GASSSSP(source=0)
        gm = single_machine(diamond, prog)
        active = np.array([False, False, False, True])
        idx, acc, edges = gm.gather(prog, active)
        assert edges == 2  # vertex 3 has two in-edges
        assert idx.tolist() == [3]
        # min(dist[1] + 3, dist[2] + 4) with both dist = inf
        assert np.isinf(acc[0])

    def test_gather_uses_current_source_data(self, diamond):
        prog = GASSSSP(source=0)
        gm = single_machine(diamond, prog)
        gm.state["vdata"][:] = [0.0, 1.0, 2.0, np.inf]
        idx, acc, _ = gm.gather(prog, np.array([False, False, False, True]))
        assert acc[0] == pytest.approx(4.0)  # min(1+3, 2+4)

    def test_inactive_vertices_not_gathered(self, diamond):
        prog = GASSSSP(source=0)
        gm = single_machine(diamond, prog)
        idx, acc, edges = gm.gather(prog, np.zeros(4, dtype=bool))
        assert idx.size == 0 and edges == 0

    def test_pagerank_gather_divides_by_out_degree(self, diamond):
        prog = GASPageRank()
        gm = single_machine(diamond, prog)
        gm.state["vdata"][:] = [0.4, 0.2, 0.2, 0.15]
        idx, acc, _ = gm.gather(prog, np.array([False, True, False, False]))
        # vertex 1 pulls 0.4 / outdeg(0)=2
        assert acc[0] == pytest.approx(0.2)

    def test_vertex_without_in_edges(self, diamond):
        prog = GASPageRank()
        gm = single_machine(diamond, prog)
        idx, acc, edges = gm.gather(prog, np.array([True, False, False, False]))
        assert idx.size == 0  # nothing pulled; the engine's has|=active
        assert edges == 0


class TestOutTargets:
    def test_targets_are_global_ids(self, diamond):
        prog = GASPageRank()
        gm = single_machine(diamond, prog)
        targets = gm.out_targets(np.array([0]))
        assert sorted(targets.tolist()) == [1, 2]

    def test_no_out_edges(self, diamond):
        prog = GASPageRank()
        gm = single_machine(diamond, prog)
        assert gm.out_targets(np.array([3])).size == 0

    def test_multiple_sources(self, diamond):
        prog = GASPageRank()
        gm = single_machine(diamond, prog)
        targets = gm.out_targets(np.array([1, 2]))
        assert sorted(targets.tolist()) == [3, 3]


class TestPlans:
    def test_in_plan_folds_in_placement_order(self, er_graph):
        # local edges are source-ordered; a target's in-edges still fold
        # one-edge before parallel, each by ascending global edge id
        asg = partition_graph(er_graph, 4, "coordinated", seed=2)
        pg = PartitionedGraph.build(
            er_graph, asg, 4, parallel_eids=np.arange(0, 60)
        )
        for mg in pg.machines:
            in_plan, out_plan = gas_plans(mg)
            assert np.array_equal(
                in_plan.edge_ids(),
                np.lexsort((mg.eglobal, mg.eparallel, mg.edst)),
            )
            # the out-plan is keyed by the source order itself
            assert out_plan.eorder is None
            assert np.array_equal(out_plan.edge_ids(), np.arange(mg.num_local_edges))
