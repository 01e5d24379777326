"""Partition patching across mutations: carry and place.

:func:`patch_partition` must produce a *valid* vertex-cut (every check
in ``PartitionedGraph.validate``) whose kept edges stayed on their old
machines, report λ honestly, and name exactly the machines whose local
graphs survived untouched — that list is the session's license to reuse
cached CSR plans.
"""

import numpy as np
import pytest

from repro.core.transmission import build_lazy_graph
from repro.errors import ConfigError
from repro.graph.digraph import DiGraph
from repro.graph.generators import erdos_renyi_graph, powerlaw_graph
from repro.graph.mutation import MutationBatch, apply_batch
from repro.partition.coordinated_cut import _greedy_cut
from repro.partition.dynamic import patch_partition
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.partition.partitioned_graph import PartitionedGraph
from repro.utils.rng import make_rng


@pytest.fixture(scope="module")
def setup():
    graph = erdos_renyi_graph(120, 900, seed=4)
    pgraph = build_lazy_graph(graph, 6, seed=1)
    batch = (
        MutationBatch()
        .add_vertices(1)
        .add_edge(0, 120)
        .add_edge(120, 50)
        .add_edge(3, 90)
        .remove_edge(int(graph.src[5]), int(graph.dst[5]))
        .remove_edge(int(graph.src[200]), int(graph.dst[200]))
    )
    new_graph, diff = apply_batch(graph, batch)
    new_pgraph, stats = patch_partition(pgraph, new_graph, diff)
    return graph, pgraph, new_graph, diff, new_pgraph, stats


class TestPatchPartition:
    def test_patched_partition_is_valid(self, setup):
        *_, new_pgraph, _ = setup
        new_pgraph.validate()  # raises on any broken invariant

    def test_kept_edges_keep_their_machines(self, setup):
        _, pgraph, _, diff, new_pgraph, _ = setup
        np.testing.assert_array_equal(
            new_pgraph.assignment[: diff.num_kept],
            pgraph.assignment[diff.kept_eids],
        )

    def test_stats_account_for_every_edge(self, setup):
        _, _, new_graph, diff, new_pgraph, stats = setup
        assert stats.edges_carried + stats.edges_placed == (
            new_graph.num_edges
        )
        assert stats.edges_removed == diff.num_removed
        assert stats.lambda_after == pytest.approx(
            float(new_pgraph.replication_factor)
        )

    def test_unchanged_machines_really_are_unchanged(self, setup):
        _, pgraph, _, _, new_pgraph, stats = setup
        assert stats.machines_unchanged, "patch touched every machine?"
        for m in stats.machines_unchanged:
            old_mg, new_mg = pgraph.machines[m], new_pgraph.machines[m]
            np.testing.assert_array_equal(old_mg.vertices, new_mg.vertices)
            np.testing.assert_array_equal(old_mg.esrc, new_mg.esrc)
            np.testing.assert_array_equal(old_mg.edst, new_mg.edst)
        assert stats.machines_rebuilt == (
            stats.num_machines - len(stats.machines_unchanged)
        )

    def test_greedy_placement_prefers_endpoint_machines(self, setup):
        _, pgraph, _, diff, new_pgraph, _ = setup
        # the edge 3->90 (both endpoints pre-existing) must land on a
        # machine already hosting one of its endpoints
        eid = diff.num_kept + 2
        home = int(new_pgraph.assignment[eid])
        hosts = set(pgraph.replicas_of(3)) | set(pgraph.replicas_of(90))
        assert home in hosts

    def test_to_dict_round_trips_the_numbers(self, setup):
        *_, stats = setup
        d = stats.to_dict()
        assert d["edges_carried"] == stats.edges_carried
        assert d["lambda_drift"] == pytest.approx(stats.lambda_drift)

    def test_parallel_edge_sessions_rejected(self):
        graph = erdos_renyi_graph(60, 700, seed=2)
        pgraph = build_lazy_graph(
            graph, 4, seed=0,
            split_config=EdgeSplitConfig(textra=1.0),
        )
        assert pgraph.parallel_eids.size > 0
        new_graph, diff = apply_batch(
            graph, MutationBatch().add_edge(0, 1)
        )
        with pytest.raises(ConfigError, match="whole-graph degrees"):
            patch_partition(pgraph, new_graph, diff)

    def test_mismatched_diff_rejected(self, setup):
        graph, pgraph, *_ = setup
        other, diff = apply_batch(graph, MutationBatch().add_edge(0, 1))
        bad = erdos_renyi_graph(120, 50, seed=9)
        with pytest.raises(ConfigError):
            patch_partition(pgraph, bad, diff)


def _stars(loads):
    """One star per machine, hub ``m`` with ``loads[m]`` leaves, all of
    its edges on machine ``m``: each vertex has exactly one replica."""
    P = len(loads)
    src, dst, asg, leaf = [], [], [], P
    for m, k in enumerate(loads):
        src += [m] * k
        dst += range(leaf, leaf + k)
        asg += [m] * k
        leaf += k
    graph = DiGraph(leaf, np.array(src), np.array(dst))
    return graph, PartitionedGraph.build(graph, np.array(asg), P)


class TestResumedCascade:
    """Added edges run ``_greedy_cut`` resumed from the carried cut."""

    @pytest.mark.parametrize("machines", [1, 8, 13, 65])
    @pytest.mark.parametrize("shuffled", [False, True])
    def test_resume_from_nothing_is_the_cold_cut(self, machines, shuffled):
        # 8: the candidate table; 13: the bit scan; 65: two-word masks
        graph = powerlaw_graph(300, 2400, seed=machines)
        edges = (
            np.random.default_rng(machines).permutation(graph.num_edges)
            if shuffled else None
        )

        def cut(**resume):
            return _greedy_cut(
                graph, machines, make_rng(7), 0.1, edges, None, 1, **resume
            )

        resumed = cut(
            loads=np.zeros(machines, dtype=np.int64),
            masks=[0] * graph.num_vertices,
        )
        assert resumed.dtype == np.int32
        assert resumed.tobytes() == cut().tobytes()

    def test_a_batch_sees_its_own_replicas(self):
        # a new vertex attached to three hubs on three machines; a rule
        # blind to the batch's own replicas gives it 3
        graph, pgraph = _stars([50, 50, 50, 50])
        w = graph.num_vertices
        batch = MutationBatch().add_vertices(1)
        for hub in (1, 2, 3):
            batch.add_edge(w, hub)
        new_graph, diff = apply_batch(graph, batch)
        new_pgraph, _ = patch_partition(pgraph, new_graph, diff)
        assert new_pgraph.num_replicas[w] == 1
        new_pgraph.validate()

    def test_a_full_machine_spills(self):
        # machine 0 has room for two more edges under (1+ε)·E/P; each of
        # the eight added edges joins two of its leaves, so every one
        # prefers machine 0 (a rule without capacity puts all eight there)
        loads = [57, 50, 50, 50]
        graph, pgraph = _stars(loads)
        batch = MutationBatch()
        for leaf in range(4, 12):
            batch.add_edge(leaf, leaf + 1)
        new_graph, diff = apply_batch(graph, batch)
        new_pgraph, _ = patch_partition(pgraph, new_graph, diff)
        capacity = int(1.1 * (sum(loads) + diff.num_added) / len(loads))
        assert capacity == loads[0] + 2
        placed = new_pgraph.assignment[diff.num_kept:]
        assert np.count_nonzero(placed == 0) == 2
        assert np.bincount(new_pgraph.assignment).max() <= capacity

