"""Long mutation streams: every spliced partition is a fresh build.

``patch_partition`` never rebuilds: it splices the carried partition
(:meth:`~repro.partition.partitioned_graph.PartitionedGraph.splice`).
On the service graph the dynamic benchmark runs (R-MAT, 20k vertices,
150k edges, 8 machines) each of 64 batches of 16 removals and 16
insertions must leave a partition equal, array for array, to
``PartitionedGraph.build`` over the patched graph and the carried
assignment, with the ``array_equal`` census of unchanged machines. A
session's symmetrized and weighted variants, patched by
``symmetrized_patch`` and synthetic weights, must hold the same. One
batch of 5 % of the edges prints the splice's time beside the build's
(``pytest -rP`` shows it).
"""

import time

import numpy as np
import pytest

from repro.core.transmission import build_lazy_graph
from repro.graph.generators import erdos_renyi_graph, powerlaw_graph
from repro.graph.mutation import MutationBatch, apply_batch
from repro.partition.dynamic import patch_partition
from repro.partition.partitioned_graph import PartitionedGraph
from repro.runtime.registry import get_engine
from repro.session import GraphSession
from tests.property.test_splice_props import assert_same_partition, census

MACHINES = 8


@pytest.fixture(scope="module")
def service():
    graph = powerlaw_graph(20_000, 150_000, seed=1)
    return build_lazy_graph(graph, MACHINES, seed=0)


def random_batch(graph, rng, size: int) -> MutationBatch:
    """``size`` edges' pairs removed (every copy), ``size`` pairs added."""
    picked = rng.choice(graph.num_edges, size=size, replace=False)
    pairs = sorted(set(zip(graph.src[picked].tolist(),
                           graph.dst[picked].tolist())))
    ends = rng.integers(0, graph.num_vertices, size=(size, 2))
    return MutationBatch().remove_edges(pairs).add_edges(ends.tolist())


def rebuilt(pgraph: PartitionedGraph) -> PartitionedGraph:
    return PartitionedGraph.build(
        pgraph.graph, pgraph.assignment, pgraph.num_machines
    )


def test_every_patch_of_a_64_batch_stream_is_a_build(service):
    rng = np.random.default_rng(7)
    pgraph = service
    for _ in range(64):
        new_graph, diff = apply_batch(
            pgraph.graph, random_batch(pgraph.graph, rng, 16)
        )
        patched, stats = patch_partition(pgraph, new_graph, diff)
        np.testing.assert_array_equal(
            patched.assignment[: diff.num_kept],
            pgraph.assignment[diff.kept_eids],
        )
        want = rebuilt(patched)
        assert_same_partition(patched, want)
        assert stats.machines_unchanged == census(pgraph, want)
        pgraph = patched


def test_a_five_percent_batch(service):
    rng = np.random.default_rng(11)
    graph = service.graph
    new_graph, diff = apply_batch(
        graph, random_batch(graph, rng, graph.num_edges // 20)
    )
    patched, _ = patch_partition(service, new_graph, diff)
    placed = patched.assignment[diff.num_kept:]
    splice_s, build_s = [], []
    for _ in range(3):
        t0 = time.perf_counter()
        spliced, _ = service.splice(new_graph, diff, placed)
        t1 = time.perf_counter()
        want = rebuilt(patched)
        build_s.append(time.perf_counter() - t1)
        splice_s.append(t1 - t0)
    assert_same_partition(spliced, want)
    print(
        f"5% batch ({diff.num_removed} removed, {diff.num_added} added of "
        f"{graph.num_edges}): splice {1e3 * min(splice_s):.1f} ms, "
        f"build {1e3 * min(build_s):.1f} ms"
    )


@pytest.mark.parametrize("algorithm", ["cc", "sssp"])
def test_session_variants_stay_builds(algorithm):
    # cc runs on the symmetrized graph, sssp on synthetic weights
    program = get_engine("lazy-block").make_program(algorithm)
    base = erdos_renyi_graph(400, 3000, seed=5)
    session = GraphSession(base, machines=6, seed=2)
    session.partitioned(program)
    rng = np.random.default_rng(3)
    for _ in range(8):
        batch = random_batch(base, rng, 12)
        base, _ = apply_batch(base, batch)
        session.apply(batch)
        pgraph = session.partitioned(program)
        assert_same_partition(pgraph, rebuilt(pgraph))
