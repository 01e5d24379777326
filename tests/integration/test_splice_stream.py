"""Long mutation streams: every spliced partition is a fresh build.

``patch_partition`` never rebuilds: it splices the carried partition
(:meth:`~repro.partition.partitioned_graph.PartitionedGraph.splice`).
On the service graph the dynamic benchmark runs (R-MAT, 20k vertices,
150k edges, 8 machines) each of 64 batches of 16 removals and 16
insertions must leave a partition equal, array for array, to
``PartitionedGraph.build`` over the patched graph and the carried
assignment, with the ``array_equal`` census of unchanged machines. A
session's symmetrized and weighted variants, patched by
``symmetrized_patch`` and synthetic weights, must hold the same; a bfs +
sssp session splices once per batch and its weighted partition, the
bfs splice re-weighted, shares every array but ``eweight``. One batch
of 5 % of the edges prints the splice's time beside the build's, and a
two-variant session's ``apply`` time is printed beside a one-variant
one's (``pytest -rP`` shows both).
"""

import time

import numpy as np
import pytest

import repro.session as session_module
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


def _shares_all_but_eweight(a: PartitionedGraph, b: PartitionedGraph) -> bool:
    return all(
        np.shares_memory(arr, b._flat[name]) == (name != "eweight")
        for name, arr in a._flat.items()
    )


@pytest.mark.parametrize("algorithms", [
    ["cc"], ["sssp"], ["bfs", "sssp"],
], ids=["cc", "sssp", "bfs+sssp"])
def test_session_variants_stay_builds(algorithms, monkeypatch):
    # cc runs on the symmetrized graph, sssp on synthetic weights; bfs
    # + sssp is one topology, whose weighted variant re-weights the bfs
    # partition and must stay a build while one splice per batch runs
    calls = []
    real_patch = session_module.patch_partition

    def counted(*args, **kwargs):
        calls.append(1)
        return real_patch(*args, **kwargs)

    monkeypatch.setattr(session_module, "patch_partition", counted)
    programs = [get_engine("lazy-block").make_program(a) for a in algorithms]
    base = erdos_renyi_graph(400, 3000, seed=5)
    session = GraphSession(base, machines=6, seed=2)
    for program in programs:
        session.partitioned(program)
    rng = np.random.default_rng(3)
    for i in range(8):
        batch = random_batch(base, rng, 12)
        base, _ = apply_batch(base, batch)
        session.apply(batch)
        assert len(calls) == i + 1
        pgraphs = [session.partitioned(p) for p in programs]
        for pgraph in pgraphs:
            assert_same_partition(pgraph, rebuilt(pgraph))
        if len(pgraphs) == 2:
            assert _shares_all_but_eweight(*pgraphs)


def test_two_variant_apply_costs_about_one(capsys):
    """``pytest -rP`` prints a two-variant session's ``apply`` time
    beside a one-variant one's on the service graph."""
    graph = powerlaw_graph(20_000, 150_000, seed=1)
    times = {}
    for algorithms in (["bfs"], ["bfs", "sssp"]):
        session = GraphSession(graph, machines=MACHINES, seed=0)
        for a in algorithms:
            session.run(a, source=0)
        rng = np.random.default_rng(5)
        g, spent = graph, []
        for _ in range(6):
            batch = random_batch(g, rng, 16)
            g, _ = apply_batch(g, batch)
            t0 = time.perf_counter()
            session.apply(batch)
            spent.append(time.perf_counter() - t0)
        times[" + ".join(algorithms)] = 1e3 * float(np.median(spent))
    print("apply per 32-edge batch: " + ", ".join(
        f"{k} {v:.1f} ms" for k, v in times.items()
    ))
