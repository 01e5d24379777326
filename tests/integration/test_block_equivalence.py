"""Block equivalence: how machines are grouped into runtimes is invisible.

The delta engines execute one :class:`MachineRuntime` per *block* of
consecutive machines (``PartitionedGraph.blocks``). Where the block
boundaries fall is a host-side scheduling choice — it must not move a
single value, modeled second or per-machine counter. This module pins
that from four sides:

* the matrix — every delta engine × six programs × four partition
  shapes, run with every machine alone, a mid budget that cuts the
  shape into a few merged blocks, the default budget and everything in
  one block: values, ``modeled_time_s`` and the whole
  ``RunStats`` dump (minus the ``kernel_scatter/*`` extras, which count
  sweeps per block by design) are equal; likewise for a warm start
  after a mutation batch;
* a Hypothesis sweep over random graphs, machine counts and *arbitrary*
  splits of consecutive machines, plus the structural invariants of a
  block list;
* per-machine accounting and the per-machine trace events against
  numbers recorded from the one-runtime-per-machine code this design
  replaced (``tests/data/block_pins.json``; regenerate only by checking
  out that parent and calling :func:`record_pins` there — the columnar
  ``machine-work`` records are folded back into that code's
  per-machine events, :func:`_per_machine_events`);
* that no cached plan outlives its partition across ``session.apply``.
"""

import hashlib
import json
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.partition.partitioned_graph as pgmod
from repro.core.transmission import build_lazy_graph
from repro.graph.digraph import DiGraph
from repro.graph.generators import powerlaw_graph, road_grid_graph
from repro.graph.mutation import MutationBatch
from repro.obs.tracer import Tracer
from repro.partition.base import partition_graph
from repro.partition.edge_splitter import EdgeSplitConfig
from repro.partition.partitioned_graph import PartitionedGraph
from repro.powergraph.eager_exchange import EagerExchange
from repro.run_api import prepare_graph
from repro.runtime.registry import get_engine
from repro.session import GraphSession

PINS = Path(__file__).parent.parent / "data" / "block_pins.json"

DELTA_ENGINES = ("lazy-block", "lazy-vertex", "powergraph-sync",
                 "powergraph-async")
ALGORITHMS = {
    "pagerank": {"tolerance": 1e-3},
    "sssp": {"source": 0},
    "cc": {},
    "bfs": {"source": 0},
    "kcore": {"k": 3},
    "ppr": {"seeds": (0, 5), "tolerance": 1e-3},
}

# name -> (graph factory, machines, edge split)
SHAPES = {
    "road48": (lambda: road_grid_graph(24, 24, seed=3), 48, None),
    "powerlaw8": (lambda: powerlaw_graph(1500, 9000, seed=3), 8, None),
    "tiny4": (lambda: road_grid_graph(3, 3, seed=3), 4, None),
    "split8": (
        lambda: powerlaw_graph(400, 3000, seed=5), 8,
        EdgeSplitConfig(textra=0.5, teps=50_000),
    ),
}
#: a budget that cuts each shape into a few merged blocks (more than
#: one, fewer than its machines) for every program; the default budget
#: is one block on all of them
MID_BUDGETS = {"road48": 1 << 9, "powerlaw8": 1 << 13, "tiny4": 10,
               "split8": 1 << 12}


def _budgets(shape):
    """Every machine alone / a few merged blocks / the default /
    everything in one block."""
    return (0, MID_BUDGETS[shape], pgmod._BLOCK_EDGE_BUDGET, 1 << 62)


def _scrub(obj):
    """Drop what legitimately depends on block boundaries or the host:
    the per-sweep kernel extras and every host-clock reading."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v) for k, v in obj.items()
            if "kernel_scatter/" not in k and "host_s" not in k
            and k not in ("host_t0", "host_t1", "host_t")
        }
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    return obj


def _partition(shape, algorithm, engine="lazy-block"):
    """A fresh partition (blocks are built lazily, once per partition)."""
    make, machines, split = SHAPES[shape]
    program = get_engine(engine).make_program(
        algorithm, **ALGORITHMS[algorithm]
    )
    graph = prepare_graph(make(), program, seed=0)
    return build_lazy_graph(graph, machines, split_config=split, seed=1), program


def _run(engine, shape, algorithm, **kwargs):
    pg, program = _partition(shape, algorithm, engine)
    return pg, get_engine(engine).cls(pg, program, **kwargs).run()


def _assert_same_run(a, b):
    np.testing.assert_array_equal(a.values, b.values)
    assert a.stats.modeled_time_s == b.stats.modeled_time_s
    assert _scrub(a.stats.to_dict()) == _scrub(b.stats.to_dict())


# ----------------------------------------------------------------------
# (a) the matrix


@pytest.mark.parametrize("engine,algorithm,shape", [
    (engine, algorithm, shape)
    for engine in DELTA_ENGINES for algorithm in ALGORITHMS for shape in SHAPES
    # parallel edges are a lazy-engine layout
    if shape != "split8" or get_engine(engine).family == "lazy"
])
def test_block_boundaries_do_not_move_a_run(
    engine, algorithm, shape, monkeypatch
):
    runs, block_counts = [], []
    for budget in _budgets(shape):
        monkeypatch.setattr(pgmod, "_BLOCK_EDGE_BUDGET", budget)
        pg, result = _run(engine, shape, algorithm)
        runs.append(result)
        block_counts.append(len(pg.blocks))
    assert block_counts[0] == pg.num_machines and block_counts[-1] == 1
    assert 1 < block_counts[1] < pg.num_machines
    for run in runs[1:]:
        _assert_same_run(runs[0], run)


@pytest.mark.parametrize("algorithm", ["bfs", "sssp", "pagerank"])
def test_warm_start_over_any_block_split(algorithm, monkeypatch):
    graph = road_grid_graph(24, 24, seed=3)
    batch = (
        MutationBatch()
        .add_edge(0, 300).add_edge(17, 501)
        .remove_edge(int(graph.src[5]), int(graph.dst[5]))
        .remove_edge(int(graph.src[700]), int(graph.dst[700]))
    )
    outcomes = []
    for budget in _budgets("road48"):
        monkeypatch.setattr(pgmod, "_BLOCK_EDGE_BUDGET", budget)
        with GraphSession.open(graph, machines=48, seed=0) as session:
            cold = session.run(algorithm, **ALGORITHMS[algorithm])
            session.apply(batch)
            warm = session.run(
                algorithm, incremental=True, **ALGORITHMS[algorithm]
            )
        assert warm.stats.extra["warm_start"] == 1.0
        outcomes.append((cold, warm))
    for cold, warm in outcomes[1:]:
        _assert_same_run(outcomes[0][0], cold)
        _assert_same_run(outcomes[0][1], warm)


# ----------------------------------------------------------------------
# (b) arbitrary splits + the block invariants


def _assert_block_invariants(pg):
    covered = 0
    for block in pg.blocks:
        k = block.num_machines
        assert block.machine_id == covered  # in order, each machine once
        offsets = block.machine_offsets
        assert offsets.dtype == np.int64 and offsets.size == k + 1
        assert offsets[0] == 0 and offsets[-1] == block.num_local_vertices
        assert np.all(np.diff(offsets) >= 0)
        machines = pg.machines[covered : covered + k]
        assert np.diff(offsets).tolist() == [
            mg.num_local_vertices for mg in machines
        ]
        if k == 1:
            assert block is machines[0]
        # the block is its machines laid back to back; one allocation
        # underneath, so everything but the renumbered endpoints is shared
        at = 0
        for mg, lo in zip(machines, offsets[:-1].tolist()):
            e = slice(at, at + mg.num_local_edges)
            assert np.array_equal(block.esrc[e], mg.esrc + lo)
            assert np.array_equal(block.edst[e], mg.edst + lo)
            assert np.array_equal(block.eglobal[e], mg.eglobal)
            for name in ("vertices", "is_master", "num_replicas",
                         "out_deg_global", "eweight", "eparallel", "eglobal"):
                mine, theirs = getattr(block, name), getattr(mg, name)
                assert theirs.size == 0 or np.shares_memory(mine, theirs)
            at += mg.num_local_edges
        assert at == block.num_local_edges
        covered += k
    assert covered == pg.num_machines


@st.composite
def graph_and_split(draw):
    n = draw(st.integers(4, 40))
    m = draw(st.integers(3, 120))
    src = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    dst = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    w = draw(st.lists(st.floats(0.5, 5.0), min_size=m, max_size=m))
    graph = DiGraph(n, np.asarray(src), np.asarray(dst), np.asarray(w))
    machines = draw(st.integers(1, 16))
    seed = draw(st.integers(0, 500))
    cuts = draw(st.sets(st.integers(1, machines - 1))) if machines > 1 else ()
    edges = [0, *sorted(cuts), machines]
    return graph, machines, seed, list(zip(edges[:-1], edges[1:]))


@given(case=graph_and_split(),
       engine=st.sampled_from(DELTA_ENGINES),
       algorithm=st.sampled_from(("sssp", "pagerank", "bfs")))
@settings(max_examples=40, deadline=None)
def test_any_split_of_consecutive_machines(case, engine, algorithm):
    graph, machines, seed, bounds = case
    program = get_engine(engine).make_program(
        algorithm, **ALGORITHMS[algorithm]
    )
    asg = partition_graph(graph, machines, "random", seed=seed)

    def run(block_bounds):
        pg = PartitionedGraph.build(graph, asg, machines)
        with mock.patch.object(pgmod, "_block_bounds", block_bounds):
            _assert_block_invariants(pg)
        return pg, get_engine(engine).cls(pg, program).run()

    _, alone = run(lambda counts: [(m, m + 1) for m in range(len(counts))])
    pg, split = run(lambda counts: bounds)
    assert [(b.machine_id, b.num_machines) for b in pg.blocks] == [
        (lo, hi - lo) for lo, hi in bounds
    ]
    _assert_same_run(alone, split)


def test_default_budget_merges_small_machines_only():
    budget = pgmod._BLOCK_EDGE_BUDGET
    g = powerlaw_graph(20_000, 150_000, seed=1)
    # a machine past half the budget amortises its own call: two of
    # them overflow a block, so each stays alone and *is* its machine
    big = PartitionedGraph.build(g, partition_graph(g, 2, "random", seed=1), 2)
    # the service shape (the benchmarks' serve / mutation graph on the
    # session's default cut): 8 machines of ~21k edges, merged greedily
    service = build_lazy_graph(g, 8, seed=0)
    road, _ = _partition("road48", "sssp")
    for pg in (big, service, road):
        _assert_block_invariants(pg)
    assert min(mg.num_local_edges for mg in big.machines) > budget // 2
    assert all(b is mg for b, mg in zip(big.blocks, big.machines))
    assert max(mg.num_local_edges for mg in service.machines) < budget // 4
    assert [(b.machine_id, b.num_machines) for b in service.blocks] == [
        (0, 6), (6, 2)
    ]
    assert all(b.num_local_edges <= budget for b in service.blocks)
    assert len(road.blocks) == 1


def test_global_to_local_refuses_absent_ids_and_merged_blocks(monkeypatch):
    from repro.errors import PartitionError

    monkeypatch.setattr(pgmod, "_BLOCK_EDGE_BUDGET", 1 << 62)
    pg, _ = _partition("road48", "sssp")
    mg = pg.machines[3]
    assert np.array_equal(
        mg.vertices[mg.global_to_local(mg.vertices[::-1])], mg.vertices[::-1]
    )
    absent = np.setdiff1d(np.arange(pg.graph.num_vertices), mg.vertices)
    for gid in (absent[0], absent[-1], pg.graph.num_vertices + 7):
        with pytest.raises(PartitionError, match=f"vertex {gid} "):
            mg.global_to_local(np.array([mg.vertices[0], gid]))
    with pytest.raises(PartitionError, match="block of 48 machines"):
        pg.blocks[0].global_to_local(mg.vertices)


# ----------------------------------------------------------------------
# (c) + (d) per-machine accounting and trace events, pinned to the parent

PIN_SHAPES = {
    "road16": (lambda: road_grid_graph(40, 40, seed=3), 16),
    "powerlaw4": (lambda: powerlaw_graph(3000, 18000, seed=3), 4),
}
ACCOUNTING = ("busy_max_total_s", "busy_mean_total_s", "compute_skew",
              "edge_traversals", "vertex_updates", "modeled_time_s")


def _per_machine_events(tracer):
    """The ``machine-work`` records as the per-machine writer's tuples.

    The pins were recorded when every pass wrote one ``apply-machine``
    span per machine and the lazy-block local stage one ``machine-work``
    instant per machine that worked, holding the stage's sums. Folded
    back the same way: a local stage's passes are summed per machine
    (in pass order) and idle machines skipped, the bootstrap pass (which
    wrote nothing then) is skipped, every other pass is one tuple per
    machine.
    """
    names = {r["id"]: r["name"] for r in tracer.spans()}
    events, stages = [], {}
    for record in tracer.spans("machine"):
        attrs = record["attrs"]
        leg = names[record["parent"]]
        columns = list(zip(attrs["edges"], attrs["applies"], attrs["busy_s"]))
        if leg == "bootstrap":
            continue
        if leg != "local-computation":
            events += [
                ("apply-machine", m, attrs["superstep"], e, a, b)
                for m, (e, a, b) in enumerate(columns)
            ]
            continue
        _, sums = stages.setdefault(
            record["parent"], (attrs["superstep"], [[0, 0, 0.0] for _ in columns])
        )
        for total, column in zip(sums, columns):
            for k in range(3):
                total[k] += column[k]
    for step, sums in stages.values():
        events += [
            ("machine-work", m, step, e, a, b)
            for m, (e, a, b) in enumerate(sums) if e or a
        ]
    return events


def observe(shape, engine, algorithm):
    """What one traced run says about each machine (JSON-serialisable)."""
    make, machines = PIN_SHAPES[shape]
    program = get_engine(engine).make_program(
        algorithm, **ALGORITHMS[algorithm]
    )
    pg = build_lazy_graph(prepare_graph(make(), program, seed=0), machines,
                          seed=1)
    sent = []
    collect = EagerExchange.collect

    def recording_collect(self):
        traffic = collect(self)
        sent.append(traffic.sent_per_machine.tolist())
        return traffic

    tracer = Tracer()
    kwargs = {"lens": True} if "lens" in get_engine(engine).options else {}
    with mock.patch.object(EagerExchange, "collect", recording_collect):
        result = get_engine(engine).cls(
            pg, program, tracer=tracer, **kwargs
        ).run()
    stats = result.stats.to_dict()
    events = sorted(_per_machine_events(tracer))
    mass = [p["attrs"]["machine_mass"] for p in tracer.instants("lens-probe")]
    assert all(len(row) == machines for row in sent + mass)
    return {
        "accounting": {k: stats[k] for k in ACCOUNTING},
        # whole per-call / per-probe series by digest, plus a readable sum
        "sent_per_machine": [_digest(sent), np.sum(sent, axis=0).tolist()],
        "machine_events": [_digest(events), len(events)],
        "machine_mass": [_digest(mass), len(mass)],
    }


def _digest(rows) -> str:
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()


PIN_CELLS = [
    (shape, engine, algorithm)
    for shape in PIN_SHAPES
    for engine in DELTA_ENGINES
    for algorithm in ("sssp", "pagerank")
]


def record_pins():  # pragma: no cover - run by hand on the parent commit
    """Rewrite every cell from the checked-out code.

    The four lazy-vertex cells were re-recorded from the commit that
    made ``batched``'s rule the only LazyVertexAsync schedule, after
    checking each equal, digest for digest, to its parent (``8234093``)
    run with ``policy="batched"``; the other cells were left as they
    were.
    """
    PINS.write_text(json.dumps(
        {"/".join(cell): observe(*cell) for cell in PIN_CELLS},
        indent=1, sort_keys=True,
    ) + "\n")


@pytest.mark.parametrize("shape,engine,algorithm", PIN_CELLS)
def test_per_machine_accounting_and_events_match_the_parent(
    shape, engine, algorithm
):
    pinned = json.loads(PINS.read_text())["/".join((shape, engine, algorithm))]
    seen = observe(shape, engine, algorithm)
    assert seen["machine_events"][1] > 0
    for key in pinned:  # key by key: a readable failure
        assert seen[key] == pinned[key], key


# ----------------------------------------------------------------------
# (e) session: cached plans after session.apply


def _arrays(obj):
    return [a for a in vars(obj).values() if isinstance(a, np.ndarray)]


def test_cached_plans_never_view_a_superseded_partition(monkeypatch):
    # a delta plan is a view of its block's source-ordered edges: one
    # carried across session.apply would keep the superseded partition
    # alive, so every plan is rebuilt over the new one — also for the
    # blocks and machines a batch leaves untouched
    graph = road_grid_graph(24, 24, seed=3)
    monkeypatch.setattr(pgmod, "_BLOCK_EDGE_BUDGET", 300)
    with GraphSession.open(graph, machines=48, seed=0) as session:
        session.run("bfs", source=0)
        (pg,) = session._pgraphs.values()
        assert 4 < len(pg.blocks) < 48
        session.run("pagerank", engine="powergraph-gas-sync", tolerance=1e-3)
        assert {pk[1] for pk in session._plans} == {"delta", "gas"}
        superseded = []
        for batch in (
            MutationBatch().add_edge(0, 1).add_edge(5, 9),
            MutationBatch().add_edge(3, 77).add_edge(100, 7),
        ):
            (pg,) = session._pgraphs.values()
            superseded += [
                a for mg in pg.machines + pg.blocks for a in _arrays(mg)
            ]
            (stats,) = session.apply(batch).patches.values()
            assert 0 < len(stats.machines_unchanged) < 48
        for pkey, plans in session._plans.items():
            live = session._pgraphs[pkey[0]]
            if pkey[1] == "delta":
                for block, plan in zip(live.blocks, plans):
                    assert np.shares_memory(plan.key_sorted, block.esrc)
                    assert np.shares_memory(plan.dst_sorted, block.edst)
            flat = [p for u in plans for p in (u if pkey[1] == "gas" else (u,))]
            for plan in flat:
                for arr in _arrays(plan):
                    assert not any(np.shares_memory(arr, old) for old in superseded)
        # and the run over them is the run over freshly built plans
        rebuilt = session.run("bfs", source=0)
        session._plans.clear()
        _assert_same_run(rebuilt, session.run("bfs", source=0))
