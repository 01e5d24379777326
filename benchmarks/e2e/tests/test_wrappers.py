"""Wrappers come off cleanly: wrapped-then-unwrapped == never wrapped."""

import numpy as np

from lgbench import inputs
from lgbench.tracing import Recorder, targets
from repro.runtime.registry import get_engine
from repro.session import GraphSession


def _run(session):
    got = session.run("pagerank", engine="lazy-block", tolerance=1e-3)
    return got.values, got.stats.modeled_time_s, got.stats.supersteps


def test_wrapped_then_unwrapped_run_is_bit_identical():
    graph = inputs.pagerank_graph(3, quick=True)
    program = get_engine("lazy-block").make_program("pagerank", tolerance=1e-3)
    tgs = targets([program])
    originals = [
        (t.owner, t.attr,
         t.owner.__dict__[t.attr] if isinstance(t.owner, type)
         else getattr(t.owner, t.attr))
        for t in tgs
    ]
    with GraphSession.open(graph, machines=4, seed=0) as session:
        plain = _run(session)
        rec = Recorder()
        rec.request = 0
        rec.install(tgs)
        try:
            wrapped = _run(session)
        finally:
            rec.uninstall()
        after = _run(session)
    for owner, attr, raw in originals:
        now = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        assert now is raw, f"{owner}.{attr} was not restored"
    for got in (wrapped, after):
        assert np.array_equal(got[0], plain[0])
        assert got[1:] == plain[1:]
    per = rec.self_by_metric()[0]
    assert per["runtime.scatter_s"] > 0 and per["core.exchange_s"] > 0
    assert rec.calls("SerialBackend.dispatch")[0] > 0


def test_inputs_follow_the_seed():
    hot, scripts = inputs.query_script(2000, 5, clients=2, per_round=40, rounds=3)
    assert (hot, scripts) == inputs.query_script(2000, 5, 2, 40, 3)
    assert (hot, scripts) != inputs.query_script(2000, 6, 2, 40, 3)
    for script in scripts:  # every round holds the mix exactly
        for r in range(3):
            block = script[40 * r:40 * (r + 1)]
            assert [sum(a == alg for a, _ in block)
                    for alg in ("bfs", "ppr", "sssp")] == [20, 12, 8]
            assert sum(v in hot for _, v in block) >= 28
    graph = inputs.service_graph(5, quick=True)
    assert inputs.graph_sha256(graph) == inputs.graph_sha256(
        inputs.service_graph(5, quick=True)
    )
    assert inputs.graph_sha256(graph) != inputs.graph_sha256(
        inputs.service_graph(6, quick=True)
    )
    from repro.graph.mutation import apply_batch

    stream = inputs.mutation_stream(graph, 5, 8)
    assert [b.to_dict() for b in stream] == [
        b.to_dict() for b in inputs.mutation_stream(graph, 5, 8)
    ]
    cur = graph
    for batch in stream:  # every batch is valid when its turn comes
        batch.validate(cur)
        cur, diff = apply_batch(cur, batch)
        assert diff.num_added == inputs.BATCH_EDGES
