"""Span self-time arithmetic on a synthetic tree (scripted clock)."""

import json
import types

from lgbench.tracing import Recorder, Target


def scripted(times):
    it = iter(times)
    return lambda: next(it)


def test_self_time_is_duration_minus_children(tmp_path):
    # root 0..20
    #   kept child 1..9   (grandchild 2..5)
    #   hot child 10..12 and 13..17 (the second holds a hot leaf 14..15)
    rec = Recorder(clock=scripted(
        [0, 1, 2, 5, 9, 10, 12, 13, 14, 15, 17, 20]
    ))
    rec.request = "r"
    root = rec.open("root", "session", "m.root")
    child = rec.open("child", "runtime", "m.child")
    grand = rec.open("grand", "kernels", "m.grand")
    assert rec.close(grand) == 3
    assert rec.close(child) == 8
    ns = types.SimpleNamespace(leaf=lambda: None)
    ns.hot = lambda nested: ns.leaf() if nested else None
    rec.install([
        Target(ns, "hot", "runtime", "m.hot", hot=True, name="hot"),
        Target(ns, "leaf", "kernels", "m.leaf", hot=True, name="leaf"),
    ])
    ns.hot(False)
    ns.hot(True)
    rec.uninstall()
    assert rec.close(root) == 20

    by_name = {s["name"]: s for s in rec.spans}
    assert by_name["grand"]["self_s"] == 3
    assert by_name["child"]["self_s"] == 8 - 3
    assert by_name["root"]["self_s"] == 20 - 8 - 2 - 4
    assert by_name["child"]["parent"] == by_name["root"]["id"]
    assert by_name["grand"]["parent"] == by_name["child"]["id"]
    assert by_name["root"]["parent"] is None
    # hot calls keep no span: count, total and self per (name, request)
    (agg,) = [v for k, v in rec.hot.items() if k[0] == "hot"]
    assert agg[:3] == [2, 6, 5]
    assert rec.calls("hot") == {"r": 2}
    # self times tile the root: nothing is counted twice or lost
    assert sum(rec.self_by_metric()["r"].values()) == 20

    path = tmp_path / "trace.jsonl"
    rec.write(str(path))
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == 3 + 2
    for span in records[:3]:
        assert {"name", "layer", "start", "end", "parent", "request"} <= set(span)
