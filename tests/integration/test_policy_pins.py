"""Every named coherency policy, pinned to the numbers it produced before
the interval-model layer was folded into the controllers.

``tests/data/policy_pins.json`` holds one cell per named policy × lazy
engine × algorithm (web-uk-mini, 8 machines, lens on — a graph whose
E/V sits above the paper rule's threshold, so ``paper`` switches lazy
mode both on and off): the modeled time (as ``repr``), the protocol
counters, a digest of the result values and a digest of the decision
log's ``(kind, rule, verdict)`` sequence. A decision record's
``controller`` field is not pinned: under ``simple`` / ``never`` it now
names the policy instead of ``"paper"``.

The file was recorded on commit 70a2c41; see :func:`record_pins` for
what changed since.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.obs.tracer import Tracer

PINS = Path(__file__).parent.parent / "data" / "policy_pins.json"

GRAPH = "web-uk-mini"
MACHINES = 8
POLICIES = ("paper", "simple", "never")
CELLS = [
    (policy, engine, algorithm)
    for policy in POLICIES
    for engine in ("lazy-block", "lazy-vertex")
    for algorithm in ("pagerank", "sssp")
]


def _digest(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def observe(policy, engine, algorithm):
    """One lens-on run of a named policy, reduced to its pinned numbers."""
    tracer = Tracer()
    result = repro.run(
        GRAPH, algorithm, engine=engine, machines=MACHINES, seed=0,
        policy=policy, lens=True, tracer=tracer,
    )
    log = [
        [d["attrs"]["kind"], d["attrs"]["rule"], d["attrs"]["verdict"]]
        for d in tracer.instants("coherency-decision")
    ]
    stats = result.stats
    values = np.ascontiguousarray(result.values, dtype=np.float64)
    return {
        "modeled_time_s": repr(stats.modeled_time_s),
        "coherency_points": stats.coherency_points,
        "supersteps": stats.supersteps,
        "global_syncs": stats.global_syncs,
        "values": _digest(values.tobytes()),
        "decisions": [_digest(json.dumps(log).encode()), len(log)],
    }


def record_pins():  # pragma: no cover - run by hand
    """Rewrite every cell from the checked-out code.

    The six lazy-vertex cells were re-recorded on the commit that made
    the ``batched`` policy's rule the only LazyVertexAsync schedule (the
    ``batched`` policy and its four cells are deleted). Every one was
    first checked against its parent (``8234093``) run with
    ``policy="batched"``: the counters, modeled time and values are
    equal, and the decision logs are equal once ``batched-coalesce`` /
    ``batch-accumulate`` read ``max-delta-age``. The lazy-block cells
    are still those of commit 70a2c41.
    """
    PINS.write_text(json.dumps(
        {"/".join(cell): observe(*cell) for cell in CELLS},
        indent=1, sort_keys=True,
    ) + "\n")


@pytest.mark.parametrize("policy,engine,algorithm", CELLS)
def test_named_policy_matches_its_pins(policy, engine, algorithm):
    pinned = json.loads(PINS.read_text())["/".join((policy, engine, algorithm))]
    seen = observe(policy, engine, algorithm)
    assert seen["decisions"][1] > 0
    for key in pinned:  # key by key: a readable failure
        assert seen[key] == pinned[key], key
