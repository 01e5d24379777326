"""What ``repro analyze`` reads from a run trace, pinned across writers.

``tests/data/analyze_pins.json`` holds :func:`analyze_trace` over the
record-stream matrix of ``test_shard_equivalence`` (every registered
engine × pagerank / cc, 6 machines, lens on where an engine has one),
recorded on commit ``28ef290`` — the last commit whose engines wrote one
per-machine record per machine and pass (``apply-machine`` /
``gather-machine`` spans, lazy-block ``machine-work`` instants). The
columnar ``machine-work`` records that replaced them must give the
readers the same modeled content: gates, legs, per-machine busy totals,
stragglers. Host-clock keys (every ``host*`` key, at any depth) are
dropped — they are wall time, and since the change they are reported
per runtime rather than per machine. Floats compare to 1e-12 relative.

The ``supersteps[*].active`` column was re-recorded once since, on the
commit that made ``active`` an attribute of the ``superstep`` span (the
matrix's ``tracer=`` runs wrote no ``active_vertices`` counter, so the
column was ``None`` throughout); every other key was first checked
equal to the pins of ``28ef290``.
"""

import json
import math
from pathlib import Path

import pytest

from repro.obs.critical_path import analyze_trace
from repro.obs.records import trace_from_tracer
from tests.integration.test_shard_equivalence import MATRIX, _run

PINS = Path(__file__).parent.parent / "data" / "analyze_pins.json"


def _modeled(obj):
    """``obj`` without its host-clock keys, recursively."""
    if isinstance(obj, dict):
        return {
            k: _modeled(v) for k, v in obj.items()
            if not str(k).startswith("host")
        }
    if isinstance(obj, (list, tuple)):
        return [_modeled(v) for v in obj]
    return obj


def observe(engine, alg, er_graph):
    tracer, _ = _run(engine, alg, er_graph)
    return _modeled(analyze_trace(trace_from_tracer(tracer)))


def record_pins():  # pragma: no cover - run by hand on the parent commit
    from repro.graph.generators import erdos_renyi_graph

    er_graph = erdos_renyi_graph(200, 900, seed=11)  # conftest's er_graph
    PINS.write_text(json.dumps(
        {f"{engine}/{alg}": observe(engine, alg, er_graph)
         for engine, alg in MATRIX},
        sort_keys=True,
    ) + "\n")


def _assert_same(seen, pinned, path="$"):
    if isinstance(pinned, float) and isinstance(seen, (int, float)):
        assert math.isclose(seen, pinned, rel_tol=1e-12, abs_tol=0.0), path
    elif isinstance(pinned, dict):
        assert isinstance(seen, dict) and sorted(seen) == sorted(pinned), path
        for key in pinned:
            _assert_same(seen[key], pinned[key], f"{path}.{key}")
    elif isinstance(pinned, list):
        assert isinstance(seen, list) and len(seen) == len(pinned), path
        for i, (s, p) in enumerate(zip(seen, pinned)):
            _assert_same(s, p, f"{path}[{i}]")
    else:
        assert seen == pinned, path


@pytest.mark.parametrize("engine,alg", MATRIX)
def test_analysis_matches_the_per_machine_writer(engine, alg, er_graph):
    pinned = json.loads(PINS.read_text())[f"{engine}/{alg}"]
    assert pinned["supersteps"]
    # through JSON, as the pins were: tuples become lists, keys strings
    seen = json.loads(json.dumps(observe(engine, alg, er_graph)))
    _assert_same(seen, pinned)
