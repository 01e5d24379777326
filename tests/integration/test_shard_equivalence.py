"""One record stream: every engine's trace, pinned to the parent's.

Machine events (``machine-work`` passes, ``sweep-mode`` instants) and
lens probes are written to the run's tracer inline, in machine order.
Until commit ``650b908`` there was a second way — per-machine buffered
collectors merged by ``(epoch, machine, seq)`` at barriers, and a lens
probe assembled from per-machine samples — whose contract was to produce
this same stream. ``tests/data/trace_stream_pins.json`` holds, per
engine × algorithm, the record count and the sha256 of the stream that
commit produced (host-clock timestamps excepted — they are real wall
time and differ between any two runs; everything else, including span
ids, parent links, model-time stamps, charges, and the full RunStats
dump with its lens histograms, is digested). The cells were later
re-recorded on purpose, three times (see :func:`record_pins`).

On top of the traces, the :class:`LensAuditor` must be strict-clean, the
critical-path analyzer must name a gating machine/channel for every
superstep and its accounting must tile ``RunStats.modeled_time_s``
exactly, and the ``machine-work`` records — one per compute pass, the
one per-machine writer — must add up to the run's work counters.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.obs.audit import LensAuditor
from repro.obs.critical_path import analyze_trace
from repro.obs.records import trace_from_tracer
from repro.obs.tracer import Tracer
from repro.core.transmission import build_lazy_graph
from repro.run_api import prepare_graph
from repro.runtime.registry import engine_names, get_engine

PINS = Path(__file__).parent.parent / "data" / "trace_stream_pins.json"

MACHINES = 6
ALGORITHMS = ("pagerank", "cc")
MATRIX = [
    (engine, alg) for engine in engine_names() for alg in ALGORITHMS
]


def _scrub(obj):
    """Drop host-clock values recursively: host span stamps and the
    ``*host_s`` host-side timings nested in the RunStats dump."""
    if isinstance(obj, dict):
        return {
            k: _scrub(v) for k, v in obj.items()
            if k not in ("host_t0", "host_t1", "host_t") and "host_s" not in k
        }
    if isinstance(obj, (list, tuple)):
        return [_scrub(v) for v in obj]
    return obj


def _run(engine, alg, er_graph):
    spec = get_engine(engine)
    params = {"tolerance": 1e-3} if alg == "pagerank" else {}
    program = spec.make_program(alg, **params)
    g = prepare_graph(er_graph, program, seed=0)
    pg = build_lazy_graph(g, MACHINES, seed=1)
    tracer = Tracer()
    kwargs = {"tracer": tracer}
    if "lens" in spec.options:
        kwargs["lens"] = True
    result = spec.cls(pg, program, **kwargs).run()
    return tracer, result


def observe(engine, alg, er_graph):
    """``[sha256, count]`` of one cell's scrubbed record stream."""
    tracer, _ = _run(engine, alg, er_graph)
    records = [_scrub(r) for r in tracer.records]
    blob = json.dumps(records, sort_keys=True).encode()
    return [hashlib.sha256(blob).hexdigest(), len(records)]


def record_pins():  # pragma: no cover - run by hand
    """Rewrite every cell from the checked-out code.

    Every cell was last recorded on the commit that put ``active`` on
    the ``superstep`` span (it was an ``active_vertices`` counter record
    written only under ``trace=True``, so these ``tracer=`` streams had
    none): dropping ``active`` from that commit's superstep spans gave
    its parent's stream in every cell. Before that, every cell was
    recorded on the commit that made each compute
    pass one columnar ``machine-work`` span, because that commit changes
    every stream on purpose: the per-machine ``apply-machine`` /
    ``gather-machine`` spans, lazy-block's ``machine-work`` instants and
    the ``channel-round`` instants are gone, and one ``machine-work``
    span per pass (bootstrap included) takes the place of the first
    two. Removing those records from both its stream and its parent's
    and renumbering the span ids in order left the two streams equal,
    record by record. Before that, the four lazy-engine cells were
    re-recorded when ``MachineRuntime.delta_age`` became the one
    staleness clock (the lens's own ``active_vertices`` counter went,
    and ``staleness_max`` read the runtime clock), and the six
    eager-engine cells held commit ``650b908``'s stream.
    """
    from repro.graph.generators import erdos_renyi_graph

    er_graph = erdos_renyi_graph(200, 900, seed=11)  # conftest's er_graph
    PINS.write_text(json.dumps(
        {f"{engine}/{alg}": observe(engine, alg, er_graph)
         for engine, alg in MATRIX},
        indent=1, sort_keys=True,
    ) + "\n")


@pytest.mark.parametrize("engine,alg", MATRIX)
def test_record_stream_matches_the_parent(engine, alg, er_graph):
    pinned = json.loads(PINS.read_text())[f"{engine}/{alg}"]
    assert pinned[1] > 0
    assert observe(engine, alg, er_graph) == pinned


@pytest.mark.parametrize("engine,alg", MATRIX)
class TestCriticalPathOnRealTraces:
    def test_every_superstep_gated_and_time_tiles(
        self, engine, alg, er_graph
    ):
        tracer, result = _run(engine, alg, er_graph)
        analysis = analyze_trace(trace_from_tracer(tracer))
        assert analysis["supersteps"], "no supersteps reconstructed"
        for row in analysis["supersteps"]:
            gate = row["gating"]
            assert gate["kind"] in ("machine", "channel")
            key = "machine" if gate["kind"] == "machine" else "channel"
            assert gate[key] is not None
            # leg durations + self time tile the superstep's width
            legs_s = sum(leg["model_s"] for leg in row["legs"])
            assert legs_s + row["self_s"] == pytest.approx(
                row["model_s"], abs=1e-12
            )
        total = result.stats.modeled_time_s
        assert analysis["accounted_s"] == pytest.approx(
            total, rel=1e-9, abs=1e-12
        )
        assert analysis["total_modeled_s"] == pytest.approx(total)


@pytest.mark.parametrize("engine,alg", MATRIX)
def test_machine_work_records_add_up_to_the_run(engine, alg, er_graph):
    tracer, result = _run(engine, alg, er_graph)
    work = tracer.spans("machine")
    assert {r["name"] for r in work} == {"machine-work"}
    # a bootstrap pass (every engine but the pull engine has one)
    # writes one too
    parents = {r["id"]: r["name"] for r in tracer.spans()}
    if "bootstrap" in parents.values():
        assert parents[work[0]["parent"]] == "bootstrap"
    for column, counter in (("edges", "edge_traversals"),
                            ("applies", "vertex_updates")):
        assert sum(sum(r["attrs"][column]) for r in work) == getattr(
            result.stats, counter
        )
    for r in work:
        assert len(r["attrs"]["busy_s"]) == MACHINES
        assert r["model_t0"] == r["model_t1"]


LENS_MATRIX = [
    (engine, alg)
    for engine in engine_names()
    if "lens" in get_engine(engine).options
    for alg in ALGORITHMS
]


@pytest.mark.parametrize("engine,alg", LENS_MATRIX)
class TestLensShardingBitExact:
    def test_auditor_strict_clean_on_sharded_run(
        self, engine, alg, er_graph
    ):
        tracer, _ = _run(engine, alg, er_graph)
        anomalies = LensAuditor(trace_from_tracer(tracer)).audit()
        assert anomalies == [], [str(a) for a in anomalies]
