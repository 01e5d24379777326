"""Shard-merge equivalence: buffered collectors ≡ the global-read path.

The tentpole guarantee of the sharded observability plane: for every
registered engine, running with per-machine buffered collectors merged
at barriers produces a record stream *bit-identical* to the legacy
passthrough path where every event writes the global tracer inline
(host-clock timestamps excepted — they are real wall time and differ
between any two runs; everything else, including span ids, parent
links, model-time stamps, charges, and the full RunStats dump with its
lens histograms, must match exactly).

Same discipline for the lens: its probe builds per-machine
:class:`ProbeSample` payloads and merges them; the direct global read
it replaced lives on as ``tests/lens_global_read_oracle.py``. Both must
agree bit-for-bit and pass the :class:`LensAuditor` strict-clean.

On top of the merged traces, the critical-path analyzer must name a
gating machine/channel for every superstep and its accounting must tile
``RunStats.modeled_time_s`` exactly.
"""

import pytest

from repro.obs.audit import LensAuditor
from repro.obs.critical_path import analyze_trace
from repro.obs.lens import CoherencyLens
from repro.obs.report import trace_from_tracer
from repro.obs.tracer import Tracer
from repro.core.transmission import build_lazy_graph
from repro.run_api import prepare_graph
from repro.runtime.registry import engine_names, get_engine
from tests.lens_global_read_oracle import global_read_probe

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


def _run(engine, alg, er_graph, *, buffered, lens=None):
    spec = get_engine(engine)
    params = {"tolerance": 1e-3} if alg == "pagerank" else {}
    program = spec.make_program(alg, **params)
    g = prepare_graph(er_graph, program, seed=0)
    pg = build_lazy_graph(g, MACHINES, seed=1)
    tracer = Tracer()
    kwargs = {"tracer": tracer}
    if lens is not None:
        kwargs["lens"] = lens
    elif "lens" in spec.options:
        kwargs["lens"] = True
    eng = spec.cls(pg, program, **kwargs)
    if not buffered:
        eng.shards.set_buffered(False)
    result = eng.run()
    return tracer, result


@pytest.mark.parametrize("engine,alg", MATRIX)
class TestShardMergeBitExact:
    def test_merged_stream_identical_to_global_read(
        self, engine, alg, er_graph
    ):
        t_buf, _ = _run(engine, alg, er_graph, buffered=True)
        t_raw, _ = _run(engine, alg, er_graph, buffered=False)
        buf = [_scrub(r) for r in t_buf.records]
        raw = [_scrub(r) for r in t_raw.records]
        assert len(buf) == len(raw)
        for i, (b, r) in enumerate(zip(buf, raw)):
            assert b == r, f"record #{i} diverged: {b} != {r}"

    def test_buffered_mode_actually_buffered(self, engine, alg, er_graph):
        tracer, _ = _run(engine, alg, er_graph, buffered=True)
        # engines wire their runtimes to the ShardedObs collectors and
        # the collectors buffer (the oracle comparison above would pass
        # trivially if both runs were passthrough)
        spec = get_engine(engine)
        program = spec.make_program(
            alg, **({"tolerance": 1e-3} if alg == "pagerank" else {})
        )
        g = prepare_graph(er_graph, program, seed=0)
        pg = build_lazy_graph(g, MACHINES, seed=1)
        eng = spec.cls(pg, program, tracer=Tracer())
        assert eng.shards.buffered
        assert all(
            rt.obs is eng.shards.collectors[rt.mg.machine_id]
            for rt in eng.runtimes
            if hasattr(rt, "obs")
        )


@pytest.mark.parametrize("engine,alg", MATRIX)
class TestCriticalPathOnRealTraces:
    def test_every_superstep_gated_and_time_tiles(
        self, engine, alg, er_graph
    ):
        tracer, result = _run(engine, alg, er_graph, buffered=True)
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


LENS_MATRIX = [
    (engine, alg)
    for engine in engine_names()
    if "lens" in get_engine(engine).options
    for alg in ALGORITHMS
]


@pytest.mark.parametrize("engine,alg", LENS_MATRIX)
class TestLensShardingBitExact:
    def test_sharded_probe_identical_to_global_read(
        self, engine, alg, er_graph, monkeypatch
    ):
        t_shard, _ = _run(engine, alg, er_graph, buffered=True, lens=True)
        monkeypatch.setattr(CoherencyLens, "probe", global_read_probe)
        t_legacy, _ = _run(engine, alg, er_graph, buffered=True, lens=True)
        shard = [_scrub(r) for r in t_shard.records]
        legacy = [_scrub(r) for r in t_legacy.records]
        assert shard == legacy

    def test_auditor_strict_clean_on_sharded_run(
        self, engine, alg, er_graph
    ):
        tracer, _ = _run(engine, alg, er_graph, buffered=True, lens=True)
        anomalies = LensAuditor(trace_from_tracer(tracer)).audit()
        assert anomalies == [], [str(a) for a in anomalies]
