"""Trace round-trip fidelity for every registered engine.

A trace written to disk must summarize identically to the in-memory
trace it came from — otherwise the offline reader (``repro analyze``)
silently disagrees with what the run actually did.
Parametrized over the engine registry so a newly registered engine is
covered automatically.
"""

import pytest

from repro.obs import Tracer, export_trace, load_trace, summarize_trace
from repro.obs.records import trace_from_tracer
from repro.run_api import run
from repro.runtime.registry import engine_names

ENGINES = engine_names()


@pytest.fixture(scope="module")
def traced_runs():
    out = {}
    for engine in ENGINES:
        tracer = Tracer()
        run("road-ca-mini", "pagerank", engine=engine, machines=4,
            seed=0, tracer=tracer)
        out[engine] = tracer
    return out


@pytest.mark.parametrize("engine", ENGINES)
class TestJsonlRoundTrip:
    def test_summary_survives_disk(self, traced_runs, engine, tmp_path):
        tracer = traced_runs[engine]
        in_memory = summarize_trace(trace_from_tracer(tracer))
        path = tmp_path / f"{engine}.trace.jsonl"
        export_trace(tracer, str(path), "jsonl")
        from_disk = summarize_trace(load_trace(str(path)))
        assert from_disk == in_memory

    def test_meta_identifies_the_run(self, traced_runs, engine, tmp_path):
        tracer = traced_runs[engine]
        path = tmp_path / f"{engine}.trace.jsonl"
        export_trace(tracer, str(path), "jsonl")
        meta = load_trace(str(path)).meta
        assert meta["engine"] == engine
        assert "pagerank" in meta["algorithm"]  # GAS flavour: gas-pagerank
        assert meta["stats"]["supersteps"] > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_chrome_export_loads_back(traced_runs, engine, tmp_path):
    """The export loads back as the ``trace_event`` document a browser
    reads, and that document carries the run; the repo's own readers do
    not take it (Chrome is an export, not an input)."""
    import json

    path = tmp_path / f"{engine}.trace.json"
    export_trace(traced_runs[engine], str(path), "chrome")
    doc = json.loads(path.read_text())
    assert doc["otherData"]["engine"] == engine
    phase_us = sum(
        e["dur"] for e in doc["traceEvents"]
        if e["ph"] == "X" and e["cat"] == "phase"
    )
    assert phase_us > 0.0
    with pytest.raises(ValueError, match="--trace-format jsonl"):
        load_trace(str(path))


@pytest.mark.parametrize("engine", ENGINES)
def test_a_run_that_raises_exports_its_closed_spans(engine, tmp_path):
    """The route out of a run that raises: export the tracer in the
    ``except``. The file holds every span that closed (no ``run_meta``:
    the run never finished) and ``repro analyze`` reads it."""
    from repro.cli import main
    from repro.errors import ConvergenceError

    tracer = Tracer()
    path = tmp_path / f"{engine}.raised.jsonl"
    with pytest.raises(ConvergenceError):
        try:
            run("road-ca-mini", "pagerank", engine=engine, machines=4,
                seed=0, tracer=tracer, max_supersteps=2)
        except ConvergenceError:
            export_trace(tracer, str(path))
            raise
    loaded = load_trace(str(path))
    assert loaded.kind == "run"
    assert loaded.spans == tracer.spans()
    assert {s["name"] for s in loaded.spans} >= {"superstep", "machine-work"}
    assert loaded.meta == {}
    assert main(["analyze", str(path)]) == 0
