"""One pass, one dispatch: order and the engine/backend lifecycle."""

from __future__ import annotations

import ast
import importlib.util
import inspect

import pytest

from repro.cli import build_parser
from repro.core.transmission import build_lazy_graph
from repro.errors import BackendError
from repro.run_api import prepare_graph
from repro.runtime.backend import SerialBackend
from repro.runtime.registry import get_engine
from repro.runtime.run_config import RunConfig
from tests.unit.test_records import SRC, _tree


def _make_engine(er_graph):
    spec = get_engine("lazy-block")
    program = spec.make_program("pagerank", tolerance=1e-3)
    g = prepare_graph(er_graph, program, seed=0)
    pg = build_lazy_graph(g, 4, seed=1)
    return spec.cls(pg, program)


def test_dispatch_returns_results_in_machine_order(er_graph, monkeypatch):
    import repro.partition.partitioned_graph as pgmod

    monkeypatch.setattr(pgmod, "_BLOCK_EDGE_BUDGET", 0)  # a runtime per machine
    eng = _make_engine(er_graph)
    assert eng.backend.dispatch(lambda rt: (rt.mg.machine_id, "t")) == [
        (m, "t") for m in range(4)
    ]
    work = eng.backend.dispatch_work(lambda rt: rt.bootstrap(True))
    assert work.shape == (2, 4)


class TestFinishedEngineIsNotCyclicGarbage:
    """``close()`` lets go of the engine: a finished engine and its
    backend must not pin the partition (every machine graph, CSR plan
    and runtime) until the cyclic collector happens to run."""

    def test_partition_dies_with_the_engine(self, er_graph):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            eng = _make_engine(er_graph)
            partition = weakref.ref(eng.pgraph)
            eng.run()
            assert eng.backend.engine is None
            del eng
            assert partition() is None
        finally:
            gc.enable()

    def test_closed_serial_backend_says_so(self, er_graph):
        eng = _make_engine(er_graph)
        eng.run()
        with pytest.raises(BackendError, match="closed"):
            eng.backend.dispatch(lambda rt: rt.bootstrap(True))


class TestOneExecutionPath:
    """Every run executes inline; these fail when a second way grows
    back (the deleted class names are pinned by ``test_records``'s
    ``DELETED_NAMES`` scan)."""

    def test_nothing_under_src_imports_process_machinery(self):
        for path in sorted(SRC.rglob("*.py")):
            imported = set()
            for node in ast.walk(_tree(path)):
                if isinstance(node, ast.Import):
                    imported |= {a.name for a in node.names}
                elif isinstance(node, ast.ImportFrom):
                    imported.add(node.module or "")
                    imported |= {a.name for a in node.names}
            roots = {part for name in imported for part in name.split(".")}
            assert not roots & {"multiprocessing", "shared_memory"}, path

    def test_backend_module_defines_exactly_one_class(self):
        classes = [
            n.name for n in ast.walk(_tree(SRC / "runtime" / "backend.py"))
            if isinstance(n, ast.ClassDef)
        ]
        assert classes == ["SerialBackend"]

    @pytest.mark.parametrize(
        "module", ["repro.runtime.machine_ops", "repro.cluster.machine"]
    )
    def test_deleted_modules_stay_deleted(self, module):
        assert importlib.util.find_spec(module) is None

    def test_dispatch_takes_the_step_itself(self):
        # no op name, no payload: one callable, applied to each runtime
        for method in (SerialBackend.dispatch, SerialBackend.dispatch_work):
            assert list(inspect.signature(method).parameters) == [
                "self", "step",
            ]

    def test_lens_has_no_reader_of_its_own(self):
        from repro.obs.lens import CoherencyLens

        assert not {"sample_drift", "full_drift", "_pick_drift_sample"} & set(
            vars(CoherencyLens)
        )

    def test_no_lens_options_on_the_run_config(self):
        assert "lens_opts" not in RunConfig.field_names()

    def test_no_backend_selector_on_any_surface(self):
        assert not {"backend", "workers"} & set(RunConfig.field_names())
        (sub,) = [
            a for a in build_parser()._actions if a.dest == "command"
        ]
        for name, parser in sub.choices.items():
            flags = {f for a in parser._actions for f in a.option_strings}
            assert not flags & {"--backend", "--workers"}, name
