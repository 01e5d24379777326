"""Execution-backend layer: resolution, shared arrays, crash handling."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.transmission import build_lazy_graph
from repro.errors import BackendError, ConfigError
from repro.run_api import prepare_graph
from repro.runtime.backend import (
    BACKEND_NAMES,
    SerialBackend,
    resolve_backend,
)
from repro.runtime.process_backend import ProcessBackend
from repro.runtime.registry import get_engine


class TestResolveBackend:
    def test_default_is_serial(self):
        assert isinstance(resolve_backend(None), SerialBackend)
        assert isinstance(resolve_backend("serial"), SerialBackend)

    def test_process_by_name(self):
        be = resolve_backend("process", workers=3, seed=7)
        assert isinstance(be, ProcessBackend)
        assert be.workers == 3
        assert be.seed == 7

    def test_instance_passthrough(self):
        be = SerialBackend()
        assert resolve_backend(be) is be

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigError, match="unknown backend"):
            resolve_backend("threads")

    def test_workers_on_serial_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            resolve_backend("serial", workers=4)
        with pytest.raises(ConfigError, match="workers"):
            resolve_backend(None, workers=4)

    def test_bad_worker_count_rejected(self):
        with pytest.raises(ConfigError, match="workers"):
            ProcessBackend(workers=0)

    def test_names_registry(self):
        assert BACKEND_NAMES == ("serial", "process")


class TestSerialSharedArrays:
    def test_allocate_and_fill(self):
        be = SerialBackend()
        arr = be.shared_array("x", (4,), np.float64, fill=2.5)
        assert arr.shape == (4,)
        assert (arr == 2.5).all()
        assert be.shared["x"] is arr

    def test_duplicate_key_rejected(self):
        be = SerialBackend()
        be.shared_array("x", (4,), np.float64)
        with pytest.raises(ConfigError, match="already allocated"):
            be.shared_array("x", (4,), np.float64)


def _make_engine(er_graph, backend):
    spec = get_engine("lazy-block")
    program = spec.make_program("pagerank", tolerance=1e-3)
    g = prepare_graph(er_graph, program, seed=0)
    pg = build_lazy_graph(g, 4, seed=1)
    return spec.cls(pg, program, backend=backend)


class TestProcessBackendCrashPath:
    def test_dead_worker_raises_backend_error_without_hang(self, er_graph):
        """Killing a worker mid-run must fail fast, not hang the barrier."""
        backend = ProcessBackend(workers=2, op_timeout=30.0)
        eng = _make_engine(er_graph, backend)
        assert backend.num_workers == 2
        victim = backend._pool[0]
        victim.proc.terminate()
        victim.proc.join(timeout=10)
        with pytest.raises(BackendError, match="worker 0"):
            backend.dispatch("bootstrap", {"track_delta": True})
        # the failure tore the pool down and released every segment
        assert backend._pool == []
        assert backend._segments == []
        # subsequent use reports closed/failed instead of hanging
        with pytest.raises(BackendError):
            backend.dispatch("bootstrap", {"track_delta": True})
        backend.close()  # idempotent
        del eng

    def test_close_is_idempotent_and_releases(self, er_graph):
        backend = ProcessBackend(workers=2)
        eng = _make_engine(er_graph, backend)
        assert len(backend._segments) > 0
        backend.close()
        assert backend._segments == []
        assert backend._pool == []
        backend.close()
        # runtime arrays were copied back private: still readable
        for rt in eng.runtimes:
            assert rt.msg is not None
            rt.msg[:] = 0.0  # poke-able (would fail on a closed shm view)


class TestFinishedEngineIsNotCyclicGarbage:
    """``close()`` lets go of the engine: a finished engine and its
    backend must not pin the partition (every machine graph, CSR plan
    and runtime) until the cyclic collector happens to run."""

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_partition_dies_with_the_engine(self, er_graph, backend):
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            kwargs = {"workers": 2} if backend == "process" else {}
            eng = _make_engine(er_graph, resolve_backend(backend, **kwargs))
            partition = weakref.ref(eng.pgraph)
            eng.run()
            assert eng.backend.engine is None
            del eng
            assert partition() is None
        finally:
            gc.enable()

    def test_closed_serial_backend_says_so(self, er_graph):
        eng = _make_engine(er_graph, None)
        eng.run()
        with pytest.raises(BackendError, match="closed"):
            eng.backend.dispatch("bootstrap", {"track_delta": True})
