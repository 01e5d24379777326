"""Smoke matrix: every Table 1 analog × paper algorithm × engine family.

This is the 'does the whole catalogue actually run' test — cheap machine
count, shared partition builds, value agreement between the eager and
lazy engines on every cell.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.bench.configs import default_program_params
from repro.core import LazyBlockAsyncEngine
from repro.graph.datasets import dataset_names
from repro.powergraph import PowerGraphSyncEngine

from repro.bench.harness import session_for

MACHINES = 6
ALGORITHMS = ("kcore", "pagerank", "sssp", "cc")


def _cell(graph_name: str, alg: str):
    params = default_program_params(alg, graph_name)
    prog_a = make_program(alg, **params)
    prog_b = make_program(alg, **params)
    pg = session_for(graph_name, MACHINES).partitioned(prog_a)
    eager = PowerGraphSyncEngine(pg, prog_a).run()
    lazy = LazyBlockAsyncEngine(pg, prog_b).run()
    return eager, lazy


@pytest.mark.parametrize("graph_name", dataset_names())
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_matrix_cell(graph_name, alg):
    eager, lazy = _cell(graph_name, alg)
    assert eager.stats.converged and lazy.stats.converged
    a = np.nan_to_num(eager.values, posinf=1e18)
    b = np.nan_to_num(lazy.values, posinf=1e18)
    if alg == "pagerank":
        assert np.allclose(a, b, atol=5e-2, rtol=5e-2)
    else:
        assert np.array_equal(a, b)
    # the lazy engine never needs more synchronizations
    assert lazy.stats.global_syncs <= eager.stats.global_syncs
    # replicas agree at termination on both engines
    assert eager.replica_max_disagreement < 1e-9
    assert lazy.replica_max_disagreement < 1e-9
