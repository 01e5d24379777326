"""Smoke matrix: every Table 1 analog × paper algorithm × engine family.

This is the 'does the whole catalogue actually run' test — cheap machine
count, shared partition builds, value agreement between the eager engine
and both lazy engines (Algorithms 1 and 2) on every cell.
"""

import numpy as np
import pytest

from repro.algorithms import make_program
from repro.bench.configs import default_program_params
from repro.core import LazyBlockAsyncEngine, LazyVertexAsyncEngine
from repro.graph.datasets import dataset_names
from repro.powergraph import PowerGraphSyncEngine

from repro.bench.harness import session_for

MACHINES = 6
ALGORITHMS = ("kcore", "pagerank", "sssp", "cc")


def _cell(graph_name: str, alg: str):
    params = default_program_params(alg, graph_name)
    pg = session_for(graph_name, MACHINES).partitioned(
        make_program(alg, **params)
    )
    return [
        engine(pg, make_program(alg, **params)).run()
        for engine in (
            PowerGraphSyncEngine, LazyBlockAsyncEngine, LazyVertexAsyncEngine
        )
    ]


@pytest.mark.parametrize("graph_name", dataset_names())
@pytest.mark.parametrize("alg", ALGORITHMS)
def test_matrix_cell(graph_name, alg):
    eager, block, vertex = _cell(graph_name, alg)
    a = np.nan_to_num(eager.values, posinf=1e18)
    for lazy in (block, vertex):
        assert eager.stats.converged and lazy.stats.converged
        b = np.nan_to_num(lazy.values, posinf=1e18)
        if alg == "pagerank":
            assert np.allclose(a, b, atol=5e-2, rtol=5e-2)
        else:
            assert np.array_equal(a, b)
    # the lazy engines never need more synchronizations; Algorithm 2
    # needs none
    assert block.stats.global_syncs <= eager.stats.global_syncs
    assert vertex.stats.global_syncs == 0
    # replicas agree at termination on every engine
    for result in (eager, block, vertex):
        assert result.replica_max_disagreement < 1e-9
