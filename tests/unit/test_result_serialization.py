"""EngineResult serialization: exact JSON round-trips.

``to_dict()`` is the wire format: an answer shipped as JSON and rebuilt
with ``from_dict()`` must round-trip exactly — values bit-for-bit, the
full RunStats dump (counters, histogram summaries, per-channel extras)
key-for-key. (The serving cache holds read-only arrays, not these
payloads.)
"""

import json

import numpy as np
import pytest

import repro
from repro.runtime.result import EngineResult

MACHINES = 4


@pytest.fixture(scope="module")
def result(request):
    er_graph = request.getfixturevalue("er_graph")
    return repro.run(
        er_graph, "pagerank", machines=MACHINES, seed=0, tolerance=1e-3
    )


def _roundtrip(result):
    payload = json.loads(json.dumps(result.to_dict()))
    return EngineResult.from_dict(payload)


class TestJSONRoundTrip:
    def test_payload_is_json_serializable(self, result):
        payload = result.to_dict()
        assert isinstance(json.dumps(payload), str)
        assert payload["engine"] == result.engine
        assert payload["algorithm"] == result.algorithm

    def test_values_restored_bit_for_bit(self, result):
        restored = _roundtrip(result)
        assert restored.values.dtype == np.float64
        assert np.array_equal(restored.values, result.values)

    def test_stats_dump_restored_key_for_key(self, result):
        restored = _roundtrip(result)
        assert restored.stats.to_dict() == result.stats.to_dict()
        assert restored.stats.supersteps == result.stats.supersteps
        assert restored.stats.converged == result.stats.converged
        assert (
            restored.stats.modeled_time_s == result.stats.modeled_time_s
        )

    def test_extras_view_survives(self, result):
        restored = _roundtrip(result)
        extras = result.stats.to_dict().get("extra", {})
        for key, value in extras.items():
            assert restored.stats.extra[key] == value

    def test_to_dict_is_stable_after_restore(self, result):
        # to_dict -> from_dict -> to_dict must be a fixed point, or the
        # serving cache would drift on every hit
        once = _roundtrip(result)
        assert once.to_dict() == result.to_dict()

    def test_trace_not_serialized(self, result):
        assert "trace" not in result.to_dict()
        assert _roundtrip(result).trace is None

    def test_restored_arrays_are_independent(self, result):
        restored = _roundtrip(result)
        restored.values[0] += 1.0
        assert restored.values[0] != result.values[0]
