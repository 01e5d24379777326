"""Unit tests for the width-sized key sorts (repro.utils.keysort).

Both helpers must be indistinguishable from NumPy's own spelling —
element for element, dtype included — on every path the width rule
can take, so the bounds at the rule's edges are drawn on purpose.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.keysort import stable_argsort, unique_counts

EDGE_BOUNDS = (1, 2, 2**16, 2**16 + 1, 2**32, 2**32 + 1)
SHAPES = ("random", "equal", "sorted", "reversed")


@st.composite
def bounded_keys(draw, bounds=st.sampled_from(EDGE_BOUNDS)):
    """``(keys, bound)``: keys in ``[0, bound)`` in one of four shapes."""
    bound = draw(st.one_of(bounds, st.integers(1, 2**40)))
    dtype = np.int64
    if bound <= 2**31 and draw(st.booleans()):
        dtype = np.int32
    size = draw(st.integers(0, 400))
    shape = draw(st.sampled_from(SHAPES))
    key = st.integers(0, bound - 1)
    if shape == "equal":
        keys = [draw(key)] * size
    else:
        keys = draw(st.lists(key, min_size=size, max_size=size))
        if shape != "random":
            keys.sort(reverse=shape == "reversed")
    return np.asarray(keys, dtype=dtype), bound


@given(bounded_keys())
@settings(max_examples=300, deadline=None)
def test_stable_argsort_is_numpys_stable_argsort(data):
    keys, bound = data
    got = stable_argsort(keys, bound)
    assert got.dtype == np.int64
    assert np.array_equal(got, np.argsort(keys, kind="stable"))


def _assert_same_unique(keys, bound):
    uniq, counts = unique_counts(keys, bound)
    want_uniq, want_counts = np.unique(keys, return_counts=True)
    assert uniq.dtype == want_uniq.dtype == keys.dtype
    assert counts.dtype == np.int64
    assert np.array_equal(uniq, want_uniq)
    assert np.array_equal(counts, want_counts)


@given(bounded_keys())
@settings(max_examples=200, deadline=None)
def test_unique_counts_is_numpys_unique_on_both_sides(data):
    keys, bound = data
    _assert_same_unique(keys, bound)
    # the same keys on the other side of the density rule: a bound
    # above the size takes np.unique, one at most the size bincount
    _assert_same_unique(keys, max(bound, keys.size + 1))
    tight = int(keys.max()) + 1 if keys.size else 0
    if tight <= keys.size:
        _assert_same_unique(keys, tight)


@given(bounded_keys(bounds=st.integers(1, 64)))
@settings(max_examples=100, deadline=None)
def test_unique_counts_dense_key_spaces(data):
    keys, bound = data
    _assert_same_unique(keys, bound)


@pytest.mark.parametrize("bound", EDGE_BOUNDS)
@pytest.mark.parametrize("dtype", [np.int32, np.int64])
def test_empty_keys(bound, dtype):
    keys = np.empty(0, dtype=dtype)
    order = stable_argsort(keys, bound)
    assert order.dtype == np.int64 and order.size == 0
    uniq, counts = unique_counts(keys, bound)
    assert uniq.size == counts.size == 0
    assert uniq.dtype == dtype and counts.dtype == np.int64


@pytest.mark.parametrize("bound", EDGE_BOUNDS)
def test_top_key_of_each_width(bound):
    # the largest key the bound admits, mixed with 0 and keys that share
    # its high or low 16 bits, every way round
    top = bound - 1
    keys = np.array([top, 0, top, top >> 16 << 16, 0, top & 0xFFFF, top])
    for k in (keys, keys[::-1], np.sort(keys), np.sort(keys)[::-1]):
        k = np.ascontiguousarray(k)
        assert np.array_equal(
            stable_argsort(k, bound), np.argsort(k, kind="stable")
        )
        _assert_same_unique(k, bound)
