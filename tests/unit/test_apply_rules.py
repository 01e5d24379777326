"""The two shared Apply rules on hand-built inputs."""

import numpy as np
import pytest

from repro.algorithms import (
    BFSProgram,
    ConnectedComponentsProgram,
    KCoreProgram,
    MultiSourceBFSProgram,
    PageRankDeltaProgram,
    PersonalizedPageRankProgram,
    SSSPProgram,
)
from repro.algorithms.apply_rules import (
    DampedSumProgram,
    MinRelaxProgram,
    damped_sum,
    min_relax,
)

INF = np.inf


def _bits(a):
    """Exact view: distinguishes +0.0 from -0.0."""
    return np.asarray(a, dtype=np.float64).view(np.int64).tolist()


class TestMinRelax:
    @pytest.mark.parametrize(
        "accum, fire, after",
        [
            # fire none: no accum beats the current value
            ([3.0, 1.0, INF], [False, False, False], [INF, 3.0, 1.0, 0.0, INF]),
            # fire some
            ([2.0, 4.0, 0.5], [True, False, True], [INF, 2.0, 1.0, 0.0, 0.5]),
            # every finite slot fires; the inf slot hears only inf
            ([1.0, 0.0, INF], [True, True, False], [INF, 1.0, 0.0, 0.0, INF]),
        ],
        ids=["none", "some", "finite"],
    )
    def test_relax(self, accum, fire, after):
        value = np.array([INF, 3.0, 1.0, 0.0, INF])
        idx = np.array([1, 2, 4])
        delta_out, got_fire = min_relax(value, idx, np.array(accum))
        assert got_fire.tolist() == fire
        assert value.tolist() == after
        # the out-delta is the new value where the vertex fires
        assert delta_out[got_fire].tolist() == value[idx][got_fire].tolist()

    def test_inf_distances(self):
        # an unreached vertex fires on its first finite accum; an inf
        # accum (the MIN identity) never fires
        value = np.full(4, INF)
        idx = np.array([0, 1, 3])
        delta_out, fire = min_relax(value, idx, np.array([INF, 7.5, 0.0]))
        assert fire.tolist() == [False, True, True]
        assert value.tolist() == [INF, 7.5, INF, 0.0]
        assert delta_out[fire].tolist() == [7.5, 0.0]

    def test_every_entry_fires(self):
        value = np.array([5.0, 6.0])
        delta_out, fire = min_relax(value, np.array([0, 1]), np.array([1.0, 2.0]))
        assert fire.tolist() == [True, True]
        assert delta_out.tolist() == [1.0, 2.0]
        assert value.tolist() == [1.0, 2.0]


class TestDampedSum:
    def _run(self, pending, accum, damping=0.5, tolerance=0.25):
        rank = np.array([1.0, 2.0, 3.0, 4.0])
        pending = np.array(pending)
        idx = np.array([0, 1, 3])
        delta_out, fire = damped_sum(
            rank, pending, idx, np.array(accum), damping, tolerance
        )
        return rank, pending, delta_out, fire

    def test_fire_none(self):
        rank, pending, delta_out, fire = self._run(
            [0.0, 0.125, 9.0, 0.0], [0.25, -0.5, 0.5]
        )
        assert fire.tolist() == [False, False, False]
        assert rank.tolist() == [1.125, 1.75, 3.0, 4.25]
        assert pending.tolist() == [0.125, -0.125, 9.0, 0.25]

    def test_fire_some(self):
        rank, pending, delta_out, fire = self._run(
            [0.0, 0.125, 9.0, -0.25], [1.0, 0.25, -0.5]
        )
        assert fire.tolist() == [True, False, True]
        assert delta_out[fire].tolist() == [0.5, -0.5]
        assert rank.tolist() == [1.5, 2.125, 3.0, 3.75]
        # fired entries reset, the rest keeps its pending change, and
        # slots outside idx are untouched
        assert pending.tolist() == [0.0, 0.25, 9.0, 0.0]

    def test_fire_all(self):
        rank, pending, delta_out, fire = self._run(
            [1.0, -1.0, 0.0, 2.0], [0.0, 0.0, 0.0]
        )
        assert fire.tolist() == [True, True, True]
        assert delta_out.tolist() == [1.0, -1.0, 2.0]
        assert rank.tolist() == [1.0, 2.0, 3.0, 4.0]
        assert pending.tolist() == [0.0, 0.0, 0.0, 0.0]

    def test_signed_zero_pending(self):
        # a -0.0 pending that does not fire keeps its sign; a fired
        # entry resets to +0.0 whatever the sign of its change
        rank, pending, delta_out, fire = self._run(
            [-0.0, -0.5, 0.0, 0.0], [-0.0, -1.0, 0.0]
        )
        assert fire.tolist() == [False, True, False]
        assert delta_out[fire].tolist() == [-1.0]
        assert _bits(pending) == _bits([-0.0, 0.0, 0.0, 0.0])
        assert _bits(rank) == _bits([1.0, 1.5, 3.0, 4.0])


class TestBlockForm:
    """A bool mask over every slot, accums at the ⊕-identity where it is
    unset: equal to the index form over the mask's slots, bit for bit."""

    IDX = np.array([1, 2, 4])

    def _mask(self, n):
        mask = np.zeros(n, dtype=bool)
        mask[self.IDX] = True
        return mask

    @pytest.mark.parametrize("accum", [[3.0, 1.0, INF], [2.0, 4.0, 0.5],
                                       [-0.0, np.nan, INF]])
    def test_min_relax(self, accum):
        indexed, block = (np.array([INF, 3.0, 1.0, -0.0, np.nan])
                          for _ in range(2))
        out_i, fire_i = min_relax(indexed, self.IDX, np.array(accum))
        per_slot = np.full(5, INF)
        per_slot[self.IDX] = accum
        out_b, fire_b = min_relax(block, self._mask(5), per_slot)
        assert _bits(block) == _bits(indexed)
        assert fire_b[self.IDX].tolist() == fire_i.tolist()
        assert not fire_b[~self._mask(5)].any()
        assert _bits(out_b[self.IDX][fire_i]) == _bits(out_i[fire_i])

    @pytest.mark.parametrize("accum", [[0.25, -0.5, 0.5], [1.0, -0.0, 0.0],
                                       [np.inf, 5e-324, np.nan]])
    def test_damped_sum(self, accum):
        # slot 3 heard nothing but holds a pending over the tolerance:
        # it must neither fire nor change
        states = [(np.array([1.0, 2.0, 0.0, 4.0, np.inf]),
                   np.array([0.0, 0.125, 9.0, 9.0, 5e-324])) for _ in range(2)]
        (rank_i, pend_i), (rank_b, pend_b) = states
        with np.errstate(invalid="ignore"):
            out_i, fire_i = damped_sum(rank_i, pend_i, self.IDX,
                                       np.array(accum), 0.5, 0.25)
            per_slot = np.zeros(5)
            per_slot[self.IDX] = accum
            out_b, fire_b = damped_sum(rank_b, pend_b, self._mask(5),
                                       per_slot, 0.5, 0.25)
        assert _bits(rank_b) == _bits(rank_i)
        assert _bits(pend_b) == _bits(pend_i)
        assert fire_b[self.IDX].tolist() == fire_i.tolist()
        assert not fire_b[~self._mask(5)].any()
        assert _bits(out_b[self.IDX][fire_i]) == _bits(out_i[fire_i])


def test_programs_share_the_two_rules():
    for prog in (BFSProgram(), MultiSourceBFSProgram(), SSSPProgram(),
                 ConnectedComponentsProgram()):
        assert isinstance(prog, MinRelaxProgram)
        assert type(prog).apply is MinRelaxProgram.apply
        assert prog.block_apply
    for prog in (PageRankDeltaProgram(), PersonalizedPageRankProgram([0])):
        assert isinstance(prog, DampedSumProgram)
        assert type(prog).apply is DampedSumProgram.apply
        assert prog.block_apply
    # k-core's Apply has no block form: it keeps the index path
    assert not KCoreProgram().block_apply
