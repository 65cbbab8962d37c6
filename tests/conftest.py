"""Fixtures shared by the test modules."""

import pytest

from ecaliquot.aliquot import _Counter


class _LyingCounter(_Counter):
    """Claims #E(F_41) = 53 and #E(F_53) = 41: on 43a, y^2 + y = x^3 + x^2,
    an amicable pair that is not there (the true counts are 37 and 59).
    Both true counts are odd, so no 2-torsion skip keeps the walk or the
    pair check from asking for them."""

    LIES = {41: 53, 53: 41}

    def __call__(self, p):
        return self.LIES.get(p) or super().__call__(p)


@pytest.fixture
def lying_counter():
    return _LyingCounter


class _LyingSearch(_Counter):
    """Claims #E(F_251) = 269 and #E(F_269) = 251 on 43a through the
    first-match search that the walk takes above MESTRE_BOUND (the true
    counts are 275 and 295).  Both are odd, so no 2-torsion skip keeps
    the walk or the pair check from searching."""

    LIES = {251: 269, 269: 251}

    def annihilator(self, p, A, B):
        return self.LIES.get(p) or super().annihilator(p, A, B)


@pytest.fixture
def lying_search():
    return _LyingSearch
