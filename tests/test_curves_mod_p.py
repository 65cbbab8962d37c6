"""Point-counting backends checked against each other and hand counts."""

import random

import pytest
from sympy import isprime, nextprime, randprime

from ecaliquot.curves_mod_p import (
    CurveFp,
    CurveQ,
    PointFp,
    count_points,
    count_points_bsgs,
    count_points_cm_j0,
    count_points_naive,
    ec_add,
    ec_mul,
    grossencharacter_j0,
    reduce_curve,
    sqrt_mod_prime,
    torsion_obstruction,
    trace_a_p,
)
from ecaliquot.eisenstein import EisensteinInt

E1 = CurveQ(0, 0, 1, -1, 0)  # y^2 + y = x^3 - x
E2 = CurveQ(0, 1, 1, 0, 0)  # y^2 + y = x^3 + x^2
MORDELL2 = CurveQ.mordell(2)


class TestCurveQ:
    def test_discriminants(self):
        assert CurveQ.mordell(2).discriminant() == -432 * 4
        assert E1.discriminant() == 37
        assert E2.discriminant() == -43

    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            CurveQ.short(0, 0)
        with pytest.raises(ValueError):
            CurveQ.short(-3, 2)

    def test_parse(self):
        assert CurveQ.parse("[0,0,1,-1,0]") == E1
        assert CurveQ.parse("x^3+2") == MORDELL2
        assert CurveQ.parse("x^3-7") == CurveQ.mordell(-7)
        with pytest.raises(ValueError):
            CurveQ.parse("y^2=x^3")

    def test_good_reduction(self):
        assert not E1.has_good_reduction(37)
        assert E1.has_good_reduction(5)
        assert not MORDELL2.has_good_reduction(3)

    def test_str(self):
        assert str(E1) == "y^2 + 1*y = x^3 - 1*x"
        assert str(MORDELL2) == "y^2 = x^3 + 2"


class TestNaiveCounts:
    def test_hand_counted_tiny(self):
        # y^2 + y = x^3 - x mod 2: all four affine points satisfy it.
        assert count_points_naive(reduce_curve(E1, 2)) == 5
        assert count_points_naive(reduce_curve(E1, 3)) == 7

    def test_hand_counted_mordell(self):
        assert count_points_naive(reduce_curve(MORDELL2, 7)) == 9
        assert count_points_naive(reduce_curve(MORDELL2, 13)) == 19
        assert count_points_naive(reduce_curve(MORDELL2, 19)) == 13

    def test_short_model_preserves_counts(self):
        """The c-invariant substitution is checked against the long form."""
        from ecaliquot.curves_mod_p import _count_tiny

        for E in (E1, E2, CurveQ(1, -1, 1, -3, 3)):
            p = 5
            while p < 80:
                if E.has_good_reduction(p):
                    Ep = reduce_curve(E, p)
                    assert count_points_naive(Ep) == _count_tiny(Ep)
                p = int(nextprime(p))

    def test_supersingular_mordell(self):
        for p in (5, 11, 17, 23, 29):
            assert count_points_naive(reduce_curve(MORDELL2, p)) == p + 1

    def test_bad_reduction_rejected(self):
        with pytest.raises(ValueError):
            count_points_naive(reduce_curve(E1, 37))

    def test_hasse_bound(self):
        for p in (5, 7, 11, 101, 251):
            for E in (E1, E2, MORDELL2):
                if E.has_good_reduction(p):
                    t = p + 1 - count_points_naive(reduce_curve(E, p))
                    assert t * t <= 4 * p


class TestSqrtMod:
    def test_all_residue_classes_of_p(self):
        for p in (7, 13, 17, 41, 97, 193):  # covers 3 mod 4, 5 mod 8, 1 mod 8
            for a in range(p):
                if pow(a, (p - 1) // 2, p) <= 1:
                    r = sqrt_mod_prime(a, p)
                    assert r * r % p == a % p


class TestBsgs:
    def test_agrees_with_naive_small_range(self):
        rng = random.Random("bsgs-vs-naive")
        p = 1009
        checked = 0
        while checked < 25:
            a = rng.randrange(p)
            b = rng.randrange(p)
            if (4 * a ** 3 + 27 * b ** 2) % p == 0:
                continue
            E = CurveFp.short(p, a, b)
            assert count_points_bsgs(E) == count_points_naive(E)
            checked += 1
            p = int(nextprime(p + rng.randrange(50)))
            if p > 3000:
                p = 1009

    @pytest.mark.parametrize("p", [5, 7, 11, 13, 17, 19, 23, 29])
    def test_exhaustive_at_small_p(self, p):
        # Below Mestre's bound the order constraints can stay ambiguous.
        for a in range(p):
            for b in range(p):
                E = CurveFp.short(p, a, b)
                if E.good:
                    assert count_points_bsgs(E) == count_points_naive(E), (a, b)

    def test_agrees_on_reference_curves(self):
        for E in (E1, E2, MORDELL2):
            for p in (1013, 1693, 2003):
                if E.has_good_reduction(p):
                    Ep = reduce_curve(E, p)
                    assert count_points_bsgs(Ep) == count_points_naive(Ep)

    def test_large_prime_cm_crosscheck(self):
        # The CM formula provides an independent oracle at large p.
        for p in (1000003, 1000033):
            Ep = reduce_curve(MORDELL2, p)
            assert count_points_bsgs(Ep) == count_points_cm_j0(2, p)

    def test_deterministic(self):
        Ep = reduce_curve(E2, 999983)
        assert count_points_bsgs(Ep) == count_points_bsgs(Ep)


class TestCmBackend:
    def test_grossencharacter_value_at_13(self):
        psi = grossencharacter_j0(2, 13)
        assert psi == EisensteinInt(-4, 3)
        assert psi.trace == -5
        assert psi.norm() == 13

    def test_conjugation_invariant_count(self):
        # The trace, hence the count, must not depend on the choice of
        # the prime above p, which is exercised via the norm identity.
        for p in (7, 13, 19, 31, 37, 43):
            psi = grossencharacter_j0(5, p)
            assert psi.norm() == p
            assert abs(psi.trace) <= 2 * int(p ** 0.5) + 1

    def test_matches_naive_for_many_k_and_p(self):
        for k in (1, 2, 3, 5, 6, 7, 10, -4, 16):
            p = 5
            while p < 500:
                if (6 * k) % p != 0:
                    expected = count_points_naive(reduce_curve(CurveQ.mordell(k), p))
                    assert count_points_cm_j0(k, p) == expected, (k, p)
                p = int(nextprime(p))

    def test_inert_primes_are_supersingular(self):
        assert count_points_cm_j0(2, 5) == 6
        assert count_points_cm_j0(11, 101) == 102

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            count_points_cm_j0(2, 3)
        with pytest.raises(ValueError):
            count_points_cm_j0(10, 5)  # p | 6k
        with pytest.raises(ValueError):
            grossencharacter_j0(2, 11)  # inert

    def test_dispatch(self):
        Ep = reduce_curve(MORDELL2, 13)
        assert count_points(Ep, "cm") == 19
        assert count_points(Ep, "naive") == 19
        assert count_points(Ep, "auto") == 19
        assert trace_a_p(Ep) == -5
        with pytest.raises(ValueError):
            count_points(reduce_curve(E1, 13), "cm")


class TestPointArithmetic:
    def test_group_law_consistency(self):
        p = 101
        E = CurveFp.short(p, 2, 3)
        A, _ = E.short_model()
        pts = []
        x = 0
        while len(pts) < 4:
            f = (x ** 3 + 2 * x + 3) % p
            if pow(f, (p - 1) // 2, p) == 1:
                pts.append((x, sqrt_mod_prime(f, p)))
            x += 1
        P, Q, R, _ = pts
        lhs = ec_add(p, A, ec_add(p, A, P, Q), R)
        rhs = ec_add(p, A, P, ec_add(p, A, Q, R))
        assert lhs == rhs
        N = count_points_naive(E)
        for pt in pts:
            assert ec_mul(p, A, N, pt) is None

    def test_pointfp_checks_the_curve(self):
        E = CurveFp.short(101, 2, 3)
        with pytest.raises(ValueError):
            PointFp(E, 1, 1)
        P = PointFp(E, *next(
            (x, y)
            for x in range(101)
            for y in range(101)
            if (y * y - x ** 3 - 2 * x - 3) % 101 == 0
        ))
        O = PointFp(E, None, None)
        assert (P + O) == P
        assert (P + (-P)).is_infinity
        N = count_points_naive(E)
        assert (N * P).is_infinity

    def test_scalar_matches_repeated_addition(self):
        E = CurveFp.short(101, 2, 3)
        x = next(
            x
            for x in range(2, 101)
            if pow((x ** 3 + 2 * x + 3) % 101, 50, 101) == 1
        )
        P = PointFp(E, x, sqrt_mod_prime((x ** 3 + 2 * x + 3) % 101, 101))
        acc = PointFp(E, None, None)
        for n in range(1, 8):
            acc = acc + P
            assert acc == n * P


class TestTorsionObstruction:
    def test_known_cases(self):
        assert torsion_obstruction(CurveQ.mordell(1)) is True
        assert torsion_obstruction(CurveQ.short(1, 0)) is True
        assert torsion_obstruction(CurveQ.mordell(2)) is False
        assert torsion_obstruction(E1) is False
        assert torsion_obstruction(E2) is False


class TestReduceCurve:
    def test_flags_bad_reduction(self):
        assert reduce_curve(E1, 37).good is False
        assert reduce_curve(E1, 5).good is True

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            reduce_curve(E1, 10)
