"""Point-counting backends checked against each other and hand counts."""

import random
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy import Poly, isprime, nextprime, randprime, symbols
from sympy.ntheory import sqrt_mod

from ecaliquot import curves_mod_p
from ecaliquot.arith import prime_flags, primes_in_range
from ecaliquot.curves_mod_p import (
    MESTRE_BOUND,
    CurveFp,
    CurveQ,
    _order_candidates,
    cm_j0_counts,
    count_points,
    count_points_bsgs,
    count_points_cm_j0,
    count_points_naive,
    ec_add,
    ec_mul,
    first_annihilator,
    grossencharacter_j0,
    reduce_curve,
    torsion_obstruction,
    trace_a_p,
    two_division_roots,
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

    def test_short_model_is_bad_in_characteristic_2(self):
        for a in (0, 1):
            for b in (0, 1):
                assert not CurveFp.short(2, a, b).good
        with pytest.raises(ValueError):
            count_points_naive(CurveFp.short(2, 0, 1))
        # Characteristic 3: y^2 = x^3 + ax + b is smooth iff a != 0.
        assert CurveFp.short(3, 1, 0).good
        assert not CurveFp.short(3, 0, 1).good

    def test_hasse_bound(self):
        for p in (5, 7, 11, 101, 251):
            for E in (E1, E2, MORDELL2):
                if E.has_good_reduction(p):
                    t = p + 1 - count_points_naive(reduce_curve(E, p))
                    assert t * t <= 4 * p


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

    @pytest.mark.parametrize(
        "E",
        [E2, CurveQ(1, 0, 1, 4, -6), CurveQ.short(-25, -8), MORDELL2],
        ids=["43a", "14a1", "x3-25x-8", "x3+2"],
    )
    def test_exhaustive_to_3000(self, E):
        # Every good p <= 3000: the roots of the 2-division cubic against
        # enumeration, and above Mestre's bound the BSGS count, which
        # searches one parity, against the naive one.  14a1 has rational
        # 2-torsion, so its search is over even counts only; y^2 = x^3 + 2
        # takes the root count's A = 0 branch, and its counts are even at
        # every p = 2 (mod 3).
        for p in primes_in_range(5, 3001):
            if not E.has_good_reduction(p):
                continue
            Ep = reduce_curve(E, p)
            A, B = Ep.short_model()
            roots = sum((x * x * x + A * x + B) % p == 0 for x in range(p))
            assert two_division_roots(p, A, B) == roots, p
            if p > MESTRE_BOUND:
                assert count_points_bsgs(Ep) == count_points_naive(Ep), p

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(4, 10**9).map(lambda n: int(nextprime(n))),
        st.integers(0, 10**9),
        st.integers(0, 10**9),
        st.booleans(),
    )
    def test_root_count_matches_factorization(self, p, a, b, mordell):
        # The Legendre symbol and the Lucas ladder against sympy's
        # factorization of the cubic mod primes up to 10^9; half the
        # examples take A = 0.
        A, B = (0 if mordell else a % p), b % p
        assume((4 * A**3 + 27 * B * B) % p)
        x = symbols("x")
        factors = Poly(x**3 + A * x + B, x, modulus=p).factor_list()[1]
        roots = sum(e for f, e in factors if f.degree() == 1)
        assert two_division_roots(p, A, B) == roots

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(primes_in_range(MESTRE_BOUND + 1, 20_000)),
        st.integers(0, 19_999),
        st.integers(0, 19_999),
    )
    def test_first_annihilator_decides_primality(self, p, a, b):
        # Wherever the count is odd, the first match N is the count when
        # N is prime, and a composite N means a composite count.
        E = CurveFp.short(p, a, b)
        assume(E.good and not two_division_roots(p, a % p, b % p))
        N = first_annihilator(p, a % p, b % p)
        n = count_points_naive(E)
        assert (N - p - 1) ** 2 <= 4 * p
        assert (N if isprime(N) else 0) == (n if isprime(n) else 0)

    @settings(max_examples=80, deadline=None)
    @given(
        st.sampled_from(primes_in_range(MESTRE_BOUND + 1, 20_000)),
        st.integers(0, 19_999),
        st.integers(0, 19_999),
    )
    def test_matches_naive_above_mestre_bound(self, p, a, b):
        E = CurveFp.short(p, a, b)
        assume(E.good)
        assert count_points_bsgs(E) == count_points_naive(E)


# Short models: y^2 = x^3 - 25x - 8 (where a point of order 13, between
# m and 2m + 1, once escaped the baby steps at p = 2113), y^2 = x^3 + 2,
# y^2 = x^3 - 5x - 5, and 43a through its c-invariants.
CANDIDATE_CURVES = (
    CurveQ.short(-25, -8),
    MORDELL2,
    CurveQ.short(-5, -5),
    E2,
)


def _affine_points(p, A, B):
    roots: dict[int, list[int]] = {}
    for y in range(p):
        roots.setdefault(y * y % p, []).append(y)
    for x in range(p):
        for y in roots.get((x * x * x + A * x + B) % p, ()):
            yield x, y


class TestOrderCandidates:
    @pytest.mark.parametrize("p", [233, 239, 241, 251, 2113])
    def test_every_point_gives_its_annihilators(self, p):
        # The exact set {N in the Hasse window : N P = O, N = #E (mod 2)},
        # with N P stepped through the window by the generic group law,
        # on each curve and on its quadratic twist by a non-residue u.
        # On the curve itself, the first-match search returns a subset
        # whose every N gives the walk's step: #E(F_p) if prime, else 0.
        H = isqrt(4 * p)
        lo = p + 1 - H
        u = next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)
        for E in CANDIDATE_CURVES:
            Ep = reduce_curve(E, p)
            assert Ep.good
            n = count_points_naive(Ep)
            parity = n % 2
            step = n if isprime(n) else 0
            a, b = Ep.short_model()
            for A, B in ((a, b), (a * u * u % p, b * u * u * u % p)):
                for P in _affine_points(p, A, B):
                    want = set()
                    R = ec_mul(p, A, lo, P)
                    for N in range(lo, p + 2 + H):
                        if R is None and N % 2 == parity:
                            want.add(N)
                        R = ec_add(p, A, R, P)
                    got = _order_candidates(p, A, P, H, parity)
                    assert got == want, (E, p, A, B, P)
                    if (A, B) == (a, b):
                        # Any N of the first match decides the step.
                        first = _order_candidates(p, A, P, H, parity, True)
                        assert first and first <= want, (E, p, P)
                        for N in first:
                            assert (N if isprime(N) else 0) == step, (E, p, P)


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


# Segments of uneven widths covering [2, 2*10^5), so that segment edges
# fall on split primes, inert primes and composites alike.
def _uneven_segments(top):
    lo, width = 2, 1
    while lo < top:
        hi = min(lo + width, top)
        yield lo, hi
        lo, width = hi, width * 3 + 7


class TestCmRange:
    """cm_j0_counts against the one-prime-at-a-time routes."""

    @pytest.mark.parametrize("k", [1, 2, -3, 5, 7, 16])
    def test_matches_pointwise_counts_below_2e5(self, k):
        got = {}
        for lo, hi in _uneven_segments(2 * 10**5):
            counts = cm_j0_counts(k, lo, prime_flags(lo, hi))
            assert all(lo <= p < hi for p in counts)
            got.update(counts)
        want = {
            p: count_points_cm_j0(k, p)
            for p in primes_in_range(5, 2 * 10**5)
            if (6 * k) % p
        }
        assert got == want
        for p, n in got.items():  # the symbol route, on EisensteinInt
            if p % 3 == 1:
                assert n == p + 1 - grossencharacter_j0(k, p).trace, p

    @pytest.mark.parametrize("k", [1, 2, -3, 5, 7, 16])
    def test_matches_naive_below_3000(self, k):
        E = CurveQ.mordell(k)
        want = _naive_counts(E, 5, 3000)
        assert cm_j0_counts(k, 2, prime_flags(2, 3000)) == want

    @pytest.mark.parametrize("k", [1, 2, -3, 5, 7, 16, 35, 55])
    def test_inert_primes_are_supersingular_and_bad_primes_absent(self, k):
        X = 2 * 10**5
        counts = {}
        for lo, hi in _uneven_segments(X):
            counts.update(cm_j0_counts(k, lo, prime_flags(lo, hi)))
        inert = [p for p in primes_in_range(2, X) if p % 3 == 2]
        assert all(counts.get(p) == p + 1 for p in inert if (6 * k) % p)
        assert {p for p in primes_in_range(2, X) if (6 * k) % p} == set(counts)


class TestCmReciprocity:
    """cm_j0_counts' tables and cofactor power for (4k/pi)_6 against
    _count_at_primary's pow of 4k, at every split prime of its windows."""

    @staticmethod
    def _check(k, lo, hi, cofactor=1):
        flags = prime_flags(lo, hi)
        m = curves_mod_p._reciprocity_tables(k, len(flags))[3]
        assert m == cofactor, (k, lo, hi)
        counts = cm_j0_counts(k, lo, flags)
        split = [p for p in counts if p % 3 == 1]
        assert split or hi - lo < 100
        for p in split:
            pi = curves_mod_p.primary_split(p)
            assert counts[p] == curves_mod_p._count_at_primary(
                k, p, pi.a, pi.b
            ), (k, p)

    @pytest.mark.parametrize(
        "k",
        [k for k in range(-60, 61) if k] + [385, 1001, 2**5 * 3**4 * 7, 343, 625],
    )
    def test_windows_below_2e4(self, k):
        for lo in range(2, 2 * 10**4, 1 << 12):
            self._check(k, lo, min(lo + (1 << 12), 2 * 10**4 + 1))

    @pytest.mark.parametrize("k", [2, -3, 5, 7, 13, 385])
    @pytest.mark.parametrize("lo", [10**6 - 1234, 10**8 + 4321])
    def test_windows_near_1e6_and_1e8(self, k, lo):
        self._check(k, lo, lo + (1 << 12))

    @pytest.mark.parametrize("k", [1000003, 2 * 65537, 5 * 211])
    def test_large_prime_of_k_takes_the_pow_route(self, k):
        m = {1000003: 1000003, 2 * 65537: 65537, 5 * 211: 211}[k]
        self._check(k, 2, 3000, cofactor=m)
        self._check(k, 10**6, 10**6 + (1 << 12), cofactor=m)

    # a table for 5 or 7 and the large prime in the cofactor, and 251
    # whose table fits a window of width 2^16 but not one of 2^12
    @pytest.mark.parametrize(
        "k, m, width",
        [
            (5 * 7 * 1000003, 1000003, 1 << 12),
            (2**5 * 3**4 * 7 * 65537, 65537, 1 << 12),
            (-(5**3) * 211, 211, 1 << 12),
            (7 * 251, 251, 1 << 12),
            (7 * 251, 1, 1 << 16),
        ],
    )
    @pytest.mark.parametrize("lo", [10**6 - 1234, 10**8 + 4321])
    def test_mixed_k_near_1e6_and_1e8(self, k, m, width, lo):
        self._check(k, lo, lo + width, cofactor=m)

    def test_tables_up_to_the_window_width(self):
        width = 5**2 + 211**2

        def cofactor(k, width):
            return curves_mod_p._reciprocity_tables(k, width)[3]

        assert cofactor(-5 * 211, width - 1) == 211
        assert cofactor(-5 * 211, width) == 1
        assert cofactor(-(5**3) * 211, width) == 1
        assert cofactor(2**7 * 3**5, 0) == 1

    def test_table_route_calls_no_pow(self, monkeypatch):
        flags = prime_flags(10**6, 10**6 + (1 << 12))
        want = cm_j0_counts(385, 10**6, flags)

        def refuse(*args):
            raise AssertionError("pow on the table route")

        monkeypatch.setattr(curves_mod_p, "pow", refuse, raising=False)
        assert cm_j0_counts(385, 10**6, flags) == want


def _naive_counts(E, lo, hi):
    return {
        p: count_points_naive(reduce_curve(E, p))
        for p in primes_in_range(lo, hi)
        if E.has_good_reduction(p)
    }


def _refuse(E):
    raise AssertionError(f"unexpected backend call at p = {E.p}")


class TestAutoBackend:
    """auto picks by the curve: cm on y^2 = x^3 + k, else bsgs."""

    @pytest.mark.parametrize("E", [MORDELL2, E2], ids=["x3+2", "43a"])
    def test_matches_naive_below_3000(self, E):
        for p, n in _naive_counts(E, 2, 3000).items():
            assert count_points(reduce_curve(E, p), "auto") == n

    def test_mordell_curve_never_takes_bsgs(self, monkeypatch):
        want = _naive_counts(MORDELL2, 2, 3000)
        monkeypatch.setattr(curves_mod_p, "count_points_bsgs", _refuse)
        for p, n in want.items():
            assert count_points(reduce_curve(MORDELL2, p), "auto") == n

    def test_generic_curve_above_mestre_bound_never_counts_naively(
        self, monkeypatch
    ):
        want = _naive_counts(E2, MESTRE_BOUND + 1, 1024)
        monkeypatch.setattr(curves_mod_p, "count_points_naive", _refuse)
        for p, n in want.items():
            assert count_points(reduce_curve(E2, p), "auto") == n


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
                pts.append((x, sqrt_mod(f, p)))
            x += 1
        P, Q, R, _ = pts
        lhs = ec_add(p, A, ec_add(p, A, P, Q), R)
        rhs = ec_add(p, A, P, ec_add(p, A, Q, R))
        assert lhs == rhs
        N = count_points_naive(E)
        for pt in pts:
            assert ec_mul(p, A, N, pt) is None

    def test_scalar_matches_repeated_addition(self):
        p = 101
        x = next(
            x
            for x in range(2, p)
            if pow((x ** 3 + 2 * x + 3) % p, 50, p) == 1
        )
        P = (x, sqrt_mod((x ** 3 + 2 * x + 3) % p, p))
        acc = None
        for n in range(1, 8):
            acc = ec_add(p, 2, acc, P)
            assert acc == ec_mul(p, 2, n, P)


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

    def test_public_entry_points_reject_9(self):
        # Internal callers skip the primality test; these must not.
        with pytest.raises(ValueError):
            reduce_curve(MORDELL2, 9)
        with pytest.raises(ValueError):
            count_points_cm_j0(2, 9)
