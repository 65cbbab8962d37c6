"""Arithmetic and residue-symbol tests against hand-computed values."""

import math
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import legendre_symbol, primerange

from ecaliquot import eisenstein
from ecaliquot.eisenstein import (
    ONE,
    OMEGA,
    SQRT_MINUS_3,
    UNITS,
    ZERO,
    EisensteinInt,
    PrimeIdealK,
    _pair_pow,
    cubic_symbol,
    eisenstein_factor,
    ideals_above,
    mu3_companion,
    primary_associate,
    primary_split,
    quadratic_symbol,
    reciprocity_pair,
    sextic_symbol,
    symbol_composite,
    symbol_eisenstein,
)

eis = st.builds(
    EisensteinInt,
    st.integers(min_value=-200, max_value=200),
    st.integers(min_value=-200, max_value=200),
)
eis_nonzero = eis.filter(lambda x: x != ZERO)


class TestBasicArithmetic:
    def test_omega_is_sixth_root(self):
        assert OMEGA ** 6 == ONE
        assert OMEGA ** 3 == EisensteinInt(-1, 0)
        assert OMEGA ** 2 == OMEGA - ONE  # w^2 = w - 1

    def test_norms(self):
        assert EisensteinInt(-4, 3).norm() == 13
        assert EisensteinInt(5, -3).norm() == 19
        assert SQRT_MINUS_3.norm() == 3
        assert SQRT_MINUS_3 * SQRT_MINUS_3 == EisensteinInt(-3, 0)

    def test_traces(self):
        assert EisensteinInt(-4, 3).trace == -5
        assert ONE.trace == 2
        assert OMEGA.trace == 1

    def test_units_are_the_powers_of_omega(self):
        for e, u in enumerate(UNITS):
            assert OMEGA ** e == u
            assert u.is_unit()

    @given(eis, eis)
    def test_norm_is_multiplicative(self, x, y):
        assert (x * y).norm() == x.norm() * y.norm()

    @given(eis)
    def test_conjugation_is_an_involution(self, x):
        assert x.conjugate().conjugate() == x
        assert x.conjugate().norm() == x.norm()
        assert x.conjugate().trace == x.trace

    @given(eis, eis)
    def test_conjugation_is_a_ring_map(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


class TestPrimaryElements:
    @given(eis_nonzero)
    def test_exactly_one_primary_associate(self, x):
        if math.gcd(x.norm(), 3) != 1:
            with pytest.raises(ValueError):
                primary_associate(x)
            return
        prim, u = primary_associate(x)
        assert prim.is_primary()
        assert u in range(6) and UNITS[u] * x == prim
        assert sum((v * x).is_primary() for v in UNITS) == 1

    def test_conjugate_of_primary_is_primary(self):
        for p in (7, 13, 19, 31, 37, 43):
            pi = primary_split(p)
            assert pi.is_primary()
            assert pi.conjugate().is_primary()

    def test_primary_split_known_values(self):
        assert primary_split(7) == EisensteinInt(-1, 3)
        assert primary_split(13) == EisensteinInt(-4, 3)
        assert primary_split(19) == EisensteinInt(2, 3)

    def test_primary_split_norms(self):
        # Every split prime below 10^5, so that a Cornacchia miss would show.
        split = [p for p in primerange(7, 10**5) if p % 3 == 1]
        assert len(split) == 4784
        for p in split:
            pi = primary_split(p)
            assert pi.norm() == p
            assert pi.is_primary() and pi.b > 0

    @pytest.mark.parametrize(
        "p, a, b",
        [
            (1000000000039, -730210, 1139763),
            (1000000000063, -917722, 1065771),
            (1000000000177, -1048312, 943419),
            (2**61 - 1, 1389974741, 230658714),
            (
                100000000000000000000000000459,
                -230409230320447,
                360528258410022,
            ),
        ],
    )
    def test_primary_split_large_primes(self, p, a, b):
        pi = primary_split(p)
        assert pi.norm() == p
        assert pi.is_primary() and pi.b > 0
        assert pi == EisensteinInt(a, b)

    def test_primary_split_rejects_inert_and_three(self):
        for bad in (2, 3, 5, 11, 12):
            with pytest.raises(ValueError):
                primary_split(bad)


class TestPrimeIdeals:
    def test_above_split(self):
        ideal = PrimeIdealK.above(13)
        assert ideal.kind == "split"
        assert ideal.residue_norm == 13
        assert ideal.reduce(ideal.generator) == 0
        assert ideal.reduce(OMEGA) == 10  # w = -(-4)/3 = 10 mod 13

    def test_above_inert(self):
        ideal = PrimeIdealK.above(5)
        assert ideal.kind == "inert"
        assert ideal.residue_norm == 25
        assert ideal.reduce(EisensteinInt(7, 11)) == (2, 1)

    def test_above_rejects_three(self):
        with pytest.raises(ValueError):
            PrimeIdealK.above(3)

    def test_from_generator_preserves_the_ideal(self):
        pi = primary_split(13)
        for u in UNITS:
            ideal = PrimeIdealK.from_generator(u * pi)
            assert ideal.generator == pi
        bar = PrimeIdealK.from_generator(pi.conjugate())
        assert bar.generator == pi.conjugate()

    def test_conjugate_ideal(self):
        ideal = PrimeIdealK.above(7)
        assert ideal.conjugate().generator == ideal.generator.conjugate()
        inert = PrimeIdealK.above(11)
        assert inert.conjugate() == inert

    def test_the_generator_fixes_kind_norm_and_identity(self):
        for p in primerange(5, 500):
            ideal = PrimeIdealK.above(p)
            if p % 3 == 1:
                assert (ideal.kind, ideal.residue_norm) == ("split", p)
            else:
                assert (ideal.kind, ideal.residue_norm) == ("inert", p * p)
            for u in UNITS:
                same = PrimeIdealK.from_generator(u * ideal.generator)
                assert same == ideal and hash(same) == hash(ideal)


class TestSexticSymbol:
    def test_known_split_values(self):
        ideal = PrimeIdealK.above(13)
        assert sextic_symbol(2, ideal) == 5
        assert sextic_symbol(8, ideal) == 3

    def test_minus_one_inert_is_trivial(self):
        for k in (5, 11, 17, 23):
            assert sextic_symbol(-1, PrimeIdealK.above(k)) == 0

    def test_rational_is_cube_mod_inert(self):
        for k in (5, 11, 17):
            ideal = PrimeIdealK.above(k)
            for a in range(2, 30):
                if a % k:
                    assert cubic_symbol(a, ideal) == 0

    def test_quadratic_symbol_matches_legendre_for_split(self):
        for p in (7, 13, 19, 31, 37):
            ideal = PrimeIdealK.above(p)
            for a in range(1, 25):
                if a % p:
                    expected = 0 if legendre_symbol(a, p) == 1 else 3  # w^3 = -1
                    assert quadratic_symbol(a, ideal) == expected

    @given(eis_nonzero)
    @settings(max_examples=60)
    def test_sextic_power_identity(self, alpha):
        """alpha^((N-1)/6) reduces to w^e for the sextic exponent e, which
        lies in 0..5, and the cubic and quadratic exponents are 2e and 3e."""
        for r in (5, 7, 11, 13):
            for ideal in ideals_above(r):
                if alpha.norm() % r == 0:
                    continue
                e = sextic_symbol(alpha, ideal)
                assert e in range(6)
                assert cubic_symbol(alpha, ideal) == 2 * e % 6
                assert quadratic_symbol(alpha, ideal) == 3 * e % 6
                n = ideal.residue_norm
                x = ideal.reduce(alpha)
                if ideal.kind == "split":
                    val = pow(x, (n - 1) // 6, n)
                else:
                    val = _pair_pow(x, (n - 1) // 6, r)
                assert ideal.reduce(UNITS[e]) == val, (alpha, ideal)

    @given(eis_nonzero, eis_nonzero)
    @settings(max_examples=60)
    def test_multiplicative_split(self, x, y):
        ideal = PrimeIdealK.above(31)
        if x.norm() % 31 == 0 or y.norm() % 31 == 0:
            return
        assert sextic_symbol(x * y, ideal) == (
            sextic_symbol(x, ideal) + sextic_symbol(y, ideal)
        ) % 6

    @given(eis_nonzero, eis_nonzero)
    @settings(max_examples=60)
    def test_multiplicative_inert(self, x, y):
        ideal = PrimeIdealK.above(11)
        if x.norm() % 11 == 0 or y.norm() % 11 == 0:
            return
        assert sextic_symbol(x * y, ideal) == (
            sextic_symbol(x, ideal) + sextic_symbol(y, ideal)
        ) % 6

    @given(eis_nonzero)
    @settings(max_examples=60)
    def test_conjugation_equivariance(self, x):
        for p in (13, 5):
            ideal = PrimeIdealK.above(p)
            if x.norm() % p == 0:
                continue
            lhs = sextic_symbol(x.conjugate(), ideal.conjugate())
            assert lhs == -sextic_symbol(x, ideal) % 6

    def test_undefined_above_2_and_3(self):
        # The residue fields there have 4 and 3 elements, and 6 divides
        # neither 4 - 1 nor 3 - 1.
        for m in (PrimeIdealK.above(2), PrimeIdealK(SQRT_MINUS_3)):
            for alpha in (5, EisensteinInt(2, 3)):
                with pytest.raises(ValueError):
                    sextic_symbol(alpha, m)
        with pytest.raises(ValueError):
            symbol_eisenstein(5, EisensteinInt(14, 0))

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            sextic_symbol(13, PrimeIdealK.above(13))
        with pytest.raises(ValueError):
            sextic_symbol(primary_split(13), PrimeIdealK.above(13))


class TestCompositeSymbols:
    def test_prime_modulus_matches_ideal_product(self):
        alpha = EisensteinInt(2, 3)
        for k in (7, 13):
            total = sum(sextic_symbol(alpha, ideal) for ideal in ideals_above(k))
            assert symbol_composite(alpha, k) == total % 6

    def test_multiplicative_in_the_modulus(self):
        alpha = EisensteinInt(3, 1)
        assert symbol_composite(alpha, 35) == (
            symbol_composite(alpha, 5) + symbol_composite(alpha, 7)
        ) % 6

    def test_prime_power_modulus(self):
        alpha = EisensteinInt(3, 1)
        assert symbol_composite(alpha, 25) == 2 * symbol_composite(alpha, 5) % 6

    def test_degree_projections(self):
        alpha = EisensteinInt(3, 1)
        s = symbol_composite(alpha, 35, 6)
        assert symbol_composite(alpha, 35, 2) == 3 * s % 6
        assert symbol_composite(alpha, 35, 3) == 2 * s % 6
        lam = EisensteinInt(6, 1)
        s = symbol_eisenstein(5, lam)
        assert symbol_eisenstein(5, lam, degree=2) == 3 * s % 6
        assert symbol_eisenstein(5, lam, degree=3) == 2 * s % 6
        for degree in (1, 4):
            with pytest.raises(ValueError):
                symbol_composite(alpha, 35, degree)
            with pytest.raises(ValueError):
                symbol_eisenstein(5, lam, degree)

    def test_agrees_with_the_rational_modulus_below_3000(self):
        # symbol_composite factors k, symbol_eisenstein factors N(k) = k^2;
        # 3 + w has norm 7, so both refuse the k that 7 divides.
        def outcome(symbol, *args):
            try:
                return symbol(*args)
            except ValueError:
                return None

        alphas = (EisensteinInt(2, 0), EisensteinInt(1, -1), EisensteinInt(3, 1))
        for k in range(1, 3000):
            if math.gcd(k, 6) != 1:
                continue
            for alpha in alphas:
                for degree in (2, 3, 6):
                    want = outcome(
                        symbol_eisenstein, alpha, EisensteinInt(k, 0), degree
                    )
                    assert outcome(symbol_composite, alpha, k, degree) == want
                    assert outcome(symbol_composite, alpha, -k, degree) == want

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            symbol_composite(EisensteinInt(1, 1), 6)
        with pytest.raises(ValueError):
            symbol_composite(EisensteinInt(1, 1), 15)


class TestEisensteinFactorization:
    @given(eis_nonzero)
    @settings(max_examples=80)
    def test_reassembly(self, x):
        if x.norm() % 3 == 0 or x.norm() > 10**4:
            return
        unit, factors = eisenstein_factor(x)
        prod = unit
        for prm, e in factors:
            assert prm.is_primary()
            prod = prod * prm ** e
        assert prod == x

    @pytest.mark.parametrize(
        "wrong", [lambda x, m: x, lambda x, m: ONE], ids=["same", "one"]
    )
    def test_wrong_quotient_fails_at_once(self, monkeypatch, wrong):
        # A quotient that always succeeds would divide forever; the
        # division count above each r is capped by r's exponent in N(lam).
        calls = []

        def bounded(x, m):
            calls.append(m)
            if len(calls) > 10**5:
                raise RuntimeError("the division loop is unbounded")
            return wrong(x, m)

        monkeypatch.setattr(eisenstein, "_quotient", bounded)
        start = time.perf_counter()
        with pytest.raises(ArithmeticError, match="incomplete factorization"):
            eisenstein_factor(primary_split(7) * primary_split(13) ** 2)
        assert time.perf_counter() - start < 1

    def test_symbol_over_eisenstein_modulus(self):
        lam = primary_split(7) * primary_split(13)
        want = sextic_symbol(5, PrimeIdealK.above(7)) + sextic_symbol(
            5, PrimeIdealK.above(13)
        )
        assert symbol_eisenstein(5, lam) == want % 6

    def test_rational_modulus_agrees_with_composite(self):
        alpha = EisensteinInt(3, 1)
        assert symbol_eisenstein(alpha, EisensteinInt(35, 0)) == symbol_composite(
            alpha, 35
        )


class TestReciprocity:
    def test_mu3_companion_definition(self):
        for lam in (
            EisensteinInt(2, 3),
            EisensteinInt(5, -3),
            EisensteinInt(-4, 3),
            EisensteinInt(1, 3),
            EisensteinInt(5, 1),
            EisensteinInt(7, 3),
        ):
            zeta = mu3_companion(lam)
            assert zeta in (0, 2, 4)  # a cube root of unity
            prod = UNITS[zeta] * lam
            plus = prod - ONE
            minus = prod + ONE
            assert (plus.a % 3 == 0 and plus.b % 3 == 0) or (
                minus.a % 3 == 0 and minus.b % 3 == 0
            )

    def test_spot_example(self):
        pair = reciprocity_pair(7, EisensteinInt(2, 3))
        assert pair.holds

    def test_randomized_sweep(self):
        """Both laws across hundreds of random coprime (k, lam)."""
        import random

        rng = random.Random("reciprocity-sweep")
        checked = 0
        while checked < 500:
            k = rng.randrange(5, 400)
            if math.gcd(k, 6) != 1:
                continue
            lam = EisensteinInt(rng.randrange(-60, 61), rng.randrange(-60, 61))
            n = lam.norm()
            if n == 0 or math.gcd(n, 6 * k) != 1:
                continue
            pair = reciprocity_pair(k, lam)
            assert pair.holds, (k, lam)
            checked += 1

    def test_exhaustive_grid_with_negative_k(self):
        """Both laws at every k with |k| < 100 coprime to 6, negative k
        included, and every lam = a + b w with |a|, |b| <= 6 coprime to 6k."""
        checked = 0
        for k in range(-99, 100):
            if math.gcd(k, 6) != 1:
                continue
            for a in range(-6, 7):
                for b in range(-6, 7):
                    lam = EisensteinInt(a, b)
                    n = lam.norm()
                    if n == 0 or math.gcd(n, 6 * k) != 1:
                        continue
                    pair = reciprocity_pair(k, lam)
                    assert pair.holds, (k, lam)
                    checked += 1
        assert checked == 4812

    def test_rejects_non_coprime(self):
        with pytest.raises(ValueError):
            reciprocity_pair(6, EisensteinInt(1, 1))
        with pytest.raises(ValueError):
            reciprocity_pair(7, primary_split(7))


class TestStringForms:
    def test_rendering(self):
        assert str(EisensteinInt(-4, 3)) == "-4+3*w"
        assert str(EisensteinInt(5, -3)) == "5-3*w"
        assert str(EisensteinInt(7, 0)) == "7"
        assert str(EisensteinInt(0, -2)) == "-2*w"
