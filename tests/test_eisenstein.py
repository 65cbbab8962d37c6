"""Arithmetic and residue-symbol tests against hand-computed values."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import legendre_symbol, primerange

from ecaliquot.eisenstein import (
    ONE,
    OMEGA,
    SQRT_MINUS_3,
    UNITS,
    ZERO,
    EisensteinInt,
    PrimeIdealK,
    Unit6,
    cubic_symbol,
    divides,
    eisenstein_factor,
    euclidean_div,
    exact_div,
    gcd,
    ideals_above,
    mu3_companion,
    norm,
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
        assert norm(EisensteinInt(-4, 3)) == 13
        assert norm(EisensteinInt(5, -3)) == 19
        assert norm(SQRT_MINUS_3) == 3
        assert SQRT_MINUS_3 * SQRT_MINUS_3 == EisensteinInt(-3, 0)

    def test_traces(self):
        assert EisensteinInt(-4, 3).trace == -5
        assert ONE.trace == 2
        assert OMEGA.trace == 1

    def test_units_are_the_powers_of_omega(self):
        for e, u in enumerate(UNITS):
            assert OMEGA ** e == u
            assert u.is_unit()
            assert Unit6(e).as_eisenstein() == u
            assert Unit6.from_eisenstein(u) == Unit6(e)

    def test_unit6_group(self):
        assert Unit6(2) * Unit6(5) == Unit6(1)
        assert Unit6(4).inverse() == Unit6(2)
        assert Unit6(0).as_sign() == 1
        assert Unit6(3).as_sign() == -1
        with pytest.raises(ValueError):
            Unit6(1).as_sign()

    @given(eis, eis)
    def test_norm_is_multiplicative(self, x, y):
        assert norm(x * y) == norm(x) * norm(y)

    @given(eis)
    def test_conjugation_is_an_involution(self, x):
        assert x.conjugate().conjugate() == x
        assert norm(x.conjugate()) == norm(x)
        assert x.conjugate().trace == x.trace

    @given(eis, eis)
    def test_conjugation_is_a_ring_map(self, x, y):
        assert (x * y).conjugate() == x.conjugate() * y.conjugate()
        assert (x + y).conjugate() == x.conjugate() + y.conjugate()


class TestEuclideanDivision:
    def test_integer_example(self):
        q, r = euclidean_div(7, 2)
        assert 7 == (q * EisensteinInt(2, 0) + r).a and r.b == 0
        assert norm(r) < 4

    @given(eis, eis_nonzero)
    def test_reassembly_and_remainder_bound(self, x, m):
        q, r = euclidean_div(x, m)
        assert q * m + r == x
        assert 4 * norm(r) <= 3 * norm(m)

    def test_zero_divisor_rejected(self):
        with pytest.raises(ZeroDivisionError):
            euclidean_div(EisensteinInt(1, 1), ZERO)

    @given(eis_nonzero, eis_nonzero)
    def test_gcd_divides_both(self, x, y):
        g = gcd(x, y)
        assert divides(g, x) and divides(g, y)

    def test_exact_div(self):
        x = EisensteinInt(2, 5) * EisensteinInt(-3, 7)
        assert exact_div(x, EisensteinInt(-3, 7)) == EisensteinInt(2, 5)
        with pytest.raises(ValueError):
            exact_div(EisensteinInt(1, 0), EisensteinInt(0, 2))


class TestPrimaryElements:
    @given(eis_nonzero)
    def test_exactly_one_primary_associate(self, x):
        if math.gcd(norm(x), 3) != 1:
            with pytest.raises(ValueError):
                primary_associate(x)
            return
        prim, u = primary_associate(x)
        assert prim.is_primary()
        assert u.as_eisenstein() * x == prim
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
            assert norm(pi) == p
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
        assert norm(pi) == p
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


class TestSexticSymbol:
    def test_known_split_values(self):
        ideal = PrimeIdealK.above(13)
        assert sextic_symbol(2, ideal) == Unit6(5)
        assert sextic_symbol(8, ideal) == Unit6(3)

    def test_minus_one_inert_is_trivial(self):
        for k in (5, 11, 17, 23):
            assert sextic_symbol(-1, PrimeIdealK.above(k)) == Unit6(0)

    def test_rational_is_cube_mod_inert(self):
        for k in (5, 11, 17):
            ideal = PrimeIdealK.above(k)
            for a in range(2, 30):
                if a % k:
                    assert cubic_symbol(a, ideal) == Unit6(0)

    def test_quadratic_symbol_matches_legendre_for_split(self):
        for p in (7, 13, 19, 31, 37):
            ideal = PrimeIdealK.above(p)
            for a in range(1, 25):
                if a % p:
                    expected = 1 if legendre_symbol(a, p) == 1 else -1
                    assert quadratic_symbol(a, ideal).as_sign() == expected

    def test_sextic_power_identity(self):
        """alpha^((N-1)/6) reduces to the claimed root of unity."""
        ideal = PrimeIdealK.above(7)
        alpha = EisensteinInt(3, 1)
        s = sextic_symbol(alpha, ideal)
        p = 7
        val = pow(ideal.reduce(alpha), (p - 1) // 6, p)
        assert ideal.reduce(s.as_eisenstein()) == val

    @given(eis_nonzero, eis_nonzero)
    @settings(max_examples=60)
    def test_multiplicative_split(self, x, y):
        ideal = PrimeIdealK.above(31)
        if norm(x) % 31 == 0 or norm(y) % 31 == 0:
            return
        assert sextic_symbol(x * y, ideal) == sextic_symbol(x, ideal) * sextic_symbol(
            y, ideal
        )

    @given(eis_nonzero, eis_nonzero)
    @settings(max_examples=60)
    def test_multiplicative_inert(self, x, y):
        ideal = PrimeIdealK.above(11)
        if norm(x) % 11 == 0 or norm(y) % 11 == 0:
            return
        assert sextic_symbol(x * y, ideal) == sextic_symbol(x, ideal) * sextic_symbol(
            y, ideal
        )

    @given(eis_nonzero)
    @settings(max_examples=60)
    def test_conjugation_equivariance(self, x):
        for p in (13, 5):
            ideal = PrimeIdealK.above(p)
            if norm(x) % p == 0:
                continue
            lhs = sextic_symbol(x.conjugate(), ideal.conjugate())
            assert lhs == sextic_symbol(x, ideal).conjugate()

    def test_non_coprime_rejected(self):
        with pytest.raises(ValueError):
            sextic_symbol(13, PrimeIdealK.above(13))
        with pytest.raises(ValueError):
            sextic_symbol(primary_split(13), PrimeIdealK.above(13))


class TestCompositeSymbols:
    def test_prime_modulus_matches_ideal_product(self):
        alpha = EisensteinInt(2, 3)
        for k in (7, 13):
            total = Unit6(0)
            for ideal in ideals_above(k):
                total = total * sextic_symbol(alpha, ideal)
            assert symbol_composite(alpha, k) == total

    def test_multiplicative_in_the_modulus(self):
        alpha = EisensteinInt(3, 1)
        assert symbol_composite(alpha, 35) == symbol_composite(
            alpha, 5
        ) * symbol_composite(alpha, 7)

    def test_prime_power_modulus(self):
        alpha = EisensteinInt(3, 1)
        assert symbol_composite(alpha, 25) == symbol_composite(alpha, 5) ** 2

    def test_degree_projections(self):
        alpha = EisensteinInt(3, 1)
        s = symbol_composite(alpha, 35, 6)
        assert symbol_composite(alpha, 35, 2) == s ** 3
        assert symbol_composite(alpha, 35, 3) == s ** 2
        lam = EisensteinInt(6, 1)
        s = symbol_eisenstein(5, lam)
        assert symbol_eisenstein(5, lam, degree=2) == s ** 3
        assert symbol_eisenstein(5, lam, degree=3) == s ** 2
        for degree in (1, 4):
            with pytest.raises(ValueError):
                symbol_composite(alpha, 35, degree)
            with pytest.raises(ValueError):
                symbol_eisenstein(5, lam, degree)

    def test_rejects_bad_modulus(self):
        with pytest.raises(ValueError):
            symbol_composite(EisensteinInt(1, 1), 6)
        with pytest.raises(ValueError):
            symbol_composite(EisensteinInt(1, 1), 15)


class TestEisensteinFactorization:
    @given(eis_nonzero)
    @settings(max_examples=80)
    def test_reassembly(self, x):
        if norm(x) % 3 == 0 or norm(x) > 10**4:
            return
        unit, factors = eisenstein_factor(x)
        prod = unit
        for prm, e in factors:
            assert prm.is_primary()
            prod = prod * prm ** e
        assert prod == x

    def test_symbol_over_eisenstein_modulus(self):
        lam = primary_split(7) * primary_split(13)
        want = sextic_symbol(5, PrimeIdealK.above(7)) * sextic_symbol(
            5, PrimeIdealK.above(13)
        )
        assert symbol_eisenstein(5, lam) == want

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
            assert zeta.exp % 2 == 0  # a cube root of unity
            prod = zeta.as_eisenstein() * lam
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
            n = norm(lam)
            if n == 0 or math.gcd(n, 6 * k) != 1:
                continue
            pair = reciprocity_pair(k, lam)
            assert pair.holds, (k, lam)
            checked += 1

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
        assert str(Unit6(4)) == "w^4"
