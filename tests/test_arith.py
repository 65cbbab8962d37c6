"""Primality, factorization, next prime and CRT in arith, with sympy as the oracle."""

import os
import random
import subprocess
import sys
from math import gcd, prod

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory.modular import crt as sympy_crt
from sympy.ntheory.primetest import is_strong_lucas_prp

import ecaliquot
from ecaliquot.arith import (
    _TRIAL_PRODUCT,
    _strong_lucas_probable_prime,
    crt,
    factorint,
    isprime,
    nextprime,
    prime_flags,
    primes_in_range,
)

# Composites that pass Miller--Rabin to many bases: 2047 to base 2,
# 3215031751 to 2, 3, 5, 7, 4759123141 to 2, 7, 61, and the last three to
# every prime up to 23, 37 and 41.
STRONG_PSEUDOPRIMES = (
    2047,
    3215031751,
    4759123141,
    3825123056546413051,
    318665857834031151167461,
    3317044064679887385961981,
)
CARMICHAEL = (561, 41041, 825265, 321197185, 5394826801)
MERSENNE_PRIMES = (2**61 - 1, 2**89 - 1, 2**127 - 1)


class TestSieve:
    @staticmethod
    def _check_window(lo, hi):
        primes = list(sympy.primerange(lo, hi))
        assert primes_in_range(lo, hi) == primes
        flags = prime_flags(lo, hi)
        assert len(flags) == hi - lo
        assert [lo + i for i, flag in enumerate(flags) if flag] == primes

    def test_every_window_below_130(self):
        # prime_flags takes its base primes from itself on [2, isqrt(hi - 1)
        # + 1): hi = 3 and 4 have none, hi = 5 is the first with 2 (for 4)
        # and hi = 10 the first with 3 (for 9).
        for hi in range(3, 131):
            for lo in range(2, hi):
                self._check_window(lo, hi)

    @pytest.mark.parametrize(
        "lo", [10**9 - 7, 10**9 + 4321, 10**12 - 3, 999983**2 - 8], ids=str
    )
    def test_narrow_windows_agree_with_isprime(self, lo):
        # Base primes at least as wide as the window cross off at most
        # one multiple each; 999983^2 is the square of such a prime.
        for width in (16, 17, 100, 2500, 4999, 5000):
            flags = prime_flags(lo, lo + width)
            assert flags == bytearray(isprime(n) for n in range(lo, lo + width))
        assert prime_flags(2, 5) == bytearray([1, 1, 0])

    def test_random_windows_below_1e12(self):
        # lo below 10^e for e = 3..12 alike, so that every depth of base
        # primes, up to 10^6, is sieved about as often.
        rng = random.Random(12)
        for _ in range(300):
            lo = rng.randrange(2, 10 ** rng.randrange(3, 13))
            self._check_window(lo, lo + rng.randrange(1, 5000))


class TestIsprime:
    def test_exhaustive_against_the_sieve(self):
        primes = set(primes_in_range(2, 10**5 + 1))
        assert [n for n in range(-3, 10**5 + 1) if isprime(n)] == sorted(primes)

    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES + CARMICHAEL)
    def test_pseudoprimes_are_composite(self, n):
        assert not isprime(n)
        assert not sympy.isprime(n)

    @pytest.mark.parametrize("n", MERSENNE_PRIMES)
    def test_mersenne_primes_either_side_of_the_bounds(self, n):
        # 2^61 - 1 is below 3.18e23 (the 12 prime bases); 2^89 - 1 and
        # 2^127 - 1 are above it (strong BPSW).
        assert isprime(n)
        for m in (n - 2, n + 2, n * n, n * (n + 2)):
            assert isprime(m) == sympy.isprime(m)

    @pytest.mark.parametrize("bound", [2809, 4759123141, 318665857834031151167461])
    def test_primes_either_side_of_each_base_set_bound(self, bound):
        below = sympy.prevprime(bound)
        above = sympy.nextprime(bound)
        assert isprime(below) and isprime(above)
        assert nextprime(below) == above
        for m in range(below - 40, above + 40):
            assert isprime(m) == sympy.isprime(m)

    def test_semiprime_just_above_2_64(self):
        p = nextprime(2**64)
        q = nextprime(p)
        assert isprime(p) and isprime(q)
        assert not isprime(p * q)

    def test_thirty_digit_prime_takes_the_bpsw_route(self):
        n = 10**30 + 57
        assert n > 318665857834031151167461
        assert isprime(n) and sympy.isprime(n)

    def test_strong_lucas_agrees_with_sympy(self):
        # Every odd n < 10^5 with no prime factor below 50 that is not a
        # square: the strong Lucas pseudoprimes 5459, 5777, 10877, ... pass.
        odd = [n for n in range(2809, 10**5, 2) if gcd(n, _TRIAL_PRODUCT) == 1]
        passed = [n for n in odd if _strong_lucas_probable_prime(n)]
        assert passed == [n for n in odd if is_strong_lucas_prp(n)]
        assert {5459, 5777, 10877, 16109, 18971} <= set(passed)

    @settings(max_examples=500, deadline=None)
    @given(st.integers(min_value=-10, max_value=10**12))
    def test_against_sympy(self, n):
        assert isprime(n) == sympy.isprime(n)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(min_value=0, max_value=10**12))
    def test_odd_numbers_near_primes(self, n):
        n = sympy.nextprime(n)
        for m in (n, n + 2, n * n, n * sympy.nextprime(n)):
            assert isprime(m) == sympy.isprime(m)


class TestNextprime:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=-10, max_value=10**12))
    def test_against_sympy(self, n):
        assert nextprime(n) == sympy.nextprime(n)

    def test_returns_a_plain_int(self):
        assert type(nextprime(10**6)) is int


class TestFactorint:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**12))
    def test_against_sympy(self, n):
        f = factorint(n)
        assert f == sympy.factorint(n)
        assert list(f) == sorted(f)

    def test_one(self):
        assert factorint(1) == {}

    @pytest.mark.parametrize("p", [1031, 65537, 999999937, 1000000007])
    def test_prime_powers(self, p):
        assert factorint(p * p) == {p: 2}
        assert factorint(p**3) == {p: 3}
        assert factorint(12 * p**3) == {2: 2, 3: 1, p: 3}

    def test_semiprimes_near_1e9(self):
        primes = [nextprime(10**9 + 1000 * i) for i in range(6)]
        for p, q in zip(primes, primes[1:]):
            assert factorint(p * q) == {p: 1, q: 1}
        assert factorint(prod(primes)) == dict.fromkeys(primes, 1)

    @pytest.mark.parametrize("n", [0, -6])
    def test_rejects_n_below_one(self, n):
        with pytest.raises(ValueError):
            factorint(n)


class TestCrt:
    def test_against_sympy(self):
        rng = random.Random(7)
        pool = primes_in_range(2, 2001)
        for _ in range(300):
            moduli = rng.sample(pool, rng.randrange(1, 7))
            residues = [rng.randrange(-10**6, 10**6) for _ in moduli]
            x = crt(moduli, residues)
            assert x == sympy_crt(moduli, residues)[0]
            assert 0 <= x < prod(moduli)

    def test_rejects_shared_factors(self):
        with pytest.raises(ValueError):
            crt([6, 9], [1, 2])


def test_importing_the_cli_loads_no_sympy():
    code = "import ecaliquot.cli, sys; assert 'sympy' not in sys.modules"
    src = os.path.dirname(os.path.dirname(ecaliquot.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
