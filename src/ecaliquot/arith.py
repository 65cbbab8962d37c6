"""Shared modular-arithmetic, primality and prime-enumeration utilities.

``isprime`` is exact: deterministic Miller--Rabin below 3.18e23
(Sorenson and Webster, Math. Comp. 2017), strong BPSW above it.
``factorint`` splits what trial division leaves by Pollard--Brent rho
(Brent, BIT 1980).
"""

from __future__ import annotations

from itertools import compress
from math import gcd, isqrt, prod

# Trial division by the primes below 50 comes before every Miller--Rabin test.
_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
_TRIAL_PRODUCT = prod(_TRIAL_PRIMES)

# (bound, bases): Miller--Rabin to these bases is exact for n < bound.
_MR_BASES = (
    (4_759_123_141, (2, 7, 61)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

# factorint divides by 2 and the odd numbers below this before Pollard--Brent.
_FACTOR_TRIAL_BOUND = 1 << 10


def prime_flags(lo: int, hi: int) -> bytearray:
    """A segmented sieve: flags[n - lo] is 1 iff n is prime (2 <= lo <= n < hi).

    The base primes q <= isqrt(hi - 1) come from this same sieve on
    [2, isqrt(hi - 1) + 1), one level down; below hi = 5 there are none.
    """
    width = hi - lo
    sieve = bytearray([1]) * width
    for q in primes_in_range(2, isqrt(hi - 1) + 1):
        start = max(q * q, (lo + q - 1) // q * q)
        if start < hi:
            sieve[start - lo :: q] = bytearray(len(range(start - lo, width, q)))
    return sieve


def primes_in_range(lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p < hi, by a segmented sieve."""
    if hi <= 2 or hi <= lo:
        return []
    lo = max(lo, 2)
    return list(compress(range(lo, hi), prime_flags(lo, hi)))


def _strong_probable_prime(n: int, bases) -> bool:
    """Miller--Rabin: n (odd, > every base) passes to each base."""
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in bases:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """The strong Lucas test with Selfridge's parameters (method A).

    n must be odd with no prime factor below 50.  D is the first of
    5, -7, 9, -11, ... with (D/n) = -1, P = 1 and Q = (1 - D)/4; with
    n + 1 = d 2^s, n passes if U_d = 0 or V_(d 2^r) = 0 for some r < s.
    """
    if isqrt(n) ** 2 == n:
        return False  # no D would have (D/n) = -1
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # 1 < gcd(D, n) < n, as |D| < n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    d = n + 1
    s = (d & -d).bit_length() - 1
    d >>= s
    # U_k, V_k and Q^k mod n, from k = 1 along the bits of d.
    U, V, Qk = 1, 1, Q % n
    for bit in bin(d)[3:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V = U + V, D * U + V
            U = (U + n if U & 1 else U) // 2 % n
            V = (V + n if V & 1 else V) // 2 % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V = (V * V - 2 * Qk) % n
        if V == 0:
            return True
        Qk = Qk * Qk % n
    return False


def isprime(n: int) -> bool:
    """Whether the integer n is prime."""
    if n < 50:
        return n in _TRIAL_PRIMES
    if gcd(n, _TRIAL_PRODUCT) != 1:
        return False
    if n < 2809:  # 53^2
        return True
    for bound, bases in _MR_BASES:
        if n < bound:
            return _strong_probable_prime(n, bases)
    return _strong_probable_prime(n, (2,)) and _strong_lucas_probable_prime(n)


def nextprime(n: int) -> int:
    """The least prime > n."""
    n = max(n, 1) + 1
    while not isprime(n):
        n += 1
    return n


def _pollard_brent(n: int) -> int:
    """A factor 1 < f < n of the odd composite n (Brent's variant of rho)."""
    for c in range(1, n):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:  # the batch overshot: step back one product at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g
    raise ArithmeticError(f"Pollard--Brent found no factor of {n}")


def factorint(n: int) -> dict[int, int]:
    """The factorization of n >= 1 as {prime: exponent}, primes ascending."""
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors: dict[int, int] = {}
    d = 2
    while d < _FACTOR_TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            factors[d] = factors.get(d, 0) + 1
            n //= d
        d += 1 + (d > 2)
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if m < _FACTOR_TRIAL_BOUND ** 2 or isprime(m):
            factors[m] = factors.get(m, 0) + 1
        else:
            f = _pollard_brent(m)
            rest += (f, m // f)
    return dict(sorted(factors.items()))


def crt(moduli: list[int], residues: list[int]) -> int:
    """The x in [0, prod(moduli)) with x = r mod m for each (m, r).

    The moduli must be pairwise coprime; pow raises ValueError otherwise.
    """
    x, M = 0, 1
    for m, r in zip(moduli, residues):
        x += M * ((r - x) * pow(M, -1, m) % m)
        M *= m
    return x
