"""Shared modular-arithmetic and prime-enumeration utilities."""

from __future__ import annotations

from itertools import compress
from math import isqrt


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a mod p; a must be a quadratic residue (or 0)."""
    a %= p
    if a == 0:
        return 0
    if p == 2:
        return a
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    if p % 8 == 5:
        x = pow(a, (p + 3) // 8, p)
        if x * x % p != a:
            x = x * pow(2, (p - 1) // 4, p) % p
        return x
    # Tonelli--Shanks for p = 1 mod 8.
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c = s, pow(z, q, p)
    t, r = pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


def small_primes(n: int) -> list[int]:
    """All primes <= n by a plain sieve."""
    if n < 2:
        return []
    sieve = bytearray([1]) * (n + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, isqrt(n) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i in range(2, n + 1) if sieve[i]]


def prime_flags(lo: int, hi: int) -> bytearray:
    """A segmented sieve: flags[n - lo] is 1 iff n is prime (2 <= lo <= n < hi)."""
    base = small_primes(isqrt(hi - 1))
    width = hi - lo
    sieve = bytearray([1]) * width
    for q in base:
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
