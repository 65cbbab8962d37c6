"""Constructing curves over Q with aliquot cycles of prescribed lengths.

The recipe: pick L consecutive primes whose zigzag arrangement turns
every hop into a Hasse-admissible trace, realize each hop locally by a
curve over F_{p_i} with exactly p_{i+1} points, and glue the local
curves by the Chinese remainder theorem.  Each local curve comes from
one seeded random search, which ends by Deuring's theorem: every
Hasse-admissible order is taken by some short-form curve over F_p.
Disjoint prime windows allow several cycle lengths to be realized
simultaneously by one curve.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .aliquot import AliquotCycle, verify_cycle
from .arith import crt, isprime, nextprime
from .curves_mod_p import (
    CurveFp,
    CurveQ,
    count_points,
    ec_mul,
)
from .curves_mod_p import count_points_naive  # noqa: F401  (perfbench patches it)


@dataclass(frozen=True)
class PrimeWindow:
    """Consecutive primes arranged in cycle order.

    primes[i] and primes[i+1] (cyclically) always differ by a
    Hasse-admissible amount: |p + 1 - next| <= 2 sqrt(p).
    """

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        for i, p in enumerate(self.primes):
            nxt = self.primes[(i + 1) % len(self.primes)]
            t = p + 1 - nxt
            if t * t > 4 * p:
                raise ValueError(
                    f"hop {p} -> {nxt} violates the Hasse bound"
                )

    @property
    def length(self) -> int:
        return len(self.primes)

    @property
    def sorted_primes(self) -> tuple[int, ...]:
        return tuple(sorted(self.primes))


def _zigzag(run: list[int]) -> tuple[int, ...]:
    """Arrange a sorted run as (r0, r2, r4, ..., r5, r3, r1).

    Walking up the even positions and back down the odd ones keeps
    every cyclic neighbor within two places of the run, so the gaps
    stay small enough for the Hasse bound.
    """
    return tuple(run[0::2]) + tuple(run[1::2][::-1])


def find_prime_window(length: int, start_hint: int = 5) -> PrimeWindow:
    """The first window of `length` consecutive primes >= start_hint
    whose zigzag arrangement satisfies all cyclic Hasse conditions."""
    if length < 1:
        raise ValueError("length must be >= 1")
    s = max(5, start_hint)
    if not isprime(s):
        s = nextprime(s)
    while True:
        run = [s]
        while len(run) < length:
            run.append(nextprime(run[-1]))
        try:
            return PrimeWindow(_zigzag(run))
        except ValueError:  # a hop breaks the Hasse bound
            s = nextprime(s)


def curve_with_order(p: int, N: int) -> CurveFp:
    """A short-form curve over F_p with exactly N points.

    Requires p >= 5 and N in the Hasse interval.  One search, seeded
    by (p, N), draws coefficients (a, b) and an x with f = x^3 + a x + b
    a square, rejects quickly via N P != O for P = (x f, f^2) on
    y^2 = x^3 + a f^2 x + b f^3, and pays for a full count only then.
    That model is isomorphic to the curve when f = u^2 != 0, by
    (x, y) -> (f x, u^3 y); at f = 0, P = (0, 0) has order 2, as (x, 0)
    does on the curve, so no square root is needed.
    It needs no bound: by Deuring's theorem every N with
    |p + 1 - N| <= 2 sqrt(p) is the order of a curve over F_p, and for
    p >= 5 every curve has a short model, so some (a, b) is drawn.
    """
    if p < 5 or not isprime(p):
        raise ValueError(f"{p} must be a prime >= 5")
    t = p + 1 - N
    if t * t > 4 * p:
        raise ValueError(f"no curve over F_{p} has {N} points (Hasse)")

    rng = random.Random(f"cwo:{p}:{N}")
    while True:
        a = rng.randrange(p)
        b = rng.randrange(p)
        if (4 * a * a * a + 27 * b * b) % p == 0:
            continue
        # Quick rejection on the point at a random x, twisted by f.
        x = rng.randrange(p)
        f = (x * x * x + a * x + b) % p
        if pow(f, (p - 1) // 2, p) == p - 1:
            continue  # no point with this x; resample curve
        if ec_mul(p, a * f * f % p, N, (x * f % p, f * f % p)) is not None:
            continue
        E = CurveFp.short(p, a, b)
        if count_points(E) == N:
            return E


def crt_lift(local_curves: list[CurveFp]) -> CurveQ:
    """The short-form curve over Q reducing to each local curve.

    Coefficients are the least nonnegative residues modulo the product
    of the (distinct) local primes.
    """
    if not local_curves:
        raise ValueError("need at least one local curve")
    moduli = [E.p for E in local_curves]
    if len(set(moduli)) != len(moduli):
        raise ValueError("local primes must be distinct")
    for E in local_curves:
        if (E.a1, E.a2, E.a3) != (0, 0, 0):
            raise ValueError("local curves must be in short form")
    a4 = crt(moduli, [E.a4 for E in local_curves])
    a6 = crt(moduli, [E.a6 for E in local_curves])
    return CurveQ.short(a4, a6)


def build_cycle_curve(
    lengths: list[int],
) -> tuple[CurveQ, list[AliquotCycle]]:
    """A single curve over Q with aliquot cycles of all given lengths.

    Windows for the different lengths are taken disjoint (each search
    starts past the previous window), every local order is realized by
    curve_with_order, and the CRT glue is re-verified by verify_cycle's
    prime-order certificate before returning.
    """
    if not lengths or any(L < 1 for L in lengths):
        raise ValueError("lengths must be positive")
    windows: list[PrimeWindow] = []
    hint = 5
    for L in lengths:
        w = find_prime_window(L, hint)
        windows.append(w)
        hint = max(w.primes) + 1

    locals_: list[CurveFp] = []
    for w in windows:
        L = w.length
        for i, p in enumerate(w.primes):
            locals_.append(curve_with_order(p, w.primes[(i + 1) % L]))
    E = crt_lift(locals_)

    cycles = []
    for w in windows:
        cycle = AliquotCycle.normalize(w.primes)
        if not verify_cycle(E, cycle.primes):
            raise ArithmeticError(f"constructed cycle {cycle.primes} failed recount")
        cycles.append(cycle)
    return E, cycles
