"""Elliptic curves over Q, their reductions mod p, and point counting.

Three counting backends are provided:

* ``naive``   -- an O(p) character sum, used for small p and as the
  reference oracle;
* ``bsgs``    -- Shanks baby-step giant-step on random points of the
  curve and its quadratic twist, intersecting order constraints until
  the group order is pinned down uniquely (p > 229 guarantees a unique
  answer inside the Hasse interval);
* the CM formula for y^2 = x^3 + k via the sextic residue symbol,
  exposed as :func:`count_points_cm_j0`.

All backends agree wherever their domains overlap, and the test suite
enforces that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt

from sympy import isprime, nextprime

from .arith import sqrt_mod_prime
from .eisenstein import EisensteinInt, PrimeIdealK, primary_split, sextic_symbol

NAIVE_THRESHOLD = 1024
MESTRE_BOUND = 229  # above it, BSGS always finds a unique order


def _b_invariants(a1: int, a2: int, a3: int, a4: int, a6: int):
    b2 = a1 * a1 + 4 * a2
    b4 = 2 * a4 + a1 * a3
    b6 = a3 * a3 + 4 * a6
    b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
    return b2, b4, b6, b8


def _c_invariants(a1: int, a2: int, a3: int, a4: int, a6: int):
    b2, b4, b6, _ = _b_invariants(a1, a2, a3, a4, a6)
    return b2 * b2 - 24 * b4, -b2 ** 3 + 36 * b2 * b4 - 216 * b6


@dataclass(frozen=True)
class CurveQ:
    """An elliptic curve y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6 over Q."""

    a1: int = 0
    a2: int = 0
    a3: int = 0
    a4: int = 0
    a6: int = 0

    def __post_init__(self) -> None:
        if self.discriminant() == 0:
            raise ValueError("singular curve")

    @classmethod
    def short(cls, a: int, b: int) -> "CurveQ":
        return cls(0, 0, 0, a, b)

    @classmethod
    def mordell(cls, k: int) -> "CurveQ":
        """The curve y^2 = x^3 + k."""
        return cls(0, 0, 0, 0, k)

    @classmethod
    def parse(cls, text: str) -> "CurveQ":
        """Parse "[a1,a2,a3,a4,a6]" or the shorthand "x^3+k"."""
        text = text.strip()
        if text.startswith("["):
            body = text.strip("[]")
            coeffs = [int(t) for t in body.split(",")]
            if len(coeffs) != 5:
                raise ValueError("curve literal needs five coefficients")
            return cls(*coeffs)
        lowered = text.lower().replace(" ", "")
        if lowered.startswith("x^3"):
            rest = lowered[3:]
            k = int(rest) if rest else 0
            return cls.mordell(k)
        raise ValueError(f"cannot parse curve {text!r}")

    def b_invariants(self) -> tuple[int, int, int, int]:
        return _b_invariants(self.a1, self.a2, self.a3, self.a4, self.a6)

    def c_invariants(self) -> tuple[int, int]:
        return _c_invariants(self.a1, self.a2, self.a3, self.a4, self.a6)

    def discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def has_good_reduction(self, p: int) -> bool:
        return self.discriminant() % p != 0

    def is_mordell(self) -> bool:
        return (self.a1, self.a2, self.a3, self.a4) == (0, 0, 0, 0)

    def __str__(self) -> str:
        terms = []
        lhs = "y^2"
        if self.a1:
            lhs += f" + {self.a1}*x*y" if self.a1 > 0 else f" - {-self.a1}*x*y"
        if self.a3:
            lhs += f" + {self.a3}*y" if self.a3 > 0 else f" - {-self.a3}*y"
        rhs = "x^3"
        for c, mono in ((self.a2, "x^2"), (self.a4, "x"), (self.a6, "")):
            if c:
                sep = " + " if c > 0 else " - "
                coef = abs(c)
                rhs += sep + (f"{coef}*{mono}" if mono else f"{coef}")
        terms.append(f"{lhs} = {rhs}")
        return terms[0]


@dataclass(frozen=True)
class CurveFp:
    """A reduction of an elliptic curve to F_p (possibly singular)."""

    p: int
    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    good: bool

    @classmethod
    def short(cls, p: int, a: int, b: int) -> "CurveFp":
        good = (4 * a * a * a + 27 * b * b) % p != 0
        return cls(p, 0, 0, 0, a % p, b % p, good)

    def short_model(self) -> tuple[int, int]:
        """Coefficients (A, B) with y^2 = x^3 + Ax + B isomorphic to self.

        Valid for p >= 5: this is the classical substitution through the
        c-invariants, A = -27 c4, B = -54 c6.
        """
        if self.p < 5:
            raise ValueError("no short model in characteristic 2 or 3")
        if self.a1 == 0 and self.a2 == 0 and self.a3 == 0:
            return self.a4 % self.p, self.a6 % self.p
        c4, c6 = _c_invariants(self.a1, self.a2, self.a3, self.a4, self.a6)
        return (-27 * c4) % self.p, (-54 * c6) % self.p


def reduce_curve(E: CurveQ, p: int) -> CurveFp:
    """Reduce E mod p; bad reduction is flagged, not an error."""
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")
    return CurveFp(
        p,
        E.a1 % p,
        E.a2 % p,
        E.a3 % p,
        E.a4 % p,
        E.a6 % p,
        E.discriminant() % p != 0,
    )


# ---------------------------------------------------------------------------
# Group law on y^2 = x^3 + Ax + B (affine points as tuples, None = infinity)

def ec_add(p: int, A: int, P, Q):
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % p == 0:
            return None
        lam = (3 * x1 * x1 + A) * pow(2 * y1, -1, p) % p
    else:
        lam = (y2 - y1) * pow(x2 - x1, -1, p) % p
    x3 = (lam * lam - x1 - x2) % p
    return x3, (lam * (x1 - x3) - y1) % p


def ec_neg(p: int, P):
    if P is None:
        return None
    return P[0], (-P[1]) % p


def ec_mul(p: int, A: int, n: int, P):
    if n < 0:
        return ec_mul(p, A, -n, ec_neg(p, P))
    R = None
    while n:
        if n & 1:
            R = ec_add(p, A, R, P)
        P = ec_add(p, A, P, P)
        n >>= 1
    return R


@dataclass(frozen=True)
class PointFp:
    """A point on a short-model curve mod p; x = y = None is infinity.

    Construction and the group operations check the curve equation, so
    any drift off the curve raises immediately.
    """

    curve: CurveFp
    x: int | None
    y: int | None

    def __post_init__(self) -> None:
        if (self.x is None) != (self.y is None):
            raise ValueError("malformed point")
        if self.x is not None and not self.on_curve():
            raise ValueError(f"({self.x}, {self.y}) is not on the curve")

    def on_curve(self) -> bool:
        A, B = self.curve.short_model()
        p = self.curve.p
        return (self.y * self.y - self.x ** 3 - A * self.x - B) % p == 0

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __add__(self, other: "PointFp") -> "PointFp":
        if self.curve != other.curve:
            raise ValueError("points on different curves")
        A, _ = self.curve.short_model()
        tup = ec_add(
            self.curve.p,
            A,
            None if self.is_infinity else (self.x, self.y),
            None if other.is_infinity else (other.x, other.y),
        )
        if tup is None:
            return PointFp(self.curve, None, None)
        return PointFp(self.curve, tup[0], tup[1])

    def __neg__(self) -> "PointFp":
        if self.is_infinity:
            return self
        return PointFp(self.curve, self.x, (-self.y) % self.curve.p)

    def __rmul__(self, n: int) -> "PointFp":
        A, _ = self.curve.short_model()
        tup = ec_mul(
            self.curve.p, A, n, None if self.is_infinity else (self.x, self.y)
        )
        if tup is None:
            return PointFp(self.curve, None, None)
        return PointFp(self.curve, tup[0], tup[1])


# ---------------------------------------------------------------------------
# Naive counting

@lru_cache(maxsize=64)
def _squares_table(p: int) -> bytes:
    table = bytearray(p)
    for x in range(p):
        table[x * x % p] = 1
    return bytes(table)


def _count_tiny(E: CurveFp) -> int:
    """Brute-force count on the long Weierstrass form (any p >= 2)."""
    p = E.p
    n = 1
    for x in range(p):
        rhs = (x * x * x + E.a2 * x * x + E.a4 * x + E.a6) % p
        lin = (E.a1 * x + E.a3) % p
        for y in range(p):
            if (y * y + lin * y - rhs) % p == 0:
                n += 1
    return n


def count_points_naive(E: CurveFp) -> int:
    """O(p) point count; exact for any good reduction, p >= 2."""
    if not E.good:
        raise ValueError("bad reduction")
    return _character_sum(E)


def _character_sum(E: CurveFp) -> int:
    """The naive count of a good reduction, also used by count_points_bsgs."""
    p = E.p
    if p < 5:
        return _count_tiny(E)
    A, B = E.short_model()
    sq = _squares_table(p)
    n = 1
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        if f == 0:
            n += 1
        elif sq[f]:
            n += 2
    return n


# ---------------------------------------------------------------------------
# Baby-step giant-step counting

def _random_point(p: int, A: int, B: int, rng: random.Random):
    while True:
        x = rng.randrange(p)
        f = (x * x * x + A * x + B) % p
        if f == 0:
            return x, 0
        if pow(f, (p - 1) // 2, p) == 1:
            return x, sqrt_mod_prime(f, p)


def _order_candidates(p: int, A: int, B: int, rng: random.Random, H: int) -> set:
    """All N in [p+1-H, p+1+H] annihilating one random point of the curve."""
    P = _random_point(p, A, B, rng)
    m = isqrt(2 * H) + 1

    # Baby steps: x-coordinate of j*P for j = 1..m-1 (order found early if hit O).
    baby: dict[int, tuple[int, int]] = {}
    R = P
    for j in range(1, m):
        if R is None:
            # P has tiny order j; every multiple of j in the window works.
            lo, hi = p + 1 - H, p + 1 + H
            start = lo + (-lo) % j
            return set(range(start, hi + 1, j))
        baby.setdefault(R[0], (j, R[1]))
        R = ec_add(p, A, R, P)

    Q = ec_mul(p, A, p + 1, P)
    T = ec_mul(p, A, m, P)
    Tneg = ec_neg(p, T)
    c = H // m + 1

    found = set()

    def record(t: int) -> None:
        if abs(t) <= H:
            found.add(p + 1 - t)

    # R_i = Q - i*(mP) for i = -c..c; match against baby table.
    R = ec_add(p, A, Q, ec_mul(p, A, c, T))
    for i in range(-c, c + 1):
        if R is None:
            record(i * m)
        else:
            hit = baby.get(R[0])
            if hit is not None:
                j, yj = hit
                if R[1] == yj:
                    record(i * m + j)
                if R[1] == (p - yj) % p:
                    record(i * m - j)
        R = ec_add(p, A, R, Tneg)
    return found


def count_points_bsgs(E: CurveFp) -> int:
    """Shanks BSGS count for any good reduction.

    Random points on the curve and its quadratic twist produce order
    constraints whose intersection pins down the group order; for
    p > 229 the combined constraint is always unique in the Hasse
    interval, so smaller p are counted naively.  Deterministic for
    fixed (curve, p): the point generator is seeded from them.
    """
    if not E.good:
        raise ValueError("bad reduction")
    p = E.p
    if p <= MESTRE_BOUND:
        return _character_sum(E)
    A, B = E.short_model()
    rng = random.Random(f"bsgs:{A}:{B}:{p}")
    H = isqrt(4 * p)

    cand = _order_candidates(p, A, B, rng, H)
    tries = 1
    while len(cand) > 1 and tries < 3:
        cand &= _order_candidates(p, A, B, rng, H)
        tries += 1

    if len(cand) > 1:
        # Constrain through the quadratic twist: N + N' = 2p + 2.
        d = 2
        while pow(d, (p - 1) // 2, p) == 1:
            d += 1
        At, Bt = A * d * d % p, B * d ** 3 % p
        while len(cand) > 1 and tries < 40:
            tw = _order_candidates(p, At, Bt, rng, H)
            cand &= {2 * p + 2 - N for N in tw}
            if len(cand) > 1:
                cand &= _order_candidates(p, A, B, rng, H)
            tries += 2

    if len(cand) != 1:
        raise RuntimeError(f"group order ambiguous mod {p}")
    return cand.pop()


# ---------------------------------------------------------------------------
# CM counting for y^2 = x^3 + k

def grossencharacter_j0(k: int, p: int) -> EisensteinInt:
    """The Hecke character value at a split prime for y^2 = x^3 + k.

    Returns psi with |psi|^2 = p and #E(F_p) = p + 1 - trace(psi); psi
    is -(4k/p)_6^{-1} * pi for the canonical primary pi above p.
    """
    if p % 3 != 1:
        raise ValueError(f"{p} is inert in Q(sqrt(-3)) or ramified")
    if (6 * k) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    pi = primary_split(p)
    ideal = PrimeIdealK("split", pi, p)
    u = sextic_symbol(EisensteinInt(4 * k, 0), ideal)
    return -(u.inverse().as_eisenstein()) * pi


def count_points_cm_j0(k: int, p: int) -> int:
    """#E(F_p) for E: y^2 = x^3 + k via the CM trace formula (p >= 5)."""
    if p < 5 or not isprime(p):
        raise ValueError(f"{p} must be a prime >= 5")
    if (6 * k) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    if p % 3 == 2:
        return p + 1  # supersingular: trace 0
    return p + 1 - grossencharacter_j0(k, p).trace


# ---------------------------------------------------------------------------
# Dispatch

def count_points(E: CurveFp, backend: str = "auto") -> int:
    """Count #E(F_p) with the selected backend ("auto" picks by size)."""
    if not E.good:
        raise ValueError("bad reduction")
    if backend == "cm":
        if (E.a1, E.a2, E.a3, E.a4) != (0, 0, 0, 0):
            raise ValueError("the cm backend applies to y^2 = x^3 + k only")
        return count_points_cm_j0(E.a6, E.p)
    if backend == "naive":
        return count_points_naive(E)
    if backend == "bsgs":
        return count_points_bsgs(E)
    if backend == "auto":
        if E.p < NAIVE_THRESHOLD:
            return count_points_naive(E)
        return count_points_bsgs(E)
    raise ValueError(f"unknown backend {backend!r}")


def trace_a_p(E: CurveFp, backend: str = "auto") -> int:
    return E.p + 1 - count_points(E, backend)


def torsion_obstruction(E: CurveQ, primes_to_check: int = 20) -> bool:
    """True iff the counts mod many primes share a factor > 1.

    A common divisor d > 1 of #E(F_p) across all good p (forced by
    rational torsion) prevents #E(F_p) from being prime for all but
    finitely many p, so curves with this obstruction are hopeless for
    amicable-pair searches.
    """
    g = 0
    p, seen = 5, 0
    while seen < primes_to_check:
        if E.has_good_reduction(p):
            g = gcd(g, count_points(reduce_curve(E, p)))
            seen += 1
            if g == 1:
                return False
        p = int(nextprime(p))
    return g > 1
