"""Elliptic curves over Q, their reductions mod p, and point counting.

Three counting backends are provided:

* ``naive``   -- an O(p) character sum, used for small p and as the
  reference oracle;
* ``bsgs``    -- Shanks baby-step giant-step on points of the curve and
  its quadratic twist, intersecting order constraints until the group
  order is pinned down uniquely (p > 229 guarantees a unique answer
  inside the Hasse interval).  The 2-division cubic gives the parity
  of the count first (Schoof's case l = 2), so only half the window is
  searched: for a point P, m = isqrt(H/2) + 1 baby steps j(2P) serve a
  giant stride of S = 2m + 1, since an x-coordinate match stands for
  +-j; one ladder gives the first giant step, and every group operation
  is an inlined affine step.  A point whose order the baby steps
  already reveal constrains the count to the multiples of that order;
* the CM formula for y^2 = x^3 + k via the sextic residue symbol,
  exposed as :func:`count_points_cm_j0`.

The CM formula has one definition, ``_count_at_primary``: #E(F_p) from
a primary prime pi = a + b w of norm p, with ``grossencharacter_j0``'s
psi computed on bare integers.  It has two routes to pi.  One prime at a
time, :func:`count_points_cm_j0` and ``count_points`` take pi from
``primary_split`` (Cornacchia).  Over a range, :func:`cm_j0_counts`
walks the primaries themselves and keeps those whose norm a sieve marks
prime; the sweep of a segment takes this route on y^2 = x^3 + k under
the ``cm`` and ``auto`` backends, and the first route only for what the
range does not hold.

The ``auto`` choice of :func:`count_points` is a property of the curve,
not of p: the CM formula when the reduction is y^2 = x^3 + k, else
BSGS (naive up to p = 229 inside it).

All backends agree wherever their domains overlap, and the test suite
enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain
from math import gcd, isqrt

from .arith import isprime, nextprime
from .eisenstein import EisensteinInt, PrimeIdealK, primary_split, sextic_symbol

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
        # Every short model is singular in characteristic 2.
        good = p != 2 and (4 * a * a * a + 27 * b * b) % p != 0
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

    @cached_property
    def two_division_roots(self) -> int:
        """The roots in F_p of the 2-division cubic x^3 + Ax + B of the
        short model: 1, 0 or 3, the points of order 2 in E(F_p) (good
        reduction, p >= 5).

        The cubic has distinct roots, so its discriminant -4A^3 - 27B^2
        is a non-residue exactly when it has one root.  Otherwise it has
        0 or 3, and 3 exactly when it divides x^p - x, that is when
        x^p = x mod the cubic: Schoof's case l = 2.  Computed once per
        reduction, and kept with it.
        """
        p = self.p
        A, B = self.short_model()
        if pow(-4 * A * A * A - 27 * B * B, (p - 1) // 2, p) == p - 1:
            return 1
        # x^p as c0 + c1 x + c2 x^2, by square-and-multiply from x,
        # with x^3 = -Ax - B and x^4 = -Ax^2 - Bx.
        c0, c1, c2 = 0, 1, 0
        for bit in bin(p)[3:]:
            t = c1 * c2 % p
            s = c2 * c2 % p
            c0, c1, c2 = (
                (c0 * c0 - 2 * B * t) % p,
                (2 * c0 * c1 - 2 * A * t - B * s) % p,
                (c1 * c1 + 2 * c0 * c2 - A * s) % p,
            )
            if bit == "1":
                c0, c1, c2 = -B * c2 % p, (c0 - A * c2) % p, c1
        return 3 if (c0, c1, c2) == (0, 1, 0) else 0


def reduce_curve(E: CurveQ, p: int) -> CurveFp:
    """Reduce E mod p; bad reduction is flagged, not an error."""
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")
    return _reduce(E, p)


def _reduce(E: CurveQ, p: int) -> CurveFp:
    """reduce_curve for a p already known to be prime."""
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


def ec_mul(p: int, A: int, n: int, P):
    """n P for n >= 0, by double-and-add over ec_add."""
    R = None
    while n:
        if n & 1:
            R = ec_add(p, A, R, P)
        P = ec_add(p, A, P, P)
        n >>= 1
    return R


# ---------------------------------------------------------------------------
# Naive counting

@lru_cache(maxsize=8)  # one table is p bytes
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

def _multiples(d: int, p: int, H: int, parity: int) -> set:
    """The N = d k with k = parity (mod 2) in the window [p+1-H, p+1+H]."""
    lo = p + 1 - H
    return set(range(lo + (parity * d - lo) % (2 * d), p + 2 + H, 2 * d))


def _mul(p: int, A: int, n: int, table: list):
    """n P for n >= 1, given table[j] = jP for 1 <= j < len(table).

    Fixed-window double-and-add in inlined affine steps, with windows of
    w bits, 2^w <= len(table).  An intermediate point of order 2, or an
    addend with the same x, leaves the generic formulas; ec_mul then
    takes the whole product.
    """
    w = len(table).bit_length() - 1
    mask = (1 << w) - 1
    k = (n.bit_length() - 1) // w * w
    x, y = table[n >> k]
    while k:
        k -= w
        for _ in range(w):
            if y == 0:
                return ec_mul(p, A, n, table[1])
            lam = (3 * x * x + A) * pow(2 * y, -1, p) % p
            x3 = (lam * lam - 2 * x) % p
            x, y = x3, (lam * (x - x3) - y) % p
        d = n >> k & mask
        if d:
            xd, yd = table[d]
            if x == xd:
                return ec_mul(p, A, n, table[1])
            lam = (y - yd) * pow(x - xd, -1, p) % p
            x3 = (lam * lam - x - xd) % p
            x, y = x3, (lam * (xd - x3) - yd) % p
    return x, y


def _order_candidates(p: int, A: int, P, H: int, parity: int) -> set:
    """All N = parity (mod 2) in [p+1-H, p+1+H] with N P = O, for an
    affine point P on a curve whose count has that parity.

    Such N are p + 1 - e - 2s, e = parity, for |s| <= K = (H + 1) // 2,
    and N P = O exactly when (p + 1 - e) P = s Q, Q = 2P: a search over
    half the window, in steps of Q.  Baby steps take jQ for j = 1..m,
    m = isqrt(K) + 1.  The first jQ of order 2 gives ord(Q) = 2j, and
    the first jQ = +-iQ (i < j) gives ord(Q) = j -+ i: a smaller order
    would have stopped an earlier step.  Then 2 d P = O for d = ord(Q),
    and ord(P) = d when e = 1, as ord(P) divides an odd count: the N
    are the multiples d k with k = e (mod 2).  Past the baby
    steps ord(Q) >= S = 2m + 1, and T = S Q = (m+1)Q + mQ is O exactly
    when ord(Q) = S.  Otherwise +-jQ (0 <= j <= m) are 2m + 1 distinct
    points, and every s in [-K, K] is uniquely iS + j, so the giant
    steps (p+1-e)P - iT, i = -c..c, meet the baby table exactly at the
    s with (p+1-e)P = s Q.  One ladder on Q, and for odd N one addition
    of P, give the first, (p + 1 - e + 2cS)P.
    """
    x, y = P
    if y == 0:  # ord(P) = 2, so the count and every N searched are even
        return _multiples(1, p, H, parity)
    lam = (3 * x * x + A) * pow(2 * y, -1, p) % p
    x1 = (lam * lam - 2 * x) % p
    y1 = (lam * (x - x1) - y) % p  # Q = (x1, y1)
    K = (H + 1) // 2
    m = isqrt(K) + 1
    baby: dict[int, int] = {}  # x(jQ) -> j
    table = [None]  # table[j] = jQ
    x, y = x1, y1
    for j in range(1, m + 1):
        if y == 0:
            return _multiples(2 * j, p, H, parity)
        i = baby.setdefault(x, j)
        if i != j:
            d = j - i if y == table[i][1] else j + i  # ord(Q)
            return _multiples(d, p, H, parity)
        table.append((x, y))
        if j == 1:
            lam = (3 * x * x + A) * pow(2 * y, -1, p) % p
        else:
            lam = (y - y1) * pow(x - x1, -1, p) % p
        x3 = (lam * lam - x - x1) % p
        x, y = x3, (lam * (x1 - x3) - y1) % p

    # (x, y) = (m+1)Q; its x equals that of mQ only if (2m+1)Q = O.
    S = 2 * m + 1
    xm, ym = table[m]
    if x == xm:
        return _multiples(S, p, H, parity)
    lam = (ym - y) * pow(xm - x, -1, p) % p
    xT = (lam * lam - x - xm) % p
    yT = (ym - lam * (xm - xT)) % p  # -T = (xT, yT)

    c = (K + m) // S  # the least c with cS + m >= K
    found = set()
    R = _mul(p, A, (p + 1) // 2 - parity + c * S, table)
    if parity:
        R = ec_add(p, A, R, P)
    for iS in range(-c * S, c * S + 1, S):
        if R is None:
            if -H <= parity + 2 * iS <= H:
                found.add(p + 1 - parity - 2 * iS)
            R = xT, yT
            continue
        x, y = R
        j = baby.get(x)
        if j is not None:
            t = parity + 2 * (iS + j if y == table[j][1] else iS - j)
            if -H <= t <= H:
                found.add(p + 1 - t)
        if x == xT:
            R = ec_add(p, A, R, R) if y == yT else None
        else:
            lam = (yT - y) * pow(xT - x, -1, p) % p
            x3 = (lam * lam - x - xT) % p
            R = x3, (lam * (x - x3) - y) % p
    return found


def count_points_bsgs(E: CurveFp) -> int:
    """Shanks BSGS count for any good reduction.

    Each x = 0, 1, ... with f = x^3 + Ax + B != 0 gives the point
    (xf, f^2) of y^2 = x^3 + Af^2 x + Bf^3, the twist of E by f: E itself
    when f is a square, else its quadratic twist, whose count is
    2p + 2 - #E.  No square root is taken.  The order constraints of
    these points (see _order_candidates) are intersected until one
    count is left; for p > 229 the constraints from E and its twist
    always pin it down, so smaller p are counted naively.

    Only counts of the parity of #E are searched: odd when the
    2-division cubic has no root in F_p (E.two_division_roots), even
    otherwise.  Every twist shares that parity, since 2p + 2 - N = N
    (mod 2); equally, its cubic's roots are f times those of E's.
    """
    if not E.good:
        raise ValueError("bad reduction")
    p = E.p
    if p <= MESTRE_BOUND:
        return _character_sum(E)
    A, B = E.short_model()
    parity = 0 if E.two_division_roots else 1
    H = isqrt(4 * p)
    cand = None
    tries = 0
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        if not f:
            continue
        P = (x * f % p, f * f % p)
        found = _order_candidates(p, A * f * f % p, P, H, parity)
        if pow(f, (p - 1) // 2, p) != 1:
            found = {2 * p + 2 - N for N in found}
        cand = found if cand is None else cand & found
        tries += 1
        if len(cand) == 1 or tries == 40:
            break
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
    return _count_cm_j0(k, p)


def _count_cm_j0(k: int, p: int) -> int:
    """count_points_cm_j0 for a p already known to be a prime >= 5."""
    if (6 * k) % p == 0:
        raise ValueError(f"bad reduction at {p}")
    if p % 3 == 2:
        return p + 1  # supersingular: trace 0
    pi = primary_split(p)
    return _count_at_primary(k, p, pi.a, pi.b)


def _count_at_primary(k: int, p: int, a: int, b: int) -> int:
    """#E(F_p) on y^2 = x^3 + k from a primary pi = a + b w of norm p.

    This is grossencharacter_j0 on bare integers: w = -a/b (mod pi), the
    symbol (4k/pi)_6 = w^e where (4k)^((p-1)/6) = w^e (mod p), and
    psi = -w^(-e) pi.  p must not divide 6k.
    """
    w = -a * pow(b, -1, p) % p
    s = pow(4 * k, (p - 1) // 6, p)
    t = 1
    for e in range(6):
        if t == s:
            break
        t = t * w % p
    else:
        raise ArithmeticError(f"{a}+{b}*w is not a primary prime over {p}")
    # tr(w^j pi) for j = 0..5, and tr(psi) = -tr(w^(-e) pi)
    traces = (2 * a + b, a - b, -a - 2 * b, -2 * a - b, b - a, a + 2 * b)
    return p + 1 + traces[-e % 6]


def cm_j0_counts(k: int, lo: int, flags: bytearray) -> dict[int, int]:
    """#E(F_p) on y^2 = x^3 + k at every split prime p in [lo, hi) with p
    not dividing 6k, where flags[n - lo] marks the primes n < hi.

    Each such p is the norm a^2 + ab + b^2 of exactly one primary
    a + b w with b > 0 (the one primary_split returns), and a = 2,
    b = 0 (mod 3).  The walk runs over those lattice points by b, and
    over the trace c = 2a + b, since 4 N = c^2 + 3 b^2; a prime norm is
    counted at its primary, with no Cornacchia step and no primality test.
    """
    hi = lo + len(flags)
    counts = {}
    for b in range(3, isqrt((4 * hi - 1) // 3) + 1, 3):
        t = 3 * b * b
        low = 4 * lo - t  # c^2 ranges over [low, 4 hi - t)
        c_min = isqrt(low - 1) + 1 if low > 0 else 0
        c_max = isqrt(4 * hi - t - 1)
        # c = 1 (mod 3) and c = b (mod 2): a residue class mod 6, r or -r
        r = 1 if b & 1 else 4
        for c in chain(
            range(c_min + (r - c_min) % 6, c_max + 1, 6),
            range(-c_min - (-c_min - r) % 6, -c_max - 1, -6),
        ):
            n = (c * c + t) >> 2
            if flags[n - lo] and (6 * k) % n:
                counts[n] = _count_at_primary(k, n, (c - b) >> 1, b)
    return counts


# ---------------------------------------------------------------------------
# Dispatch

BACKENDS = ("auto", "naive", "bsgs", "cm")


def count_points(E: CurveFp, backend: str = "auto") -> int:
    """Count #E(F_p) with the selected backend, one of BACKENDS.

    "auto" picks by the curve: the CM formula when the reduction is
    y^2 = x^3 + k (every good prime is >= 5 there), else BSGS, which
    counts naively up to MESTRE_BOUND.  E.p is taken to be prime, as
    reduce_curve checks; no backend tests it again.
    """
    if not E.good:
        raise ValueError("bad reduction")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if backend == "naive":
        return count_points_naive(E)
    if backend != "bsgs" and (E.a1, E.a2, E.a3, E.a4) == (0, 0, 0, 0):
        return _count_cm_j0(E.a6, E.p)
    if backend == "cm":
        raise ValueError("the cm backend applies to y^2 = x^3 + k only")
    return count_points_bsgs(E)


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
        p = nextprime(p)
    return g > 1
