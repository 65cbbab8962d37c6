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
  the parity comes from :func:`two_division_roots`, one Legendre symbol
  and, when the discriminant is a residue, a Lucas sequence;
* the CM formula for y^2 = x^3 + k via the sextic residue symbol,
  exposed as :func:`count_points_cm_j0`.

The CM formula counts p + 1 points at an inert p and p + 1 - tr psi at
a split p, for the Hecke character psi = -(4k/pi)_6^(-1) pi of
:func:`grossencharacter_j0`, which :func:`count_points_cm_j0` and
``count_points`` evaluate one prime at a time: at the pi of
``primary_split`` with the symbol of ``sextic_symbol``.  Over a window,
:func:`cm_j0_counts` evaluates the same psi at each primary pi whose
norm a sieve marks prime, with the symbol by reciprocity from tables of
pi modulo the primes of 6k, and a modular power for the primes of k too
large for them.  A census takes it for each segment of y^2 = x^3 + k
under ``cm`` and ``auto``, and the one-prime route only beyond the
window.

:func:`check_backend` alone turns a backend name into a route: ``auto``
is the CM formula on y^2 = x^3 + k, else BSGS (naive up to p = 229).
A census, ``aliquot``'s type maps and :func:`torsion_obstruction` ask
it once about the curve over Q, and :func:`count_points` about its
reduction, where a route names itself again; only a bare ``CurveFp``
caller's ``auto`` is decided mod p (CM on y^2 = x^3 + 7x + 2 at p = 7).

A search that needs #E(F_p) only when it is prime asks no backend:
:func:`first_annihilator` runs the same baby and giant steps on one
point of E until the first N of the Hasse window with N P = O, which is
#E(F_p) when N is prime and shows it composite otherwise.  Nor does the
prime-order certificate of ``aliquot._verify_step``:
:func:`x_only_annihilates` decides N P = O for a prime N by a ladder on
x(P) alone, which no backend calls.

All backends agree wherever their domains overlap, and the test suite
enforces that.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, compress
from math import gcd, isqrt

from .arith import isprime, nextprime
from .cm_density import _sextic_exponent_table
from .eisenstein import UNITS, EisensteinInt, PrimeIdealK, primary_split, sextic_symbol

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


def _short_coefficients(a1: int, a2: int, a3: int, a4: int, a6: int):
    """(A, B) of a short model y^2 = x^3 + Ax + B: (a4, a6) when a1, a2
    and a3 vanish, else the classical A = -27 c4, B = -54 c6."""
    if a1 == 0 and a2 == 0 and a3 == 0:
        return a4, a6
    c4, c6 = _c_invariants(a1, a2, a3, a4, a6)
    return -27 * c4, -54 * c6


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
        return self._discriminant

    @cached_property
    def _discriminant(self) -> int:
        b2, b4, b6, b8 = self.b_invariants()
        return -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 * b6 + 9 * b2 * b4 * b6

    def has_good_reduction(self, p: int) -> bool:
        return self.discriminant() % p != 0

    def short_model(self) -> tuple[int, int]:
        """Integers (A, B) whose reductions mod every p >= 5 are those of
        CurveFp.short_model: y^2 = x^3 + Ax + B is isomorphic to E there."""
        return _short_coefficients(self.a1, self.a2, self.a3, self.a4, self.a6)

    def is_mordell(self) -> bool:
        return (self.a1, self.a2, self.a3, self.a4) == (0, 0, 0, 0)

    def __str__(self) -> str:
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
        return f"{lhs} = {rhs}"


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
    is_mordell = CurveQ.is_mordell  # y^2 = x^3 + k mod p

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
        A, B = _short_coefficients(self.a1, self.a2, self.a3, self.a4, self.a6)
        return A % self.p, B % self.p


def two_division_roots(p: int, A: int, B: int) -> int:
    """The roots in F_p of the 2-division cubic x^3 + Ax + B of a short
    model: 1, 0 or 3, the points of order 2 in E(F_p) (good reduction,
    p >= 5, and A, B reduced mod p).

    The cubic has distinct roots, so its discriminant -4A^3 - 27B^2 is a
    non-residue exactly when it has one root: Schoof's case l = 2.
    Otherwise it has 0 or 3, and Cardano tells which.  Its roots are
    u + v with uv = -A/3, where u^3 and v^3 are the roots z, z' of the
    resolvent z^2 + Bz - A^3/27; the cubic splits exactly when z is a
    cube, in F_p when p = 1 (mod 3), else in F_{p^2}, where z' = z^p.
    As zz' = (-A/3)^3, z is a cube exactly when alpha = z'/z is, that is
    when alpha^n = 1 for n = (p - 1)/3 or (p + 1)/3, since alpha lies in
    a cyclic group of order 3n: F_p^* or the kernel of the norm.  With
    alpha + 1/alpha = P = -27B^2/A^3 - 2, alpha^n + alpha^-n is the
    Lucas term V_n(P, 1), and alpha^n = 1 exactly when V_n = 2: a ladder
    of 2 products per bit of n.  For A = 0 the roots are the cube roots
    of -B.
    """
    if pow(-4 * A * A * A - 27 * B * B, (p - 1) // 2, p) == p - 1:
        return 1
    n = (p + 1) // 3 if p % 3 == 2 else (p - 1) // 3
    if A == 0:  # then p = 1 (mod 3), as the discriminant -27B^2 is a residue
        return 3 if pow(-B, n, p) == 1 else 0
    P = (-27 * B * B * pow(A * A * A, -1, p) - 2) % p
    v, w = P, (P * P - 2) % p  # V_k, V_k+1 for k = 1, the top bit of n
    for bit in bin(n)[3:]:
        if bit == "1":
            v, w = (v * w - P) % p, (w * w - 2) % p
        else:
            v, w = (v * v - 2) % p, (v * w - P) % p
    return 3 if v == 2 else 0


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


def x_only_annihilates(p: int, A: int, B: int, N: int, x: int) -> bool:
    """Whether N P = O for a point P = (x, y) of y^2 = x^3 + Ax + B over
    F_p (p >= 5), given by x alone, for an odd prime N.

    A Montgomery ladder on (X : Z) keeps R0 = mP and R1 = (m + 1)P for
    the leading bits m of N, with Brier and Joye's doubling
    X' = (X^2 - A Z^2)^2 - 8B X Z^3, Z' = 4Z (X^3 + A X Z^2 + B Z^3), and
    their additive differential addition, since R1 - R0 = P:
    x(R0 + R1) = (2 (x0 + x1)(x0 x1 + A) + 4B) / (x0 - x1)^2 - x, which
    holds at x = 0 too, where the multiplicative form loses every
    multiple.  The formulas are exact while no multiple is O.  An
    intermediate Z = 0 is a multiple mP = O with 0 < m < N, so ord(P) is
    below N and does not divide the prime N: N P != O.
    """
    B4, B8 = 4 * B, 8 * B
    X0, Z0 = x, 1
    xx = x * x
    X1 = ((xx - A) ** 2 - B8 * x) % p  # R1 = 2P
    Z1 = 4 * (xx * x + A * x + B) % p
    for bit in bin(N)[3:]:
        if not Z0 or not Z1:
            return False
        # R0 + R1 from its difference P; then R1 doubles for a 1 bit and
        # R0 for a 0 bit, which keeps R1 - R0 = P
        u, v = X0 * Z1, X1 * Z0
        zz = Z0 * Z1
        d = (u - v) ** 2 % p
        Xs = (2 * (u + v) * (X0 * X1 + A * zz) + B4 * zz * zz - x * d) % p
        if bit == "1":
            XX, ZZ, XZ = X1 * X1, Z1 * Z1, X1 * Z1
            X1 = ((XX - A * ZZ) ** 2 - B8 * XZ * ZZ) % p
            Z1 = 4 * (XZ * (XX + A * ZZ) + B * ZZ * ZZ) % p
            X0, Z0 = Xs, d
        else:
            XX, ZZ, XZ = X0 * X0, Z0 * Z0, X0 * Z0
            X0 = ((XX - A * ZZ) ** 2 - B8 * XZ * ZZ) % p
            Z0 = 4 * (XZ * (XX + A * ZZ) + B * ZZ * ZZ) % p
            X1, Z1 = Xs, d
    return not Z0


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


def _order_candidates(
    p: int, A: int, P, H: int, parity: int, first: bool = False
) -> set:
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

    With first, the search returns a nonempty subset of these N: the
    first that a giant step meets, or all of them when the baby steps
    reveal ord(Q).  For p >= 37 any one of them is #E if prime, and
    shows #E composite otherwise (see first_annihilator).
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
                if first:
                    return found
            R = xT, yT
            continue
        x, y = R
        j = baby.get(x)
        if j is not None:
            t = parity + 2 * (iS + j if y == table[j][1] else iS - j)
            if -H <= t <= H:
                found.add(p + 1 - t)
                if first:
                    return found
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
    2-division cubic has no root in F_p (two_division_roots), even
    otherwise.  Every twist shares that parity, since 2p + 2 - N = N
    (mod 2); equally, its cubic's roots are f times those of E's.
    """
    if not E.good:
        raise ValueError("bad reduction")
    p = E.p
    if p <= MESTRE_BOUND:
        return count_points_naive(E)
    A, B = E.short_model()
    parity = 0 if two_division_roots(p, A, B) else 1
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


def first_annihilator(p: int, A: int, B: int) -> int:
    """An N in the Hasse window with N P = O, for a point P of
    E: y^2 = x^3 + Ax + B over F_p itself: #E(F_p) = N when N is prime,
    and #E(F_p) is composite otherwise.

    For p >= 37, A and B reduced mod p, and a good E whose 2-division
    cubic has no root, so that #E(F_p) is odd.  P is (xf, f^2) for the
    first x whose f = x^3 + Ax + B is a nonzero square, a point of
    y^2 = x^3 + Af^2 x + Bf^3, which is E again, and the search stops at
    its first odd N (_order_candidates with first).  If N is prime, then
    ord(P) = N, and N is the only multiple of N in the window, which is
    4 sqrt(p) < N wide: #E(F_p) = N.  If N is composite and #E(F_p) were
    a prime M, then ord(P) = M would divide N, so N = M.  An order that
    the baby steps reveal lies below the window and divides #E(F_p),
    which is then composite, as is every N of the set returned for it.
    """
    for x in range(p):
        f = (x * x * x + A * x + B) % p
        if f and pow(f, (p - 1) // 2, p) == 1:
            break
    P = (x * f % p, f * f % p)
    return _order_candidates(p, A * f * f % p, P, isqrt(4 * p), 1, True).pop()


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
    e = sextic_symbol(4 * k, PrimeIdealK(pi))
    return -UNITS[-e % 6] * pi


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
    return p + 1 - grossencharacter_j0(k, p).trace


def _symbol_exponent(x: int, p: int, a: int, b: int) -> int:
    """The e with (x/pi)_6 = w^e for pi = a + b w of prime norm p not
    dividing x: w = -a/b (mod pi), and x^((p-1)/6) = w^e (mod p).
    cm_j0_counts' cofactor power; sextic_symbol, which caches w's powers
    per prime, took a k = 458759 density row to 10^6 from 0.19 to 0.45 s
    and 17 to 44 MiB (one worker, 2-core x86-64, Python 3.11)."""
    w = -a * pow(b, -1, p) % p
    s = pow(x, (p - 1) // 6, p)
    t = 1
    for e in range(6):
        if t == s:
            return e
        t = t * w % p
    raise ArithmeticError(f"{a}+{b}*w is not a primary prime over {p}")


def _reciprocity_tables(k: int, width: int):
    """Tables that give e in (4k/pi)_6 = w^e from pi = a + b w modulo the
    primes of 6k, for a primary pi whose norm p does not divide 6k.  The
    primes r >= 5 of k get a table each, from the least up, while their
    squares r^2 sum to at most width, so that the tables of a window of
    that width hold no more bytes than its sieve; k is split by trial
    division up to that bound.  A table takes a walk of O(r) steps and
    r^2 bytes of slicing.  The primes of k that do not fit are left in
    the cofactor m.

    Returns (by_p, by_ab, rows, m), and e = by_p[p % 72] + by_ab[b % 2][(a
    + b) % 18] + the sum of v T[(a % r) r + b % r] over rows (r, v, T) +
    the exponent of (m/pi)_6, mod 6.  The symbol is a product over the
    prime powers of 4k, and each factor but (m/pi)_6 is a reciprocity law
    (Ireland and Rosen, ch. 5 and ch. 9 sec. 3-4).  With u = w^2, a cubic
    symbol u^y adds 4y to e, and a quadratic symbol -1 adds 3:
    - r >= 5 with r^v || k: (r/pi)_3 = (pi/r)_3 and (r/p) = (p/r), times
      -1 when r = p = 3 (mod 4); T = cm_density._sextic_exponent_table(r)
      holds both symbols of pi mod r;
    - 2^(v2 + 2): (2/pi)_3 = (pi/2)_3 = u^c2, the cube root of unity
      = pi (mod 2), so c2 = 0, 2, 1 at (a, b) = (1, 0), (0, 1), (1, 1)
      (mod 2), and (2/p) = -1 iff p = +-3 (mod 8);
    - 3^v3: 3 = -u^2 (1 - u)^2, so (3/pi)_3 = u^(2 (p-1)/3 + 4j), from
      (u/pi)_3 = u^((p-1)/3) and the supplement ((1 - u)/pi)_3 = u^(2j)
      with j = (a + b + 1)/3, and (3/p) = -1 iff p = 3 (mod 4);
    - the sign: (-1/pi)_6 = (-1)^((p-1)/6) is -1 iff p = 3 (mod 4).
    """
    n = abs(k)
    v2 = (n & -n).bit_length() - 1
    n >>= v2
    v3 = 0
    while n % 3 == 0:
        n //= 3
        v3 += 1
    # odd r from 5 up: a composite r finds its primes divided out
    fac, room, r = {}, width, 5
    while n > 1 and r * r <= room:
        v = 0
        while n % r == 0:
            n //= r
            v += 1
        if v:
            fac[r] = v
            room -= r * r
        r += 2
    # how many of the quadratic factors are -1 exactly when p = 3 (mod 4)
    odd4 = sum(v for r, v in fac.items() if r % 4 == 3) + v3 + (k < 0)
    by_p = tuple(
        3 * odd4 * (m % 4 == 3)
        + 3 * v2 * (m % 8 in (3, 5))
        + 8 * v3 * ((m % 9 - 1) // 3)
        for m in range(72)
    )
    c2 = {(1, 0): 0, (0, 1): 2, (1, 1): 1, (0, 0): 0}  # (0, 0): p is odd
    by_ab = tuple(
        tuple(
            4 * (v2 + 2) * c2[(s - b2) % 2, b2] + 4 * v3 * ((s + 1) % 9 // 3)
            for s in range(18)
        )
        for b2 in (0, 1)
    )
    rows = [(r, v, _sextic_exponent_table(r)) for r, v in fac.items()]
    return by_p, by_ab, rows, n  # the primes of n have r^2 > room


def cm_j0_counts(k: int, lo: int, flags: bytearray) -> dict[int, int]:
    """#E(F_p) on y^2 = x^3 + k at every prime p in [lo, hi) with p not
    dividing 6k, where flags[n - lo] marks the primes n < hi.

    An inert p = 2 (mod 3) is supersingular, with p + 1 points.  A split
    p is the norm a^2 + ab + b^2 of exactly one primary a + b w with
    b > 0 (the one primary_split returns), and a = 2, b = 0 (mod 3).
    The walk runs over those lattice points by b, and over the trace
    c = 2a + b, since 4 N = c^2 + 3 b^2; a prime norm is counted at its
    primary, with no Cornacchia step and no primality test.  So c = 1
    (mod 3) and c = b (mod 2).  An odd b gives an odd N at every such c,
    one class mod 6.  An even b = 2 beta, c = 2 gamma gives N = gamma^2
    + 3 beta^2, odd only when gamma and beta differ in parity: c = 4
    (mod 12) when beta is odd, c = 10 (mod 12) when beta is even, and
    the other half of the class mod 6 is skipped, as an even N is never
    a prime norm (2 is inert).  The symbol (4k/pi)_6 = w^e comes from
    _reciprocity_tables, by lookups on pi mod the primes of 6k, times
    (m/pi)_6 for the cofactor m of the primes of k too large for the
    window's tables, by one modular power when m > 1; the trace is then
    that of psi = -w^(-e) pi.
    """
    hi = lo + len(flags)
    k6 = 6 * k
    first = lo + (2 - lo) % 3  # the least n >= lo with n = 2 (mod 3)
    inert = list(compress(range(first, hi, 3), flags[first - lo :: 3]))
    counts = dict(zip(inert, [n + 1 for n in inert]))
    by_p, by_ab, rows, m = _reciprocity_tables(k, len(flags))
    for b in range(3, isqrt((4 * hi - 1) // 3) + 1, 3):
        t = 3 * b * b
        low = 4 * lo - t  # c^2 ranges over [low, 4 hi - t)
        c_min = isqrt(low - 1) + 1 if low > 0 else 0
        c_max = isqrt(4 * hi - t - 1)
        if b & 1:
            r, step = 1, 6
        else:
            r, step = (4 if b & 2 else 10), 12
        by_a = by_ab[b & 1]
        rows_b = [(q, v, T[b % q :: q]) for q, v, T in rows]
        for c in chain(
            range(c_min + (r - c_min) % step, c_max + 1, step),
            range(-c_min - (-c_min - r) % step, -c_max - 1, -step),
        ):
            n = (c * c + t) >> 2
            if flags[n - lo] and k6 % n:
                a = (c - b) >> 1
                e = by_p[n % 72] + by_a[(a + b) % 18]
                for q, v, row in rows_b:
                    e += v * row[a % q]
                if m > 1:
                    e += _symbol_exponent(m, n, a, b)
                # tr(w^j pi) for j = -e: 2a + b = c, a - b, -a - 2b, negated
                # for j = 3, 4, 5 (mod 6)
                j = -e % 6
                tr = c if j % 3 == 0 else a - b if j % 3 == 1 else -a - b - b
                counts[n] = n + 1 + tr if j < 3 else n + 1 - tr
    if abs(k6) >= lo:
        for n in [n for n in inert if k6 % n == 0]:
            del counts[n]
    return counts


# ---------------------------------------------------------------------------
# Dispatch

BACKENDS = ("auto", "naive", "bsgs", "cm")


def check_backend(E: CurveQ | CurveFp, backend: str) -> str:
    """The route, naive, bsgs or cm, that backend names on E: auto is cm
    on y^2 = x^3 + k, else bsgs.  Other names, and cm elsewhere, are refused."""
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    if backend in ("naive", "bsgs"):
        return backend
    if E.is_mordell():
        return "cm"
    if backend == "cm":
        raise ValueError("the cm backend applies to y^2 = x^3 + k only")
    return "bsgs"


def count_points(E: CurveFp, backend: str = "auto") -> int:
    """Count #E(F_p) by the route check_backend gives on E, with BSGS
    naive up to MESTRE_BOUND.  E.p is taken to be prime, as reduce_curve
    checks, and good reduction is checked by each backend."""
    route = check_backend(E, backend)
    if route == "cm":
        return _count_cm_j0(E.a6, E.p)
    return count_points_naive(E) if route == "naive" else count_points_bsgs(E)


def torsion_obstruction(E: CurveQ, primes_to_check: int = 20) -> bool:
    """True iff the counts mod many primes share a factor > 1.

    A common divisor d > 1 of #E(F_p) across all good p (forced by
    rational torsion) prevents #E(F_p) from being prime for all but
    finitely many p, so curves with this obstruction are hopeless for
    amicable-pair searches.
    """
    route = check_backend(E, "auto")
    g = 0
    p, seen = 5, 0
    while seen < primes_to_check:
        if E.has_good_reduction(p):
            g = gcd(g, count_points(reduce_curve(E, p), route))
            seen += 1
            if g == 1:
                return False
        p = nextprime(p)
    return g > 1
