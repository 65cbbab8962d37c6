"""Exact arithmetic in Z[w], w = (1 + sqrt(-3))/2, and residue symbols.

The ring Z[w] is the ring of integers of Q(sqrt(-3)); w is a primitive
sixth root of unity satisfying w**2 = w - 1.  This module provides the
integer arithmetic, Euclidean division, splitting of rational primes,
the quadratic/cubic/sextic residue symbols over prime and composite
moduli, and the weak quadratic/cubic reciprocity laws that the density
computations rely on.

Python integers are arbitrary precision, so intermediate norms cannot
overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .arith import factorint, isprime


@dataclass(frozen=True)
class EisensteinInt:
    """a + b*w with w = (1 + sqrt(-3))/2.

    Multiplication uses w**2 = w - 1:
        (a + b*w)(c + d*w) = (a*c - b*d) + (a*d + b*c + b*d)*w

    >>> EisensteinInt(-4, 3).norm()
    13
    >>> EisensteinInt(0, 1) * EisensteinInt(1, -1)   # w * w^5 = 1
    EisensteinInt(a=1, b=0)
    """

    a: int
    b: int

    def __add__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        other = _coerce(other)
        return EisensteinInt(self.a + other.a, self.b + other.b)

    __radd__ = __add__

    def __sub__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        other = _coerce(other)
        return EisensteinInt(self.a - other.a, self.b - other.b)

    def __rsub__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        return _coerce(other) - self

    def __neg__(self) -> "EisensteinInt":
        return EisensteinInt(-self.a, -self.b)

    def __mul__(self, other: "EisensteinInt | int") -> "EisensteinInt":
        other = _coerce(other)
        a, b, c, d = self.a, self.b, other.a, other.b
        return EisensteinInt(a * c - b * d, a * d + b * c + b * d)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "EisensteinInt":
        if n < 0:
            raise ValueError("negative powers are not defined in Z[w]")
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def conjugate(self) -> "EisensteinInt":
        """Complex conjugate: a + b*w  ->  (a+b) - b*w."""
        return EisensteinInt(self.a + self.b, -self.b)

    def norm(self) -> int:
        return self.a * self.a + self.a * self.b + self.b * self.b

    @property
    def trace(self) -> int:
        return 2 * self.a + self.b

    def is_unit(self) -> bool:
        return self.norm() == 1

    def is_primary(self) -> bool:
        """True iff self is congruent to 2 mod 3*Z[w]."""
        return self.a % 3 == 2 and self.b % 3 == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        wterm = f"{self.b}*w"
        if self.a == 0:
            return wterm
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*w"


def _coerce(x: "EisensteinInt | int") -> EisensteinInt:
    if isinstance(x, EisensteinInt):
        return x
    if isinstance(x, int):
        return EisensteinInt(x, 0)
    raise TypeError(f"cannot interpret {x!r} as an Eisenstein integer")


ZERO = EisensteinInt(0, 0)
ONE = EisensteinInt(1, 0)
OMEGA = EisensteinInt(0, 1)
SQRT_MINUS_3 = EisensteinInt(-1, 2)  # 2w - 1, the ramified prime over 3

#: The six units w^0 .. w^5.
UNITS: tuple[EisensteinInt, ...] = (
    EisensteinInt(1, 0),
    EisensteinInt(0, 1),
    EisensteinInt(-1, 1),
    EisensteinInt(-1, 0),
    EisensteinInt(0, -1),
    EisensteinInt(1, -1),
)

_UNIT_EXP = {u: e for e, u in enumerate(UNITS)}


@dataclass(frozen=True)
class Unit6:
    """An element w^exp of the group of sixth roots of unity."""

    exp: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "exp", self.exp % 6)

    def __mul__(self, other: "Unit6") -> "Unit6":
        return Unit6(self.exp + other.exp)

    def __pow__(self, n: int) -> "Unit6":
        return Unit6(self.exp * n)

    def inverse(self) -> "Unit6":
        return Unit6(-self.exp)

    def conjugate(self) -> "Unit6":
        return Unit6(-self.exp)

    def as_eisenstein(self) -> EisensteinInt:
        return UNITS[self.exp]

    @classmethod
    def from_eisenstein(cls, u: EisensteinInt) -> "Unit6":
        try:
            return cls(_UNIT_EXP[u])
        except KeyError:
            raise ValueError(f"{u} is not a unit of Z[w]") from None

    @property
    def is_one(self) -> bool:
        return self.exp == 0

    def as_sign(self) -> int:
        """Return +1 or -1; valid only for the real units w^0, w^3."""
        if self.exp == 0:
            return 1
        if self.exp == 3:
            return -1
        raise ValueError(f"w^{self.exp} is not a real unit")

    def __str__(self) -> str:
        return f"w^{self.exp}"



def norm(x: EisensteinInt) -> int:
    """Norm form a^2 + a*b + b^2 of a + b*w."""
    return _coerce(x).norm()


def _round_quotient(num: int, den: int) -> int:
    """Nearest integer to num/den (den > 0), ties rounded toward zero."""
    q, r = divmod(num, den)
    if 2 * r > den:
        return q + 1
    if 2 * r < den:
        return q
    return q + 1 if num < 0 else q


def euclidean_div(
    x: "EisensteinInt | int", m: "EisensteinInt | int"
) -> tuple[EisensteinInt, EisensteinInt]:
    """Division with remainder: x = q*m + r with norm(r) < norm(m).

    The quotient is the lattice point nearest to x/m (coordinatewise in
    the 1, w basis, ties toward zero), which gives norm(r) <= 3/4 norm(m).
    """
    x, m = _coerce(x), _coerce(m)
    n = m.norm()
    if n == 0:
        raise ZeroDivisionError("division by zero in Z[w]")
    num = x * m.conjugate()
    q = EisensteinInt(_round_quotient(num.a, n), _round_quotient(num.b, n))
    r = x - q * m
    return q, r


def divides(m: "EisensteinInt | int", x: "EisensteinInt | int") -> bool:
    return euclidean_div(x, m)[1] == ZERO


def exact_div(x: "EisensteinInt | int", m: "EisensteinInt | int") -> EisensteinInt:
    q, r = euclidean_div(x, m)
    if r != ZERO:
        raise ValueError(f"{m} does not divide {x}")
    return q


def gcd(x: "EisensteinInt | int", y: "EisensteinInt | int") -> EisensteinInt:
    """A greatest common divisor (defined up to units)."""
    x, y = _coerce(x), _coerce(y)
    while y != ZERO:
        x, y = y, euclidean_div(x, y)[1]
    return x


def primary_associate(x: EisensteinInt) -> tuple[EisensteinInt, Unit6]:
    """The unique associate u*x with u*x = 2 mod 3*Z[w], and the unit u.

    Requires gcd(x, 3) = 1; exactly one of the six associates qualifies.
    """
    for e, u in enumerate(UNITS):
        c = u * x
        if c.is_primary():
            return c, Unit6(e)
    raise ValueError(f"{x} has no primary associate (not coprime to 3)")


def _cornacchia_3(p: int) -> tuple[int, int]:
    """Solve x^2 + 3*y^2 = p for a prime p = 1 mod 3 (Cornacchia).

    The root of -3 it starts from takes no square root: for the first
    x >= 2 that is not a cube, u = x^((p-1)/3) is a cube root of unity
    other than 1, so u^2 + u + 1 = 0 and (2u + 1)^2 = -3.  Either root
    r gives the same answer: for r < p/2, p mod (p - r) = r, so the
    remainders from (p, p - r) run through those from (p, r).
    """
    x = 2
    while (u := pow(x, (p - 1) // 3, p)) == 1:
        x += 1
    a, b = p, (2 * u + 1) % p
    limit = math.isqrt(p)
    while b > limit:
        a, b = b, a % b
    y2, rem = divmod(p - b * b, 3)
    if rem == 0:
        y = math.isqrt(y2)
        if y * y == y2:
            return b, y
    raise ValueError(f"{p} is not represented by x^2 + 3*y^2")


@lru_cache(maxsize=1 << 16)
def primary_split(p: int) -> EisensteinInt:
    """A primary prime pi of norm p, for a rational prime p = 1 mod 3.

    Of the two conjugate primary primes above p, the one with positive
    w-coordinate is returned; the conjugate is equally valid and every
    downstream quantity of interest is conjugation-invariant.
    """
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")
    if p % 3 != 1:
        raise ValueError(f"{p} does not split in Q(sqrt(-3))")
    x, y = _cornacchia_3(p)
    pi0 = EisensteinInt(x - y, 2 * y)  # x + y*sqrt(-3)
    pi, _ = primary_associate(pi0)
    return pi if pi.b > 0 else pi.conjugate()


@dataclass(frozen=True)
class PrimeIdealK:
    """A prime ideal of Z[w] away from 3, with a distinguished generator.

    kind "split": generator is a primary pi with norm(pi) = p = 1 mod 3.
    kind "inert": generator is a rational prime k = 2 mod 3 (also primary).
    """

    kind: str
    generator: EisensteinInt
    residue_norm: int

    @classmethod
    def above(cls, p: int) -> "PrimeIdealK":
        """The ideal above a rational prime p != 3 (canonical one if split)."""
        if p % 3 == 1:
            return cls("split", primary_split(p), p)
        if p % 3 == 2 and isprime(p):
            return cls("inert", EisensteinInt(p, 0), p * p)
        raise ValueError(f"no prime ideal of Z[w] away from 3 lies over {p}")

    @classmethod
    def from_generator(cls, pi: EisensteinInt) -> "PrimeIdealK":
        """Classify a prime element and normalize its generator to primary."""
        n = pi.norm()
        if n % 3 == 0:
            raise ValueError("the ramified prime over 3 is not supported")
        if isprime(n):
            prim, _ = primary_associate(pi)
            return cls("split", prim, n)
        k = math.isqrt(n)
        if k * k == n and isprime(k) and k % 3 == 2:
            return cls("inert", EisensteinInt(k, 0), n)
        raise ValueError(f"{pi} does not generate a prime ideal")

    def conjugate(self) -> "PrimeIdealK":
        if self.kind == "inert":
            return self
        return PrimeIdealK("split", self.generator.conjugate(), self.residue_norm)

    def omega_residue(self) -> int:
        """The image of w in Z[w]/(pi) = F_p, for a split ideal."""
        if self.kind != "split":
            raise ValueError("omega_residue is defined for split ideals only")
        p = self.residue_norm
        u, v = self.generator.a, self.generator.b
        return (-u * pow(v, -1, p)) % p

    def reduce(self, x: "EisensteinInt | int"):
        """Reduce an element into the residue field (int, or pair mod k)."""
        x = _coerce(x)
        if self.kind == "split":
            p = self.residue_norm
            return (x.a + x.b * self.omega_residue()) % p
        k = self.generator.a
        return (x.a % k, x.b % k)


def _pair_mul(x: tuple[int, int], y: tuple[int, int], k: int) -> tuple[int, int]:
    a, b = x
    c, d = y
    return ((a * c - b * d) % k, (a * d + b * c + b * d) % k)


def _pair_pow(x: tuple[int, int], n: int, k: int) -> tuple[int, int]:
    result = (1, 0)
    while n:
        if n & 1:
            result = _pair_mul(result, x, k)
        x = _pair_mul(x, x, k)
        n >>= 1
    return result


@lru_cache(maxsize=1 << 16)
def _split_unit_table(gen_a: int, gen_b: int, p: int) -> dict[int, int]:
    w0 = PrimeIdealK("split", EisensteinInt(gen_a, gen_b), p).omega_residue()
    table = {}
    t = 1
    for e in range(6):
        table[t] = e
        t = t * w0 % p
    return table


def sextic_symbol(alpha: "EisensteinInt | int", m: PrimeIdealK) -> Unit6:
    """The sextic residue symbol (alpha / m), a sixth root of unity.

    Defined by alpha^((N(m)-1)/6) mod m; requires alpha coprime to m.
    """
    alpha = _coerce(alpha)
    if m.residue_norm % 3 == 0:
        raise ValueError("modulus must be coprime to 3")
    if m.kind == "split":
        p = m.residue_norm
        x = m.reduce(alpha)
        if x == 0:
            raise ValueError(f"{alpha} is not coprime to the modulus")
        s = pow(x, (p - 1) // 6, p)
        return Unit6(_split_unit_table(m.generator.a, m.generator.b, p)[s])
    k = m.generator.a
    x = m.reduce(alpha)
    if x == (0, 0):
        raise ValueError(f"{alpha} is not coprime to the modulus")
    s = _pair_pow(x, (k * k - 1) // 6, k)
    for e, u in enumerate(UNITS):
        if s == (u.a % k, u.b % k):
            return Unit6(e)
    raise ValueError(f"{alpha} is not coprime to the modulus")


def ideals_above(r: int) -> tuple[PrimeIdealK, ...]:
    """The prime ideals of Z[w] over a rational prime r != 3."""
    if r % 3 == 1:
        ideal = PrimeIdealK.above(r)
        return (ideal, ideal.conjugate())
    return (PrimeIdealK.above(r),)


def _projection(degree: int) -> int:
    """The power taking a sextic symbol to the symbol of this degree."""
    if degree not in (2, 3, 6):
        raise ValueError("degree must be 2, 3 or 6")
    return 6 // degree


def symbol_composite(alpha: "EisensteinInt | int", k: int, degree: int = 6) -> Unit6:
    """Jacobi-style residue symbol (alpha / k*Z[w]) for composite k.

    The symbol is the product over the prime-ideal factorization of
    k*Z[w], with ideal powers contributing the prime symbol raised to
    the multiplicity.  degree selects the sextic (6), cubic (3), or
    quadratic (2) symbol.
    """
    power = _projection(degree)
    k = abs(k)
    if math.gcd(k, 6) != 1:
        raise ValueError("modulus must be coprime to 6")
    total = 0
    for r, e in factorint(k).items():
        for ideal in ideals_above(r):
            total += sextic_symbol(alpha, ideal).exp * e
    return Unit6(total) ** power


def eisenstein_factor(
    lam: EisensteinInt,
) -> tuple[EisensteinInt, list[tuple[EisensteinInt, int]]]:
    """Factor lam into a unit and primary prime powers (3 must not divide N(lam))."""
    n = lam.norm()
    if n == 0:
        raise ValueError("cannot factor zero")
    if n % 3 == 0:
        raise ValueError("ramified factorization over 3 is not supported")
    factors: list[tuple[EisensteinInt, int]] = []
    rem = lam
    for r in sorted(factorint(n)):
        if r % 3 == 2:
            cnt = 0
            while divides(r, rem):
                rem = exact_div(rem, r)
                cnt += 1
            if cnt:
                factors.append((EisensteinInt(r, 0), cnt))
        else:
            pi = primary_split(r)
            for cand in (pi, pi.conjugate()):
                cnt = 0
                while divides(cand, rem):
                    rem = exact_div(rem, cand)
                    cnt += 1
                if cnt:
                    factors.append((cand, cnt))
    if not rem.is_unit():
        raise ArithmeticError(f"incomplete factorization of {lam}")
    return rem, factors


def symbol_eisenstein(
    alpha: "EisensteinInt | int", lam: EisensteinInt, degree: int = 6
) -> Unit6:
    """Residue symbol (alpha / lam*Z[w]) for a general Eisenstein modulus."""
    power = _projection(degree)
    total = 0
    _, factors = eisenstein_factor(lam)
    for prm, e in factors:
        ideal = PrimeIdealK.from_generator(prm)
        total += sextic_symbol(alpha, ideal).exp * e
    return Unit6(total) ** power


def cubic_symbol(alpha: "EisensteinInt | int", m: PrimeIdealK) -> Unit6:
    """Cubic residue symbol, the square of the sextic symbol."""
    return sextic_symbol(alpha, m) ** 2


def quadratic_symbol(alpha: "EisensteinInt | int", m: PrimeIdealK) -> Unit6:
    """Quadratic residue symbol, the cube of the sextic symbol."""
    return sextic_symbol(alpha, m) ** 3


def mu3_companion(lam: EisensteinInt) -> Unit6:
    """The unique cube root of unity zeta with zeta*lam = +-1 mod 3*Z[w]."""
    for e, u in enumerate(UNITS):
        d = lam - u
        if d.a % 3 == 0 and d.b % 3 == 0:
            return Unit6(-e if e % 2 == 0 else 3 - e)
    raise ValueError(f"{lam} is not coprime to 3")


@dataclass(frozen=True)
class ReciprocityPair:
    """Both sides of the quadratic and cubic reciprocity laws."""

    quadratic_lhs: Unit6
    quadratic_rhs: Unit6
    cubic_lhs: Unit6
    cubic_rhs: Unit6

    @property
    def holds(self) -> bool:
        return (
            self.quadratic_lhs == self.quadratic_rhs
            and self.cubic_lhs == self.cubic_rhs
        )


def reciprocity_pair(k: int, lam: EisensteinInt) -> ReciprocityPair:
    """Evaluate both reciprocity laws relating (k/lam) and (lam/k).

    Quadratic: (k/lam)_2 = (-1)^(((N(lam)-1)/2)*((k-1)/2)) * (lam/k)_2.
    Cubic:     (k/lam)_3 = (zeta/k)_3 * (lam/k)_3 where zeta is the
               cube root of unity with zeta*lam = +-1 mod 3*Z[w].
    """
    if math.gcd(k, 6) != 1:
        raise ValueError("k must be coprime to 6")
    n = lam.norm()
    if math.gcd(n, 6 * abs(k)) != 1:
        raise ValueError("lam must be coprime to 6k")
    quad_lhs = symbol_eisenstein(k, lam, degree=2)
    sign_exp = ((n - 1) // 2) * ((k - 1) // 2) % 2
    quad_rhs = Unit6(3 * sign_exp) * symbol_composite(lam, k, degree=2)
    cubic_lhs = symbol_eisenstein(k, lam, degree=3)
    zeta = mu3_companion(lam)
    cubic_rhs = symbol_composite(zeta.as_eisenstein(), k, degree=3) * symbol_composite(
        lam, k, degree=3
    )
    return ReciprocityPair(quad_lhs, quad_rhs, cubic_lhs, cubic_rhs)
