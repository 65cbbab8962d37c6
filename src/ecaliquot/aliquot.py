"""Amicable pairs, aliquot cycles, and the CM trace dichotomy.

An amicable pair of a curve E/Q is a pair of good primes (p, q) with
#E(F_p) = q and #E(F_q) = p; an aliquot cycle of length L chains the
counting map through L distinct primes and back.  For CM curves the
possible values of #E(F_q) given #E(F_p) = q collapse to two, and for
j = 0 the sextic residue symbol decides between them; the helpers at
the bottom of the module implement those dichotomies exactly.

Every search folds over one walk, which counts only what a cycle
needs: a prime image.  Two tests of the 2-torsion of E(F_p) stop it
without counting.  When the discriminant is a non-residue mod p >= 7,
E(F_p) has exactly one point of order 2, so #E(F_p) is even and
composite.  Otherwise the 2-division cubic has 0 or 3 roots in F_p,
and x^p mod the cubic tells which; with 3, E(F_p) contains (Z/2)^2,
so 4 divides #E(F_p).  With none, #E(F_p) is odd, and the count that
follows searches odd orders only.  Found cycles and pairs are
re-verified by a prime-order certificate that shares no code with the
counting backends.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .arith import factorint, isprime, primes_in_range, sqrt_mod_prime
from .curves_mod_p import (
    BACKENDS,
    CurveFp,
    CurveQ,
    _count_tiny,
    _reduce,
    count_points,
    count_points_cm_j0,
    count_points_naive,
    ec_mul,
    grossencharacter_j0,
    reduce_curve,
)
from .eisenstein import (
    EisensteinInt,
    PrimeIdealK,
    Unit6,
    primary_associate,
    primary_split,
    sextic_symbol,
)


def _even_count(disc: int, r: int) -> bool:
    """Whether #E(F_r) is known to be even, hence composite, uncounted.

    For a good odd prime r the 2-division polynomial has discriminant
    16 disc; a non-residue leaves it exactly one root in F_r, so E(F_r)
    has one point of order 2.  r >= 7 makes #E(F_r) >= r + 1 - 2 sqrt(r)
    exceed 2 (y^2 = x^3 + 2x has #E(F_5) = 2).
    """
    return r >= 7 and pow(disc % r, (r - 1) // 2, r) == r - 1


class _Counter:
    """Memoized point counter for one curve and backend.

    It is called only with primes (from the sieve, or images that have
    passed isprime), so it reduces and counts without testing them again.
    It checks the backend once, and holds disc, the discriminant of E.
    """

    def __init__(self, E: CurveQ, backend: str = "auto"):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self.E = E
        self.backend = backend
        self.disc = E.discriminant()
        self.memo: dict[int, int] = {}
        # Reductions that full_two_torsion has tested, kept for their count.
        self._tested: dict[int, CurveFp] = {}

    def __call__(self, p: int) -> int:
        v = self.memo.get(p)
        if v is None:
            Ep = self._tested.pop(p, None) or _reduce(self.E, p)
            v = count_points(Ep, self.backend)
            self.memo[p] = v
        return v

    def image(self, p: int) -> int:
        """The aliquot step from a good prime p: #E(F_p), or 0 when
        _even_count or full_two_torsion proves it composite uncounted.
        A memoized count skips both tests; new counts go through self(p).
        """
        q = self.memo.get(p)
        if q is None:
            if _even_count(self.disc, p) or self.full_two_torsion(p):
                return 0
            q = self(p)
        return q

    def full_two_torsion(self, p: int) -> bool:
        """Whether E(F_p) contains all of E[2] = (Z/2)^2, so that 4
        divides #E(F_p), which is then composite uncounted (p >= 5).

        The test after _even_count: the reduction keeps the root count
        of its 2-division cubic, and the count of p reuses it.
        """
        if p < 5:
            return False
        Ep = _reduce(self.E, p)
        if Ep.two_division_roots == 3:
            return True
        self._tested[p] = Ep
        return False


def next_value(E: CurveQ, p: int, backend: str = "auto") -> int | None:
    """The aliquot step: q = #E(F_p) if q is a prime of good reduction.

    Returns None when the walk stops (q composite or bad reduction at q).
    """
    if p < 2 or not isprime(p):
        raise ValueError(f"{p} is not prime")
    count = _Counter(E, backend)
    if count.disc % p == 0:
        raise ValueError(f"bad reduction at {p}")
    q = count.image(p)
    return q if isprime(q) and count.disc % q else None


@dataclass(frozen=True)
class AliquotCycle:
    """An aliquot cycle, normalized to start at its smallest prime."""

    primes: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(set(self.primes)) != len(self.primes):
            raise ValueError("cycle members must be distinct")
        if self.primes and self.primes[0] != min(self.primes):
            raise ValueError("cycle must be normalized to start at its minimum")

    @property
    def length(self) -> int:
        return len(self.primes)

    @classmethod
    def normalize(cls, primes: tuple[int, ...]) -> "AliquotCycle":
        i = primes.index(min(primes))
        return cls(primes[i:] + primes[:i])


def _random_point(p: int, A: int, B: int, rng: random.Random):
    """A point of y^2 = x^3 + Ax + B at an x drawn from rng."""
    while True:
        x = rng.randrange(p)
        f = (x * x * x + A * x + B) % p
        if f == 0:
            return x, 0
        if pow(f, (p - 1) // 2, p) == 1:
            return x, sqrt_mod_prime(f, p)


def _verify_step(E: CurveQ, p: int, N: int) -> bool:
    """Whether #E(F_p) = N, for a good prime p and a prime N.

    A prime-order certificate, independent of every counting backend:
    N must lie in the Hasse window, and a seeded affine point P of the
    short model must satisfy N P = O.  Then ord(P) = N, as N is prime
    and P != O, and N is the only multiple of N in the window, which is
    4 sqrt(p) < N wide; conversely #E(F_p) = N forces N P = O.  Only
    p < 37 can have N <= 4 sqrt(p); those are counted exactly.
    """
    if (N - p - 1) ** 2 > 4 * p:
        return False
    Ep = _reduce(E, p)
    if p < 5 or N * N <= 16 * p:
        return count_points_naive(Ep) == N
    A, B = Ep.short_model()
    P = _random_point(p, A, B, random.Random(f"verify:{A}:{B}:{p}"))
    return ec_mul(p, A, N, P) is None


def verify_cycle(E: CurveQ, primes: tuple[int, ...]) -> bool:
    """Re-check a purported aliquot cycle with the prime-order certificate."""
    L = len(primes)
    if L == 0 or len(set(primes)) != L:
        return False
    if not all(isprime(p) and E.has_good_reduction(p) for p in primes):
        return False
    return all(
        _verify_step(E, p, primes[(i + 1) % L]) for i, p in enumerate(primes)
    )


def _verified(E: CurveQ, primes: tuple[int, ...]) -> tuple[int, ...]:
    """primes, once verify_cycle confirms them; ArithmeticError if not."""
    if not verify_cycle(E, primes):
        raise ArithmeticError(f"cycle {primes} failed independent recount")
    return primes


def _walk(
    count: _Counter, p: int, length: int, floor: int = 0
) -> tuple[list[int], int | None]:
    """The aliquot walk p = p_1 -> p_2 -> ... through at most length primes.

    Each p_{i+1} = #E(F_{p_i}) is a prime that is new to the walk and
    >= floor.  The walk steps only from primes of good reduction, so
    only its last prime can be bad.  Each step is count.image.  Returns
    (walk, stop): stop is the image that ended the walk early (0 when
    count.image proves it composite without counting it), or None when
    the walk reached length primes or a bad prime; callers only compare
    stop with p.  Every search and sweep folds over it.
    """
    walk = [p]
    while len(walk) < length and count.disc % walk[-1]:
        q = count.image(walk[-1])
        if not q or q < floor or q in walk or not isprime(q):
            return walk, q
        walk.append(q)
    return walk, None


def _closed_walks(E: CurveQ, length: int, lo: int, X: int, backend: str):
    """Walks from good p in [lo, X] that return to p after length primes.

    The floor p prunes each walk at its first image below p, so every
    closed walk is found once, from its smallest prime.
    """
    count = _Counter(E, backend)
    for p in primes_in_range(lo, X + 1):
        if count.disc % p:
            walk, stop = _walk(count, p, length + 1, floor=p)
            if stop == p and len(walk) == length:
                yield tuple(walk)


def aliquot_cycles_up_to(
    E: CurveQ, length: int, X: int, backend: str = "auto"
) -> list[AliquotCycle]:
    """All aliquot cycles of exact length whose smallest prime is <= X.

    Every returned cycle has been re-verified by verify_cycle, which
    shares no code with the counting backends.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    return [
        AliquotCycle(_verified(E, primes))
        for primes in _closed_walks(E, length, 2, X, backend)
    ]


def amicable_pairs_up_to(
    E: CurveQ, X: int, backend: str = "auto"
) -> list[tuple[int, int]]:
    """All amicable pairs (p, q), p < q, with p <= X, ordered by p.

    Both primes must be >= 5 and of good reduction; q itself may
    exceed X.  Every pair is re-verified like a cycle.
    """
    return [_verified(E, pq) for pq in _closed_walks(E, 2, 5, X, backend)]


def chain_count(E: CurveQ, length: int, X: int, backend: str = "auto") -> int:
    """The number of aliquot chains (p_1, ..., p_L) with p_1 <= X.

    A chain consists of distinct primes with #E(F_{p_i}) = p_{i+1};
    p_1 must have good reduction (as must every prime that is stepped
    from), but the final prime is only required to be prime and new.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    count = _Counter(E, backend)
    return sum(
        len(_walk(count, p, length)[0]) == length
        for p in primes_in_range(2, X + 1)
        if count.disc % p
    )


# ---------------------------------------------------------------------------
# CM dichotomies

def cm_next_values(p: int, q: int) -> tuple[int, int]:
    """The two possible values of #E(F_q) when #E(F_p) = q, for CM j != 0."""
    return (p, 2 * q + 2 - p)


def recursion_term(p: int, q: int, i: int) -> int:
    """The i-th term of A_1 = p, A_2 = q, A_i = 2 A_{i-1} + 2 - A_{i-2}."""
    if i < 1:
        raise ValueError("i must be >= 1")
    return (i - 1) * q - (i - 2) * p + (i - 1) * (i - 2)


def candidate_traces_j0(p: int, q: int) -> tuple[int, tuple[int, ...]]:
    """The six possible a_q when #E(F_p) = q on a j = 0 CM curve.

    Writing psi(p) = (a_p + A sqrt(-3))/2, the constraint |1 - psi|^2 = q
    forces 3 A^2 = 2pq + 2p + 2q - p^2 - q^2 - 1, and a_q is one of
    +-(q+1-p) or (+-(q+1-p) +- 3A)/2.
    """
    num = 2 * p * q + 2 * p + 2 * q - p * p - q * q - 1
    if num < 0 or num % 3 != 0:
        raise ValueError(f"({p}, {q}) is not a j = 0 aliquot step")
    a2 = num // 3
    from math import isqrt

    A = isqrt(a2)
    if A * A != a2:
        raise ValueError(f"({p}, {q}) is not a j = 0 aliquot step")
    s = q + 1 - p
    half = []
    for sgn_s in (s, -s):
        for sgn_a in (3 * A, -3 * A):
            v, r = divmod(sgn_s + sgn_a, 2)
            if r:
                raise ValueError(f"({p}, {q}) gives non-integral traces")
            half.append(v)
    return A, (s, -s, *half)


@dataclass(frozen=True)
class TypeOneVerdict:
    """The classification of p in N_k as Type 1 or Type 2.

    Type 1 means a_q = epsilon (q + 1 - p) with epsilon = +-1, which
    happens exactly when the symbol product (k/p)(k/q) is real.
    """

    p: int
    q: int
    a_q: int
    is_type1: bool
    epsilon: int  # +1 or -1 for Type 1, else 0
    symbol: Unit6  # the product (k/p)_6 (k/q)_6


def classify_type1(k: int, p: int) -> TypeOneVerdict:
    """Classify p (in N_k for y^2 = x^3 + k) via two independent routes.

    The trace route computes a_q directly from the CM count at q; the
    symbol route evaluates (k/p)(k/q).  The two must agree, and beyond
    the boolean the exact identity
        a_q = Tr( [(k/p)(k/q)]^{-1} (1 - psi(p)) )
    is asserted.
    """
    psi = grossencharacter_j0(k, p)  # validates p split, p >= 5, p good
    q = p + 1 - psi.trace
    if not isprime(q) or (6 * k) % q == 0:
        raise ValueError(f"{p} is not in N_k: #E(F_p) = {q} must be a good prime")
    a_q = q + 1 - count_points_cm_j0(k, q)

    one_minus = EisensteinInt(1, 0) - psi
    q_gen, _ = primary_associate(one_minus)
    p_ideal = PrimeIdealK("split", primary_split(p), p)
    q_ideal = PrimeIdealK("split", q_gen, q)
    u = sextic_symbol(EisensteinInt(k, 0), p_ideal) * sextic_symbol(
        EisensteinInt(k, 0), q_ideal
    )

    predicted = (u.inverse().as_eisenstein() * one_minus).trace
    if predicted != a_q:
        raise ArithmeticError(
            f"symbol and trace routes disagree at p={p}: {predicted} != {a_q}"
        )
    is_type1 = u.exp % 3 == 0
    s = q + 1 - p
    if is_type1 != (a_q in (s, -s)):
        raise ArithmeticError(f"type classification inconsistent at p={p}")
    return TypeOneVerdict(p, q, a_q, is_type1, u.as_sign() if is_type1 else 0, u)


def j0_triple_case_values(p: int, q: int) -> dict[str, int]:
    """Eight case polynomials whose vanishing a j = 0 aliquot triple forces.

    A triple (p, q, r) on y^2 = x^3 + k leads, case by case, to one of
    these integer expressions being zero; all eight are positive for
    11 <= p and admissible q, which rules the triples out.
    """
    return {
        "2A+": 28 * p**2 - 24 * p * q + 12 * q**2 - 72 * p - 24 * q + 48,
        "2A-": 12 * p**2 - 24 * p * q + 28 * q**2 - 24 * p - 40 * q + 16,
        "1B+": 12 * p**2 - 12 * p * q + 4 * q**2 - 24 * p + 12,
        "1B-": 4 * p**2 - 4 * p * q + 4 * q**2 + 12,
        "2B++": 4 * p**4 + 2 * p**3 * q + 3 * p**2 * q**2 - p * q**3 + q**4
        - 6 * p**3 - 15 * p**2 * q - 15 * p * q**2 + 3 * p**2 + 3 * p * q
        + 3 * q**2,
        "2B+-": 9 * p**2 * q**2 - 9 * p * q**3 + 9 * q**4 + 9 * p**2 * q
        - 27 * p * q**2 + 3 * p**2 - 21 * p * q - 3 * q**2 - 6 * p + 6 * q + 4,
        "2B-+": 3 * p**2 * q**2 - 3 * p * q**3 + q**4 + 9 * p**2 * q
        - 9 * p * q**2 + 9 * p**2 - 9 * p * q + 3 * q**2,
        "2B--": 4 * p**4 - 18 * p**3 * q + 33 * p**2 * q**2 - 27 * p * q**3
        + 9 * q**4 - 10 * p**3 + 33 * p**2 * q - 21 * p * q**2 + 21 * p**2
        - 21 * p * q - 3 * q**2 - 10 * p + 6 * q + 4,
    }


# ---------------------------------------------------------------------------
# The maps n -> #E(Z/nZ) (two flavors) and their orbits

def bad_trace(E: CurveQ, p: int) -> int:
    """a_p at a prime of bad reduction: 0 additive, +-1 multiplicative."""
    if E.has_good_reduction(p):
        raise ValueError(f"{p} is a prime of good reduction")
    if p >= 5:
        Ep = reduce_curve(E, p)
        A, B = Ep.short_model()
        if A == 0 and B == 0:
            return 0
        # Double root x0 of x^3 + Ax + B; the node splits iff 3*x0 is square.
        x0 = -3 * B * pow(2 * A, -1, p) % p
        return 1 if pow(3 * x0 % p, (p - 1) // 2, p) == 1 else -1
    # p = 2 or 3: the one singular point is rational, so the smooth
    # points number one fewer than all points, and a_p = p - that.
    return p + 1 - _count_tiny(_reduce(E, p))


def _a_prime_power(E: CurveQ, p: int, e: int, backend: str) -> int:
    if not E.has_good_reduction(p):
        return bad_trace(E, p) ** e
    ap = p + 1 - _Counter(E, backend)(p)
    prev, cur = 1, ap
    for _ in range(e - 1):
        prev, cur = cur, ap * cur - p * prev
    return cur


def l_series_coefficient(E: CurveQ, n: int, backend: str = "auto") -> int:
    """The n-th Dirichlet coefficient a_n of L(E, s)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    for p, e in factorint(n).items():
        result *= _a_prime_power(E, p, e, backend)
    return result


def type_l_step(E: CurveQ, n: int, backend: str = "auto") -> int:
    """The map n -> n + 1 - a_n extending p -> #E(F_p)."""
    return n + 1 - l_series_coefficient(E, n, backend)


def type_n_step(E: CurveQ, n: int, backend: str = "auto") -> int:
    """The map n -> #E^0(Z/nZ), the subgroup of smooth points."""
    if n < 1:
        raise ValueError("n must be >= 1")
    result = 1
    for p, e in factorint(n).items():
        if E.has_good_reduction(p):
            cp = p + 1 - _a_prime_power(E, p, 1, backend)
        else:
            cp = p - bad_trace(E, p)
        result *= p ** (e - 1) * cp
    return result


def iterate_type_map(
    E: CurveQ, start: int, kind: str = "L", max_steps: int = 200
) -> tuple[list[int], int]:
    """Iterate the L or N map from start until a value repeats.

    Returns (orbit, i) where orbit[i:] is the cycle entered, or i = -1
    if no repeat occurred within max_steps.
    """
    if kind not in ("L", "N"):
        raise ValueError("kind must be 'L' or 'N'")
    step = type_l_step if kind == "L" else type_n_step
    seen: dict[int, int] = {}
    orbit: list[int] = []
    n = start
    for _ in range(max_steps):
        if n in seen:
            return orbit, seen[n]
        seen[n] = len(orbit)
        orbit.append(n)
        n = step(E, n)
    return orbit, -1
