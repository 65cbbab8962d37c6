"""Amicable pairs, aliquot cycles, and the CM trace dichotomy.

An amicable pair of a curve E/Q is a pair of good primes (p, q) with
#E(F_p) = q and #E(F_q) = p; an aliquot cycle of length L chains the
counting map through L distinct primes and back.  For CM curves the
possible values of #E(F_q) given #E(F_p) = q collapse to two, and for
j = 0 the sextic residue symbol decides between them; the helpers at
the bottom of the module implement those dichotomies exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from sympy import factorint, isprime

from .arith import primes_in_range
from .curves_mod_p import (
    CurveQ,
    _count_tiny,
    count_points,
    count_points_cm_j0,
    count_points_naive,
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


class _Counter:
    """Memoized point counter for one curve and backend."""

    def __init__(self, E: CurveQ, backend: str = "auto"):
        self.E = E
        self.backend = backend
        self.memo: dict[int, int] = {}

    def __call__(self, p: int) -> int:
        v = self.memo.get(p)
        if v is None:
            backend = self.backend
            if backend == "cm" and p < 5:
                backend = "naive"
            v = count_points(reduce_curve(self.E, p), backend)
            self.memo[p] = v
        return v


def next_value(E: CurveQ, p: int, backend: str = "auto") -> int | None:
    """The aliquot step: q = #E(F_p) if q is a prime of good reduction.

    Returns None when the walk stops (q composite or bad reduction at q).
    """
    if not E.has_good_reduction(p):
        raise ValueError(f"bad reduction at {p}")
    q = _Counter(E, backend)(p)
    if isprime(q) and E.has_good_reduction(q):
        return q
    return None


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


def _verify_count(E: CurveQ, p: int) -> int:
    """Point count along an independent route, for double-checking cycles.

    Tiny p: brute force on the long form.  Mordell curves: the CM
    formula.  Otherwise the character sum for moderate p, and BSGS as
    the last resort.
    """
    Ep = reduce_curve(E, p)
    if p < 5:
        return _count_tiny(Ep)
    if E.is_mordell() and (6 * E.a6) % p != 0:
        return count_points_cm_j0(E.a6, p)
    if p <= 2 * 10**6:
        return count_points_naive(Ep)
    return count_points(Ep, "bsgs")


def verify_cycle(E: CurveQ, primes: tuple[int, ...]) -> bool:
    """Re-check a purported aliquot cycle with the independent counters."""
    L = len(primes)
    if L == 0 or len(set(primes)) != L:
        return False
    for i, p in enumerate(primes):
        if not isprime(p) or not E.has_good_reduction(p):
            return False
        if _verify_count(E, p) != primes[(i + 1) % L]:
            return False
    return True


def _walk(
    count: _Counter, disc: int, p: int, length: int, floor: int = 0
) -> tuple[list[int], int | None]:
    """The aliquot walk p = p_1 -> p_2 -> ... through at most length primes.

    Each p_{i+1} = #E(F_{p_i}) is a prime that is new to the walk and
    >= floor.  The walk steps only from primes of good reduction, so
    only its last prime can be bad.  Returns (walk, stop): stop is the
    image that ended the walk early, or None when the walk reached
    length primes or a bad prime.  Every search and sweep folds over it.
    """
    walk = [p]
    while len(walk) < length and disc % walk[-1]:
        q = count(walk[-1])
        if q < floor or q in walk or not isprime(q):
            return walk, q
        walk.append(q)
    return walk, None


def _closed_walks(E: CurveQ, length: int, lo: int, X: int, backend: str):
    """Walks from good p in [lo, X] that return to p after length primes.

    The floor p prunes each walk at its first image below p, so every
    closed walk is found once, from its smallest prime.
    """
    count = _Counter(E, backend)
    disc = E.discriminant()
    for p in primes_in_range(lo, X + 1):
        if disc % p:
            walk, stop = _walk(count, disc, p, length + 1, floor=p)
            if stop == p and len(walk) == length:
                yield tuple(walk)


def aliquot_cycles_up_to(
    E: CurveQ, length: int, X: int, backend: str = "auto"
) -> list[AliquotCycle]:
    """All aliquot cycles of exact length whose smallest prime is <= X.

    Every returned cycle has been re-verified by an independent
    counting backend.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    cycles = []
    for primes in _closed_walks(E, length, 2, X, backend):
        if not verify_cycle(E, primes):
            raise ArithmeticError(f"cycle {primes} failed independent recount")
        cycles.append(AliquotCycle(primes))
    return cycles


def amicable_pairs_up_to(
    E: CurveQ, X: int, backend: str = "auto"
) -> list[tuple[int, int]]:
    """All amicable pairs (p, q), p < q, with p <= X, ordered by p.

    Both primes must be >= 5 and of good reduction; q itself may
    exceed X.
    """
    return list(_closed_walks(E, 2, 5, X, backend))


def chain_count(E: CurveQ, length: int, X: int, backend: str = "auto") -> int:
    """The number of aliquot chains (p_1, ..., p_L) with p_1 <= X.

    A chain consists of distinct primes with #E(F_{p_i}) = p_{i+1};
    p_1 must have good reduction (as must every prime that is stepped
    from), but the final prime is only required to be prime and new.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    count = _Counter(E, backend)
    disc = E.discriminant()
    return sum(
        len(_walk(count, disc, p, length)[0]) == length
        for p in primes_in_range(2, X + 1)
        if disc % p
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
    # p = 2 or 3: count smooth affine points on the long form directly.
    a1, a2, a3, a4, a6 = (c % p for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
    smooth = 0
    for x in range(p):
        for y in range(p):
            f = (
                y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x - a4 * x - a6
            ) % p
            if f:
                continue
            fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
            fy = (2 * y + a1 * x + a3) % p
            if fx or fy:
                smooth += 1
    return p - (smooth + 1)


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
