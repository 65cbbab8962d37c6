"""Amicable pairs, aliquot cycles, and the CM trace dichotomy.

An amicable pair of a curve E/Q is a pair of good primes (p, q) with
#E(F_p) = q and #E(F_q) = p; an aliquot cycle of length L chains the
counting map through L distinct primes and back.  For CM curves the
possible values of #E(F_q) given #E(F_p) = q collapse to two, and for
j = 0 the sextic residue symbol decides between them; the helpers at
the bottom of the module implement those dichotomies exactly.

The module owns the one segment kernel, _sweep_segment: a sweep's
workers run it on the cells of their grid, and the cycle search folds
it over the default grid.  For each segment [lo, hi) of its primes,
_Counter.segment sieves the window that holds every image of the
segment once, and builds the counter on it.  Each prime of the segment
takes at most one walk, which gives its chains, its pair and its
closed walks of every requested length at once; its step
_Counter.image returns only what a cycle needs: a prime image, or 0.
Its primality comes from the window's flags, and from isprime only for
images beyond them; on y^2 = x^3 + k the CM formula counts the whole
window at once.  A segment's first step is one _Counter.images call,
and walks start only from primes with a prime image.  One test of the
2-torsion of E(F_p) stops the walk without counting: any root of the
2-division cubic in F_p is a point of order 2, so #E(F_p) is even and,
for p >= 7, composite.  One Legendre symbol tells one root
from 0 or 3, and a Lucas sequence tells 0 from 3.  With no root,
#E(F_p) is odd.  Above MESTRE_BOUND on a curve that BSGS counts, the
step then asks for no count: a point P of E and the first odd N in the
Hasse window with N P = O decide it, as #E(F_p) = N when N is prime
and #E(F_p) is composite otherwise.  Found cycles and pairs are
re-verified by a prime-order certificate that shares no code with the
counting backends.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import isqrt

from .arith import factorint, isprime, marked_primes, prime_flags
from .arith import primes_in_range  # noqa: F401  (perfbench patches it)
from .curves_mod_p import (
    BACKENDS,
    MESTRE_BOUND,
    CurveQ,
    _count_tiny,
    _reduce,
    cm_j0_counts,
    count_points,
    count_points_cm_j0,
    count_points_naive,
    first_annihilator,
    grossencharacter_j0,
    reduce_curve,
    two_division_roots,
    x_only_annihilates,
)
from .eisenstein import (
    UNITS,
    EisensteinInt,
    PrimeIdealK,
    primary_associate,
    primary_split,
    sextic_symbol,
)

SEGMENT_SIZE = 1 << 16  # the width of a census segment, a sweep's default


class _Counter:
    """Memoized point counter for one curve and backend.

    It is called only with primes (from a sieve, or prime images), so it
    reduces and counts without testing them again.  It checks the
    backend once, and holds disc, the discriminant of E, and optionally
    a sieved window: flags[n - lo] marks the primes n of [lo, lo +
    len(flags)), which decide the primality of the images that fall in
    it.  memo[p] is #E(F_p), or 0 where image(p) has only shown that
    count composite.  Where count_points takes the CM formula, the memo
    starts with the count at every good prime of the window; images
    takes a segment's first step in one pass over it.
    """

    def __init__(
        self, E: CurveQ, backend: str = "auto", lo: int = 0, flags: bytes = b""
    ):
        if backend not in BACKENDS:
            raise ValueError(f"backend must be one of {BACKENDS}")
        self.E = E
        self.backend = backend
        self.disc = E.discriminant()
        self.A, self.B = E.short_model()
        cm = backend in ("cm", "auto") and E.is_mordell()
        self.memo: dict[int, int] = cm_j0_counts(E.a6, lo, flags) if cm and flags else {}
        self.lo = lo
        self.hi = lo + len(flags)
        self.flags = flags
        # Whether image searches above MESTRE_BOUND, where count_points
        # would take BSGS, instead of counting.
        self.first_match = backend == "bsgs" or (backend == "auto" and not cm)

    @classmethod
    def segment(cls, E: CurveQ, backend: str, lo: int, hi: int):
        """The counter of the segment [lo, hi), and its good primes, from
        one sieve of the window [lo - 2 sqrt(lo) - 2, hi + 2 sqrt(hi) + 3),
        which holds every image of a p in [lo, hi) by the Hasse bound.
        Only the primes up to |disc| can divide it."""
        wlo = max(2, lo - 2 * isqrt(lo) - 2)
        flags = prime_flags(wlo, hi + 2 * isqrt(hi) + 3)
        count = cls(E, backend, wlo, flags)
        primes = list(marked_primes(flags, wlo, lo, hi))
        cut = bisect_right(primes, abs(count.disc))
        return count, [p for p in primes[:cut] if count.disc % p] + primes[cut:]

    def __call__(self, p: int) -> int:
        v = self.memo.get(p)
        if not v:
            v = count_points(_reduce(self.E, p), self.backend)
            self.memo[p] = v
        return v

    def image(self, p: int) -> int:
        """The aliquot step from a good prime p: #E(F_p) when it is
        prime, else 0.

        A memoized count or verdict is looked up.  Otherwise, for
        p >= 7, any root of the short model's 2-division cubic is a
        point of order 2, so that #E(F_p) >= p + 1 - 2 sqrt(p) is even
        and exceeds 2, hence composite, and the step returns 0 uncounted
        (y^2 = x^3 + 2x has #E(F_5) = 2).  Above MESTRE_BOUND on the
        BSGS route, the step then takes first_annihilator's N, which is
        #E(F_p) when prime and shows it composite otherwise, and
        memoizes the verdict, N or 0; elsewhere self(p) counts.
        Primality comes from the window's flags, and from isprime only
        for a number outside the window.  A prime count is returned
        even where E has bad reduction.
        """
        q = self.memo.get(p)
        if q is None:
            A, B = self.A % p, self.B % p
            if p >= 7 and two_division_roots(p, A, B):
                return 0
            if self.first_match and p > MESTRE_BOUND:
                N = self.annihilator(p, A, B)
                q = self.memo[p] = N if self._prime(N) else 0
                return q
            q = self(p)
        return q if q and self._prime(q) else 0

    def images(self, ps: list[int]) -> list[int]:
        """[self.image(p) for p in ps]: memoized counts are read and tested
        in one comprehension, and each memo miss goes to image."""
        memo, lo, hi, flags = self.memo, self.lo, self.hi, self.flags
        return [
            self.image(p) if (q := memo.get(p)) is None
            else q if q and (flags[q - lo] if lo <= q < hi else isprime(q)) else 0
            for p in ps
        ]

    def annihilator(self, p: int, A: int, B: int) -> int:
        """The search of image's BSGS route: first_annihilator, as a
        method that a test counter can lie through."""
        return first_annihilator(p, A, B)

    def _prime(self, n: int) -> bool:
        if self.lo <= n < self.hi:
            return self.flags[n - self.lo] == 1
        return isprime(n)


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


def _verify_step(E: CurveQ, p: int, N: int) -> bool:
    """Whether #E(F_p) = N, for a good prime p and a prime N.

    A prime-order certificate, independent of every counting backend:
    N must lie in the Hasse window, and N P = O must hold for the point
    P = (x f, f^2) of y^2 = x^3 + A f^2 x + B f^3, the short model
    twisted by f = x^3 + A x + B, at the first x where f is a nonzero
    square.  That twist is isomorphic to E, so no square root is taken.
    For p >= 37, N > 4 sqrt(p), the width of the window, so N P = O
    with P != O gives ord(P) = N and N as the only multiple of N in
    the window; conversely #E(F_p) = N forces N P = O.  Any point
    would thus give the same verdict.  N P = O is decided by
    x_only_annihilates, a Montgomery ladder on x(P) alone, which stops
    at the first multiple mP = O with m < N: then ord(P) < N does not
    divide the prime N.  Below p = 37, where N <= 4 sqrt(p) can occur,
    E is counted.
    """
    if (N - p - 1) ** 2 > 4 * p:
        return False
    Ep = _reduce(E, p)
    if p < 37:
        return count_points_naive(Ep) == N
    A, B = Ep.short_model()
    x, f = 0, B % p
    while pow(f, (p - 1) // 2, p) != 1:
        x += 1
        f = (x * x * x + A * x + B) % p
    ff = f * f % p
    return x_only_annihilates(p, A * ff % p, B * ff * f % p, N, x * f % p)


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


def _walk(count: _Counter, p: int, length: int) -> tuple[list[int], int | None]:
    """The aliquot walk p = p_1 -> p_2 -> ... through at most length primes.

    Each p_{i+1} = #E(F_{p_i}) is a prime that is new to the walk.  The
    walk steps only from primes of good reduction, so only its last
    prime can be bad.  Each step is count.image, which decides
    primality.  Returns (walk, stop): stop is the image that ended the
    walk early (0 for any image that is not prime, counted or not), or
    None when the walk reached length primes or a bad prime; a walk
    closes when stop is p.
    """
    walk = [p]
    while len(walk) < length and count.disc % walk[-1]:
        q = count.image(walk[-1])
        if not q or q in walk:
            return walk, q
        walk.append(q)
    return walk, None


def _segment_grid(x_bound: int, segment_size: int) -> list[tuple[int, int]]:
    """The fixed [lo, hi) grid covering [2, x_bound]."""
    return [
        (lo, min(lo + segment_size, x_bound + 1))
        for lo in range(2, x_bound + 1, segment_size)
    ]


def _sweep_segment(task: tuple) -> dict:
    """Tally one prime segment [lo, hi) of E; returns a JSON-ready record.

    task is (E, lo, hi, k, lengths, backend), with k the k of
    y^2 = x^3 + k or None.  _Counter.segment gives the segment's good
    primes and a counter on the sieved window that holds all their
    images, so counter.image tests a prime image by lookup; only steps
    whose image lies beyond the window reach isprime.  The first steps
    are one counter.images call, and each p with a prime image q takes
    at most one _walk, which yields every tally:
    - chains[L] counts the walks that reach L primes (every good prime
      is a chain of length 1);
    - a walk that closes is counted once, from its least prime p, so
      it starts upwards (q >= p) and needs one step more than its
      length; cycles[L] lists the closed walks of length L, and pairs
      the closed 2-walks with p >= 5;
    so a walk that starts downwards is taken only when a chain longer
    than 1 is asked for, and then only as deep as the longest chain.
    Each closed walk that is kept is re-verified once by _verified.  On
    y^2 = x^3 + k under the cm or auto backend, the counter's memo
    starts with the count at every good prime of the window, so only
    steps beyond it count one prime at a time.  A prime p of N_k is
    type 1 iff a_q = q + 1 - #E(F_q) is +-(q + 1 - p): classify_type1's
    trace route alone.
    """
    E, lo, hi, k, lengths, backend = task
    counter, primes = _Counter.segment(E, backend, lo, hi)
    up, down = max((2, *lengths)) + 1, max((1, *lengths))
    chains = {str(L): len(primes) if L == 1 else 0 for L in lengths}
    cycles = {str(L): [] for L in lengths}
    record = {
        "lo": lo,
        "hi": hi,
        "n_prime": 0,
        "pairs": [],
        "n_k": 0,
        "n_type1": 0,
        "chains": chains,
        "cycles": cycles,
    }
    for p, q in zip(primes, counter.images(primes)):
        if not q:
            continue
        record["n_prime"] += 1
        depth = up if q >= p else down
        if depth > 1:
            walk, stop = _walk(counter, p, depth)
            for L in lengths:
                if len(walk) >= L > 1:
                    chains[str(L)] += 1
            if stop == p and min(walk) == p:
                kept = cycles.get(str(len(walk)))
                pair = len(walk) == 2 and p >= 5
                if pair or kept is not None:
                    cycle = list(_verified(E, tuple(walk)))
                    if pair:
                        record["pairs"].append(cycle)
                    if kept is not None:
                        kept.append(cycle)
        # q | disc = -432 k^2 on y^2 = x^3 + k exactly when q | 6k
        if k is not None and p >= 5 and counter.disc % q:
            record["n_k"] += 1
            if q + 1 - counter(q) in (q + 1 - p, p - q - 1):
                record["n_type1"] += 1
    return record


def _cycle_census(
    E: CurveQ, lengths: tuple[int, ...], X: int, backend: str
) -> dict[int, list[AliquotCycle]]:
    """The aliquot cycles of each length in lengths whose least prime is
    <= X, from one serial fold of _sweep_segment over
    _segment_grid(X, SEGMENT_SIZE)."""
    if any(L < 1 for L in lengths):
        raise ValueError("length must be >= 1")
    if backend not in BACKENDS:  # also where X < 2 builds no counter
        raise ValueError(f"backend must be one of {BACKENDS}")
    found: dict[int, list[AliquotCycle]] = {L: [] for L in lengths}
    for lo, hi in _segment_grid(X, SEGMENT_SIZE):
        cycles = _sweep_segment((E, lo, hi, None, lengths, backend))["cycles"]
        for L in lengths:
            found[L] += (AliquotCycle(tuple(c)) for c in cycles[str(L)])
    return found


def aliquot_cycles_up_to(
    E: CurveQ, length: int, X: int, backend: str = "auto"
) -> list[AliquotCycle]:
    """All aliquot cycles of exact length whose smallest prime is <= X.

    Every returned cycle has been re-verified by verify_cycle, which
    shares no code with the counting backends.
    """
    return _cycle_census(E, (length,), X, backend)[length]


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
    symbol: int  # the exponent e of the product (k/p)_6 (k/q)_6 = w^e


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
    p_ideal = PrimeIdealK(primary_split(p))
    q_ideal = PrimeIdealK(q_gen)
    e = (sextic_symbol(k, p_ideal) + sextic_symbol(k, q_ideal)) % 6

    predicted = (UNITS[-e % 6] * one_minus).trace
    if predicted != a_q:
        raise ArithmeticError(
            f"symbol and trace routes disagree at p={p}: {predicted} != {a_q}"
        )
    is_type1 = e % 3 == 0
    s = q + 1 - p
    if is_type1 != (a_q in (s, -s)):
        raise ArithmeticError(f"type classification inconsistent at p={p}")
    epsilon = (1 if e == 0 else -1) if is_type1 else 0
    return TypeOneVerdict(p, q, a_q, is_type1, epsilon, e)


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
    ap = p + 1 - count_points(_reduce(E, p), backend)
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
            cp = count_points(_reduce(E, p), backend)
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
    if max_steps < 1:
        raise ValueError("max_steps must be >= 1")
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
