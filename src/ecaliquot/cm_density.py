"""Densities of Type 1 primes for y^2 = x^3 + k via residue classes mod k.

Whether a member p of N_k is Type 1 is governed by the residue
lambda = psi(1 - psi) mod k*Z[w]; the sets

    M_k     -- residues that allow membership in N_k at all,
    M_k^[1] -- the sub-residues forcing Type 1,

are cut out by quadratic/cubic symbol conditions depending on k mod 4
and on whether every prime factor of k is +-1 mod 9.  The predicted
Type 1 density is #M_k^[1] / #M_k, computable in closed form for prime
k and in general by convolving the per-ideal class counts over the
prime ideals above k (m_counts); the residue sets themselves are
enumerated by ok_sharp, m_k_set and m_k1_set.

The counts #M_K^[1](zeta, xi) over a single prime ideal K are tied to
the number of points on the genus-4 curve

    C6: gamma z^6 (1 - gamma z^6) = delta x^3

through #C6 = 18 #M_K^[1] + e(zeta, xi).  A class is a pair of symbol
exponents: zeta in 0..5 for (gamma/K)_6 = w^zeta and xi in (0, 2, 4)
for (delta/K)_3 = w^xi.  #C6 itself has an exact
expression in unit-weighted traces of the primary generator, so
m_counts reads each ideal's class counts off the traces in O(1) steps,
with no walk of its residue field.  All three routes (set enumeration,
trace formula, brute-force point count) are implemented and must agree.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import cycle, islice
from math import prod

from .arith import factorint, isprime
from .eisenstein import (
    UNITS,
    EisensteinInt,
    PrimeIdealK,
    _coerce,
    _pair_pow,
    cubic_symbol,
    ideals_above,
    sextic_symbol,
)

NON_UNIT = 255  # sentinel in the residue tables


def mk_case(k: int) -> str:
    """The case letter a/b/c/d classifying k (odd, coprime to 3).

    a: k = 1 mod 4 and every prime factor = +-1 mod 9;
    b: k = 1 mod 4 otherwise; c: k = 3 mod 4 with the factor condition;
    d: k = 3 mod 4 otherwise.
    """
    if k < 5 or k % 2 == 0 or k % 3 == 0:
        raise ValueError("k must be >= 5 and coprime to 6")
    pr = all(r % 9 in (1, 8) for r in factorint(k))
    if k % 4 == 1:
        return "a" if pr else "b"
    return "c" if pr else "d"


def _in_m(case: str, e6: int) -> bool:
    if case == "a":
        return e6 in (1, 5)  # quadratic -1 and cubic != 1
    if case == "b":
        return e6 % 2 == 1  # quadratic -1
    if case == "c":
        return e6 % 3 != 0  # cubic != 1
    return True  # case d: all of O-sharp


def _field_exponents(K: PrimeIdealK):
    """The sextic symbols of the residue field F = Z[w]/K: the symbol is
    a character of the cyclic group F^*, so (g^j/K)_6 = w^(s j) for a
    generator g with (g/K)_6 = w^s (Ireland and Rosen, ch. 9).

    Returns (index, exps): index(a, b) numbers the element a + b*w mod
    K, and exps[i] is the exponent of the symbol of element i (NON_UNIT
    at 0).  A split K walks the N - 1 powers of g.  An inert K = k Z[w]
    walks only g^0, ..., g^k: they represent the classes of F^* / F_k^*,
    and the symbol is 1 on F_k^* = <g^(k+1)> as 6 | k + 1, so it is
    constant on each class, that of w or of 1 + v w with v in F_k.
    """
    n = K.residue_norm
    order = n - 1
    cofactors = [order // q for q in factorint(order)]
    if K.kind == "split":
        w0 = K.omega_residue()

        def index(a: int, b: int) -> int:
            return (a + b * w0) % n

        g = next(
            x for x in range(2, n) if all(pow(x, c, n) != 1 for c in cofactors)
        )
        # g^(order / 6) is w or w^-1
        s = 1 if pow(g, order // 6, n) == w0 else -1
        exps = bytearray([NON_UNIT]) * n
        x = 1
        for e in islice(cycle([s * j % 6 for j in range(6)]), order):
            exps[x] = e
            x = x * g % n
        return index, bytes(exps)
    k = K.generator.a

    def index(a: int, b: int) -> int:
        return a % k * k + b % k

    # b = 0 spans only F_k^*, and a = 0 only F_k^* <w>, so no generator
    # has either.
    ga, gb = next(
        (a, b)
        for a in range(1, k)
        for b in range(1, k)
        if all(_pair_pow((a, b), c, k) != (1, 0) for c in cofactors)
    )
    s = 1 if _pair_pow((ga, gb), order // 6, k) == (0, 1) else -1
    line = bytearray(k)  # line[v] is the exponent of 1 + v w
    x, y = 1, 0
    for j in range(k + 1):
        if x:
            line[y * pow(x, -1, k) % k] = s * j % 6
        else:
            at_w = s * j % 6
        x, y = (x * ga - y * gb) % k, (x * gb + y * ga + y * gb) % k
    # a + b w = a (1 + (b / a) w): row a != 0 reads line at b c, c = 1 / a
    ext = bytes(line) * k
    rows = [bytes([NON_UNIT]) + bytes([at_w]) * (k - 1)]
    rows += [ext[: k * c : c] for c in (pow(a, -1, k) for a in range(1, k))]
    return index, b"".join(rows)


@lru_cache(maxsize=128)
def _sextic_exponent_table(r: int) -> bytes:
    """For each residue a + b*w mod a prime r, the exponent of the
    sextic symbol over r*Z[w] (summed over the ideals above r), or the
    NON_UNIT sentinel.  Indexed by a * r + b."""
    if r < 5 or r % 3 == 0:
        raise ValueError("residue tables require a prime r >= 5, r != 3")
    K = ideals_above(r)[0]
    exps = _field_exponents(K)[1]
    if K.kind == "inert":  # the residue field is indexed a * r + b
        return exps
    # x = a + b w is a + b w0 mod K, with w0 = w (mod K): row a of e1 =
    # (x/K)_6 reads K's exponents from a in steps of w0.  The conjugate
    # ideal needs no walk of its own, as (x/Kbar)_6 = (xbar/K)_6^(-1) and
    # xbar = a + b (1 - w) is a + b (1 - w0) mod K: row a of e2 = (xbar/K)_6
    # reads the same exponents in steps of r + 1 - w0.
    w0 = K.omega_residue()
    ext = exps * (r + 1)
    # 7 e1 + e2 in each byte, with no carry as e1, e2 <= 6 (6 for NON_UNIT)
    digits = 0
    for step in (w0, r + 1 - w0):
        row = b"".join(ext[a : a + r * step : step] for a in range(r))
        row = row.replace(bytes([NON_UNIT]), bytes([6]))
        digits = 7 * digits + int.from_bytes(row, "big")
    return digits.to_bytes(r * r, "big").translate(
        bytes(
            NON_UNIT if 6 in divmod(c, 7) else (c // 7 - c % 7) % 6
            for c in range(256)
        )
    )


def _residue_scan(k: int):
    """Yield (a, b, e6(lam), e6(1 - lam)) over lam = a + b*w in Z[w]/k.

    The per-prime multiplicities of k are folded into the exponents;
    lam with lam(1 - lam) not a unit are skipped.
    """
    fac = sorted(factorint(k).items())
    tables = [(r, e, _sextic_exponent_table(r)) for r, e in fac]
    for a in range(k):
        for b in range(k):
            e6 = 0
            e6c = 0
            for r, e, table in tables:
                t1 = table[(a % r) * r + b % r]
                t2 = table[((1 - a) % r) * r + (-b) % r]
                if t1 == NON_UNIT or t2 == NON_UNIT:
                    break
                e6 += e * t1
                e6c += e * t2
            else:
                yield a, b, e6 % 6, e6c % 6


def m_counts(k: int) -> tuple[int, int, int]:
    """(#O-sharp, #M_k, #M_k^[1]) for any k >= 5 coprime to 6.

    By CRT, Z[w]/rad(k) is the product of the residue fields of the
    prime ideals K above rad(k), and both conditions read only the sums
    over K of e * (lam/K)_6 and e * (lam(1-lam)/K)_3, with e the
    multiplicity of K's rational prime in k.  So the per-ideal class
    counts _m_K1_table(K), scaled by e, are convolved over Z/6 x Z/6:
    the trace identity for #C6 gives them in O(1) steps per ideal,
    instead of rad(k)^2 steps for a scan.  Each residue mod rad(k) lifts
    to (k / rad(k))^2 residues mod k.
    """
    case = mk_case(k)
    fac = factorint(k)
    dist = {(0, 0): 1}  # residues by the exponents of their two symbols
    for r, e in fac.items():
        for K in ideals_above(r):
            table = _m_K1_table(K)
            step: dict[tuple[int, int], int] = {}
            for (s1, c1), n1 in dist.items():
                for (s2, c2), n2 in table.items():
                    key = ((s1 + e * s2) % 6, (c1 + e * c2) % 6)
                    step[key] = step.get(key, 0) + n1 * n2
            dist = step
    n_ok = sum(dist.values())
    n_m = sum(n for (s, _), n in dist.items() if _in_m(case, s))
    n_m1 = sum(n for (s, c), n in dist.items() if _in_m(case, s) and c == 0)
    lift = (k // prod(fac)) ** 2
    return n_ok * lift, n_m * lift, n_m1 * lift


def ok_sharp(k: int) -> set[EisensteinInt]:
    """Residues lam mod k*Z[w] with lam and 1 - lam both units."""
    return {EisensteinInt(a, b) for a, b, _, _ in _residue_scan(k)}


def m_k_set(k: int) -> set[EisensteinInt]:
    """The residues mod k*Z[w] compatible with membership in N_k."""
    case = mk_case(k)
    return {
        EisensteinInt(a, b)
        for a, b, e6, _ in _residue_scan(k)
        if _in_m(case, e6)
    }


def m_k1_set(k: int) -> set[EisensteinInt]:
    """The residues in M_k whose lam(1 - lam) is a cube mod k."""
    case = mk_case(k)
    return {
        EisensteinInt(a, b)
        for a, b, e6, e6c in _residue_scan(k)
        if _in_m(case, e6) and (e6 + e6c) % 3 == 0
    }


def m_counts_formula(k: int) -> dict[str, int]:
    """Closed forms for #M_k at a prime k, for each of the four cases."""
    if not isprime(k) or k < 5 or k % 3 == 0:
        raise ValueError("closed forms require a prime k >= 5 coprime to 3")
    if k % 3 == 1:
        base = (k - 1) * (k - 3)
        return {
            "a": base // 3,
            "b": base // 2,
            "c": 2 * base // 3,
            "d": (k - 2) ** 2,
        }
    base = k * k - 1
    return {
        "a": base // 3,
        "b": base // 2,
        "c": 2 * base // 3,
        "d": k * k - 2,
    }


def m1_counts_formula(k: int) -> dict[str, int]:
    """Closed forms for #M_k^[1] at a prime k, for each case."""
    if not isprime(k) or k < 5 or k % 3 == 0:
        raise ValueError("closed forms require a prime k >= 5 coprime to 3")
    if k % 3 == 1:
        return {
            "a": (k - 1) ** 2 // 9,
            "b": (k - 1) * (k - 3) // 6,
            "c": 2 * (k - 1) ** 2 // 9,
            "d": (k * k - 2 * k + 4) // 3,
        }
    return {
        "a": (k + 1) ** 2 // 9,
        "b": (k * k - 1) // 6,
        "c": 2 * (k + 1) ** 2 // 9,
        "d": (k * k + 2 * k - 2) // 3,
    }


def r_of_k(k: int) -> Fraction:
    """The excess R(k) = predicted density - 1/3, for prime k."""
    if not isprime(k) or k < 5 or k % 3 == 0:
        raise ValueError("R(k) is defined for primes k >= 5 coprime to 3")
    m = k % 36
    if m in (1, 19):
        return Fraction(2, 3 * (k - 3))
    if m in (13, 25):
        return Fraction(0)
    if m in (7, 31):
        return Fraction(2 * k, 3 * (k - 2) ** 2)
    if m in (17, 35):
        return Fraction(2, 3 * (k - 1))
    if m in (5, 29):
        return Fraction(0)
    if m in (11, 23):
        return Fraction(2 * k, 3 * (k * k - 2))
    raise ValueError(f"{k} is not coprime to 6")


@dataclass(frozen=True)
class DensityPrediction:
    k: int
    case: str
    m_count: int
    m1_count: int
    density: Fraction


def predict(k: int) -> DensityPrediction:
    _, m, m1 = m_counts(k)
    if m == 0:
        # happens when k is a perfect square: the quadratic condition
        # trivializes, matching the rational 3-torsion on y^2 = x^3 + k
        raise ValueError(f"no admissible residues mod {k}; N_k is finite")
    return DensityPrediction(k, mk_case(k), m, m1, Fraction(m1, m))


# ---------------------------------------------------------------------------
# Per-ideal class counts and the genus-4 curve C6

@lru_cache(maxsize=512)
def _m_K1_table(K: PrimeIdealK) -> dict[tuple[int, int], int]:
    """Counts of lam in the residue field of K by the pair of classes
    ((lam/K)_6, (lam(1-lam)/K)_3), from #C6 = 18 #M_K^[1] + e: the trace
    formula gives every count in O(1) steps, with no walk of the field."""
    classes = [(z, x) for z in range(6) for x in (0, 2, 4)]
    table = {}
    for (zeta, xi), n in zip(classes, _c6_counts_trace(classes, K)):
        count, rest = divmod(n - e_term(zeta, xi), 18)
        if rest:
            raise ArithmeticError(f"#C6 - e is not 18 #M_K^[1] at {K.generator}")
        table[zeta, xi] = count
    return table


def e_term(zeta: int, xi: int) -> int:
    """Boundary contribution of C6 at the class exponents (zeta, xi), mod
    6: 6 from z-axis points when w^zeta = 1, 3 from the blown-up origin
    when 2 zeta = xi, 3 from infinity when 4 zeta = xi."""
    total = 6 if zeta % 6 == 0 else 0
    if (2 * zeta - xi) % 6 == 0:
        total += 3
    if (4 * zeta - xi) % 6 == 0:
        total += 3
    return total


def c6_count_trace(zeta: int, xi: int, K: PrimeIdealK) -> int:
    """#C6 for any witnesses of the class exponents (zeta, xi), mod 6, by
    the exact trace formula over the primary generator of K.

    The Jacobian of C6 splits as a product of the four curves
    y^2 = x^3 + kappa with kappa = 16 d^2, 4 g^3 d^4, g^5 d^2, g d^2
    (substituting the C6 equation into (-d x / z^2, g d z^3) gives
    Y^2 - X^3 = +g d^2), so each trace term is the unit
    (4 kappa / K)_6 times the conjugate generator.
    """
    if xi % 2:
        raise ValueError("xi must be a cube root of unity")
    return _c6_counts_trace([(zeta % 6, xi % 6)], K)[0]


def _c6_counts_trace(classes, K: PrimeIdealK) -> list[int]:
    """c6_count_trace for each class pair (z, x) of K, both in 0..5.

    The ideal gives eps = 2 (2/K)_6, the exponent of (2/K)_3, and the six
    traces tr(w^j pi_bar) once; each class adds the four traces w^j pi_bar
    with j = x, 2 eps + 3 z + 2 x, eps + 5 z + x and eps + z + x, mod 6.
    """
    pi_bar = K.generator.conjugate()
    eps = 2 * sextic_symbol(2, K)
    traces = [(u * pi_bar).trace for u in UNITS]
    counts = []
    for z, x in classes:
        counts.append(
            K.residue_norm
            + 1
            + traces[x]
            + traces[(2 * eps + 3 * z + 2 * x) % 6]
            + traces[(eps + 5 * z + x) % 6]
            + traces[(eps + z + x) % 6]
        )
    return counts


def _class_witnesses(K: PrimeIdealK, targets, symbol) -> list[EisensteinInt]:
    """For each exponent of targets, mod 6, the first nonzero residue mod K
    (in scan order) with that symbol, from one scan that stops once all
    are seen."""
    if K.kind == "split":
        residues = (EisensteinInt(x, 0) for x in range(1, K.residue_norm))
    else:
        k = K.generator.a
        residues = (
            EisensteinInt(a, b) for a in range(k) for b in range(k) if a or b
        )
    targets = [t % 6 for t in targets]
    wanted = set(targets)
    first: dict[int, EisensteinInt] = {}
    for cand in residues:
        first.setdefault(symbol(cand), cand)
        if wanted <= first.keys():
            return [first[t] for t in targets]
    missing = next(t for t in targets if t not in first)
    raise ArithmeticError(f"no residue of class w^{missing} mod {K.generator}")


def class_witnesses_sextic(K: PrimeIdealK, zetas) -> list[EisensteinInt]:
    """class_witness_sextic for each of zetas, from one scan."""
    return _class_witnesses(K, zetas, lambda g: sextic_symbol(g, K))


def class_witnesses_cubic(K: PrimeIdealK, xis) -> list[EisensteinInt]:
    """class_witness_cubic for each of xis, from one scan."""
    if any(xi % 2 for xi in xis):
        raise ValueError("xi must be a cube root of unity")
    return _class_witnesses(K, xis, lambda d: cubic_symbol(d, K))


def class_witness_sextic(K: PrimeIdealK, zeta: int) -> EisensteinInt:
    """The first residue (in scan order) whose sextic symbol is w^zeta."""
    return class_witnesses_sextic(K, [zeta])[0]


def class_witness_cubic(K: PrimeIdealK, xi: int) -> EisensteinInt:
    """The first residue (in scan order) whose cubic symbol is w^xi."""
    return class_witnesses_cubic(K, [xi])[0]


def c6_count_bruteforce(
    gamma: EisensteinInt, delta: EisensteinInt, K: PrimeIdealK
) -> int:
    """#C6 by direct point enumeration over the residue field.

    Affine points with x != 0 come in threes (the cube roots of
    gamma z^6 (1 - gamma z^6) / delta); the boundary components
    contribute exactly e((gamma/K)_6, (delta/K)_3).
    """
    return _c6_counts_bruteforce([(gamma, delta)], K)[0]


def _c6_counts_bruteforce(pairs, K: PrimeIdealK) -> list[int]:
    """c6_count_bruteforce for each witness pair (gamma, delta), from one
    walk over the residue field of K shared by all of them.

    u = gamma z^6 runs over the u of F with (u/K)_6 = (gamma/K)_6, each
    for 6 of the z in F^*; u (1 - u) / delta is a nonzero cube iff u != 1
    and the exponents of u, 1 - u and delta satisfy e(u) + e(1 - u) =
    e(delta) mod 3, and then each z has 3 points.
    """
    index, exps = _field_exponents(K)
    if K.kind == "split":
        # 1 - x for x = 0, 1, ..., n - 1 is 1, 0, n - 1, ..., 2
        complements = exps[1::-1] + exps[:1:-1]
    else:
        # 1 - (a + b w) = (1 - a) - b w: row 1 - a, read from b = 0 down
        k = K.generator.a
        rows = [exps[a * k : a * k + k] for a in range(k)]
        complements = b"".join(
            row[:1] + row[:0:-1] for row in (rows[(1 - a) % k] for a in range(k))
        )
    # the cyclotomic numbers of order 6, the x != 0, 1 by (e(x), e(1 - x)),
    # folded by e(x) and e(x) + e(1 - x) mod 3
    folded = [[0, 0, 0] for _ in range(6)]
    for (e, ec), n in Counter(zip(exps, complements)).items():
        if NON_UNIT not in (e, ec):
            folded[e][(e + ec) % 3] += n
    counts = []
    for gamma, delta in pairs:
        gamma, delta = _coerce(gamma), _coerce(delta)
        eg = exps[index(gamma.a, gamma.b)]
        ed = exps[index(delta.a, delta.b)]
        if NON_UNIT in (eg, ed):
            raise ValueError(f"{gamma} or {delta} is not coprime to the modulus")
        counts.append(18 * folded[eg][ed % 3] + e_term(eg, 2 * ed))
    return counts
