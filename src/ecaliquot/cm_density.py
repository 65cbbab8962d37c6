"""Densities of Type 1 primes for y^2 = x^3 + k via residue classes mod k.

Whether a member p of N_k is Type 1 is governed by the residue
lambda = psi(1 - psi) mod k*Z[w]; the sets

    M_k     -- residues that allow membership in N_k at all,
    M_k^[1] -- the sub-residues forcing Type 1,

are cut out by quadratic/cubic symbol conditions depending on k mod 4
and on whether every prime factor of k is +-1 mod 9.  The predicted
Type 1 density is #M_k^[1] / #M_k, computable in closed form for prime
k and by direct enumeration in general.

The counts #M_K^[1](zeta, xi) over a single prime ideal K are tied to
the number of points on the genus-4 curve

    C6: gamma z^6 (1 - gamma z^6) = delta x^3

through #C6 = 18 #M_K^[1] + e(zeta, xi), and #C6 itself has an exact
expression in unit-weighted traces of the primary generator.  All
three routes (set enumeration, trace formula, brute-force point count)
are implemented and must agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import prod

from sympy import factorint, isprime

from .eisenstein import (
    EisensteinInt,
    PrimeIdealK,
    Unit6,
    _pair_mul,
    _pair_pow,
    _split_unit_table,
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
    e6 %= 6
    if case == "a":
        return e6 in (1, 5)  # quadratic -1 and cubic != 1
    if case == "b":
        return e6 % 2 == 1  # quadratic -1
    if case == "c":
        return e6 % 3 != 0  # cubic != 1
    return True  # case d: all of O-sharp


@lru_cache(maxsize=128)
def _sextic_exponent_table(r: int) -> bytes:
    """For each residue a + b*w mod a prime r, the exponent of the
    sextic symbol over r*Z[w] (summed over the ideals above r), or the
    NON_UNIT sentinel.  Indexed by a * r + b."""
    if r < 5 or r % 3 == 0:
        raise ValueError("residue tables require a prime r >= 5, r != 3")
    table = bytearray([NON_UNIT]) * (r * r)
    if r % 3 == 1:
        pair = ideals_above(r)
        data = []
        for ideal in pair:
            w0 = ideal.omega_residue()
            g = ideal.generator
            unit_table = _split_unit_table(g.a, g.b, r)
            data.append((w0, unit_table))
        for a in range(r):
            for b in range(r):
                total = 0
                for w0, unit_table in data:
                    x = (a + b * w0) % r
                    if x == 0:
                        total = NON_UNIT
                        break
                    total += unit_table[pow(x, (r - 1) // 6, r)]
                if total != NON_UNIT:
                    table[a * r + b] = total % 6
    else:
        units = {}
        for e in range(6):
            u = EisensteinInt(0, 1) ** e
            units[(u.a % r, u.b % r)] = e
        exp = (r * r - 1) // 6
        for a in range(r):
            for b in range(r):
                if a == 0 and b == 0:
                    continue
                table[a * r + b] = units[_pair_pow((a, b), exp, r)]
    return bytes(table)


def _residue_scan(k: int, n: int):
    """Yield (a, b, e6(lam), e6(1 - lam)) over lam = a + b*w in Z[w]/n.

    n is a multiple of rad(k): the symbols depend on lam mod rad(k)
    only.  The per-prime multiplicities of k are folded into the
    exponents; lam with lam(1 - lam) not a unit are skipped.
    """
    fac = sorted(factorint(k).items())
    tables = [(r, e, _sextic_exponent_table(r)) for r, e in fac]
    for a in range(n):
        for b in range(n):
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
    """(#O-sharp, #M_k, #M_k^[1]) for any k >= 5 coprime to 6."""
    case = mk_case(k)
    rad = prod(factorint(k))
    n_ok = n_m = n_m1 = 0
    for _, _, e6, e6c in _residue_scan(k, rad):
        n_ok += 1
        if _in_m(case, e6):
            n_m += 1
            if (e6 + e6c) % 3 == 0:
                n_m1 += 1
    lift = (k // rad) ** 2  # residues mod k above each residue mod rad(k)
    return n_ok * lift, n_m * lift, n_m1 * lift


def ok_sharp(k: int) -> set[EisensteinInt]:
    """Residues lam mod k*Z[w] with lam and 1 - lam both units."""
    return {EisensteinInt(a, b) for a, b, _, _ in _residue_scan(k, k)}


def m_k_set(k: int) -> set[EisensteinInt]:
    """The residues mod k*Z[w] compatible with membership in N_k."""
    case = mk_case(k)
    return {
        EisensteinInt(a, b)
        for a, b, e6, _ in _residue_scan(k, k)
        if _in_m(case, e6)
    }


def m_k1_set(k: int) -> set[EisensteinInt]:
    """The residues in M_k whose lam(1 - lam) is a cube mod k."""
    case = mk_case(k)
    return {
        EisensteinInt(a, b)
        for a, b, e6, e6c in _residue_scan(k, k)
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


def predicted_density(k: int) -> Fraction:
    """The conjectural density of Type 1 primes in N_k."""
    return predict(k).density


# ---------------------------------------------------------------------------
# Per-ideal class counts and the genus-4 curve C6

def _field_elements(K: PrimeIdealK):
    """All elements of the residue field besides 0 and 1, with their
    sextic exponent and that of their complement 1 - x."""
    if K.kind == "split":
        p = K.residue_norm
        g = K.generator
        unit_table = _split_unit_table(g.a, g.b, p)
        exp = [0] * p
        for x in range(1, p):
            exp[x] = unit_table[pow(x, (p - 1) // 6, p)]
        for x in range(2, p):
            yield exp[x], exp[(1 - x) % p]
    else:
        k = K.generator.a
        table = _sextic_exponent_table(k)
        for a in range(k):
            for b in range(k):
                if (a, b) in ((0, 0), (1, 0)):
                    continue
                yield table[a * k + b], table[((1 - a) % k) * k + (-b) % k]


@lru_cache(maxsize=512)
def _m_K1_table(K: PrimeIdealK) -> dict[tuple[int, int], int]:
    """Counts of lam in the residue field of K by the pair of classes
    ((lam/K)_6, (lam(1-lam)/K)_3)."""
    counts: dict[tuple[int, int], int] = {}
    for e6, e6c in _field_elements(K):
        key = (e6 % 6, 2 * (e6 + e6c) % 6)
        counts[key] = counts.get(key, 0) + 1
    return counts


def m_K1_sub(zeta: Unit6, xi: Unit6, K: PrimeIdealK) -> int:
    """#{lam in the residue field of K: (lam/K)_6 = zeta and
    (lam(1-lam)/K)_3 = xi}."""
    if xi.exp % 2 != 0:
        raise ValueError("xi must be a cube root of unity")
    return _m_K1_table(K).get((zeta.exp, xi.exp), 0)


def e_term(zeta: Unit6, xi: Unit6) -> int:
    """Boundary contribution of C6: 6 from z-axis points when zeta = 1,
    3 from the blown-up origin when zeta^2 = xi, 3 from infinity when
    zeta^4 = xi."""
    total = 0
    if zeta.exp == 0:
        total += 6
    if (zeta ** 2) == xi:
        total += 3
    if (zeta ** 4) == xi:
        total += 3
    return total


def c6_count_trace(zeta: Unit6, xi: Unit6, K: PrimeIdealK) -> int:
    """#C6 for any witnesses of classes (zeta, xi), by the exact
    trace formula over the primary generator of K.

    The Jacobian of C6 splits as a product of the four curves
    y^2 = x^3 + kappa with kappa = 16 d^2, 4 g^3 d^4, g^5 d^2, g d^2
    (substituting the C6 equation into (-d x / z^2, g d z^3) gives
    Y^2 - X^3 = +g d^2), so each trace term is the unit
    (4 kappa / K)_6 times the conjugate generator.
    """
    if xi.exp % 2 != 0:
        raise ValueError("xi must be a cube root of unity")
    N = K.residue_norm
    pi_bar = K.generator.conjugate()
    eps = sextic_symbol(2, K) ** 2
    total = N + 1
    total += (xi.as_eisenstein() * pi_bar).trace
    total += ((eps ** 2 * zeta ** 3 * xi ** 2).as_eisenstein() * pi_bar).trace
    total += ((eps * zeta ** 5 * xi).as_eisenstein() * pi_bar).trace
    total += ((eps * zeta * xi).as_eisenstein() * pi_bar).trace
    return total


def class_witness_sextic(K: PrimeIdealK, zeta: Unit6) -> EisensteinInt:
    """The first residue (in scan order) whose sextic symbol is zeta."""
    if K.kind == "split":
        for x in range(1, K.residue_norm):
            cand = EisensteinInt(x, 0)
            if sextic_symbol(cand, K) == zeta:
                return cand
    else:
        k = K.generator.a
        for a in range(k):
            for b in range(k):
                if (a, b) == (0, 0):
                    continue
                cand = EisensteinInt(a, b)
                if sextic_symbol(cand, K) == zeta:
                    return cand
    raise ArithmeticError(f"no residue of class {zeta} mod {K.generator}")


def class_witness_cubic(K: PrimeIdealK, xi: Unit6) -> EisensteinInt:
    """The first residue (in scan order) whose cubic symbol is xi."""
    if xi.exp % 2 != 0:
        raise ValueError("xi must be a cube root of unity")
    if K.kind == "split":
        for x in range(1, K.residue_norm):
            cand = EisensteinInt(x, 0)
            if sextic_symbol(cand, K) ** 2 == xi:
                return cand
    else:
        k = K.generator.a
        for a in range(k):
            for b in range(k):
                if (a, b) == (0, 0):
                    continue
                cand = EisensteinInt(a, b)
                if sextic_symbol(cand, K) ** 2 == xi:
                    return cand
    raise ArithmeticError(f"no residue of class {xi} mod {K.generator}")


def c6_count_bruteforce(
    gamma: EisensteinInt, delta: EisensteinInt, K: PrimeIdealK
) -> int:
    """#C6 by direct point enumeration over the residue field.

    Affine points with x != 0 come in threes (the cube roots of
    gamma z^6 (1 - gamma z^6) / delta); the boundary components
    contribute exactly e((gamma/K)_6, (delta/K)_3).
    """
    zeta = sextic_symbol(gamma, K)
    xi = sextic_symbol(delta, K) ** 2
    N = K.residue_norm
    count = 0
    if K.kind == "split":
        p = N
        g = K.reduce(gamma)
        d_inv = pow(K.reduce(delta), -1, p)
        cube_exp = (p - 1) // 3
        for z in range(1, p):
            u = g * pow(z, 6, p) % p
            w = u * (1 - u) % p
            if w and pow(w * d_inv % p, cube_exp, p) == 1:
                count += 3
    else:
        k = K.generator.a
        g = K.reduce(gamma)
        d = K.reduce(delta)
        d_inv = _pair_pow(d, k * k - 2, k)  # d^(N-2) = d^(-1)
        cube_exp = (k * k - 1) // 3
        for a in range(k):
            for b in range(k):
                if (a, b) == (0, 0):
                    continue
                z6 = _pair_pow((a, b), 6, k)
                gz6 = _pair_mul(g, z6, k)
                one_minus = ((1 - gz6[0]) % k, (-gz6[1]) % k)
                w = _pair_mul(gz6, one_minus, k)
                if w == (0, 0):
                    continue
                if _pair_pow(_pair_mul(w, d_inv, k), cube_exp, k) == (1, 0):
                    count += 3
    return count + e_term(zeta, xi)
