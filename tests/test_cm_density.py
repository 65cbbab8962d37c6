"""Tests for the Type 1 density analysis on y^2 = x^3 + k.

The frozen integer tables (set sizes, densities) were computed by
direct enumeration over the residue ring Z[w]/k and re-derived from
the closed-form expressions; the C6 point counts are checked three
independent ways (trace formula, 18-to-1 orbit count, brute force).
"""

from collections import Counter
from fractions import Fraction
from math import prod

import pytest

from ecaliquot import cm_density
from ecaliquot.arith import primes_in_range
from ecaliquot.cm_density import (
    _c6_counts_trace,
    _class_witnesses,
    c6_count_bruteforce,
    c6_count_trace,
    class_witness_cubic,
    class_witness_sextic,
    class_witnesses_cubic,
    class_witnesses_sextic,
    e_term,
    m1_counts_formula,
    m_counts,
    m_counts_formula,
    NON_UNIT,
    _field_exponents,
    _in_m,
    _m_K1_table,
    _residue_scan,
    _sextic_exponent_table,
    m_k1_set,
    m_k_set,
    mk_case,
    ok_sharp,
    predict,
    r_of_k,
)
from ecaliquot.eisenstein import (
    UNITS,
    EisensteinInt,
    PrimeIdealK,
    _pair_pow,
    cubic_symbol,
    ideals_above,
    sextic_symbol,
    symbol_composite,
)
from sympy import isprime

# (k, #O-sharp, #M_k, #M_k^[1]) -- the reference rows, one per case
# and splitting type, frozen from independent enumeration.
SET_SIZE_ROWS = [
    (37, 1225, 408, 144),  # case a, split
    (17, 287, 96, 36),     # case a, inert
    (13, 121, 60, 20),     # case b, split
    (5, 23, 12, 4),        # case b, inert
    (19, 289, 192, 72),    # case c, split
    (71, 5039, 3360, 1152),  # case c, inert
    (7, 25, 25, 13),       # case d, split
    (11, 119, 119, 47),    # case d, inert
]

# Predicted Type 1 densities for prime k.
PRIME_DENSITIES = {
    5: Fraction(1, 3), 7: Fraction(13, 25), 11: Fraction(47, 119),
    13: Fraction(1, 3), 17: Fraction(3, 8), 19: Fraction(3, 8),
    23: Fraction(191, 527), 29: Fraction(1, 3), 31: Fraction(301, 841),
    37: Fraction(6, 17), 41: Fraction(1, 3), 43: Fraction(589, 1681),
    47: Fraction(767, 2207), 53: Fraction(9, 26), 59: Fraction(1199, 3479),
    61: Fraction(1, 3), 67: Fraction(1453, 4225), 71: Fraction(12, 35),
    73: Fraction(12, 35), 79: Fraction(2029, 5929), 83: Fraction(2351, 6887),
    89: Fraction(15, 44), 97: Fraction(1, 3),
}

# Predicted densities for composite (and prime-power) k.
COMPOSITE_DENSITIES = {
    35: Fraction(43, 115), 55: Fraction(949, 2737), 77: Fraction(1, 3),
    85: Fraction(1, 3), 323: Fraction(43, 128), 629: Fraction(3267, 9766),
    703: Fraction(1097, 3278), 901: Fraction(3738, 11189),
    175: Fraction(43, 115), 245: Fraction(1, 3), 385: Fraction(1, 3),
    455: Fraction(4699, 13915),
}


class TestCaseClassification:
    def test_known_cases(self):
        assert mk_case(37) == "a"
        assert mk_case(17) == "a"
        assert mk_case(73) == "a"
        assert mk_case(13) == "b"
        assert mk_case(5) == "b"
        assert mk_case(19) == "c"
        assert mk_case(71) == "c"
        assert mk_case(7) == "d"
        assert mk_case(11) == "d"
        # composite: 35 = 5*7 has factors not +-1 mod 9, and 35 = 3 mod 4
        assert mk_case(35) == "d"
        # 323 = 17*19, both +-1 mod 9, and 323 = 3 mod 4
        assert mk_case(323) == "c"

    @pytest.mark.parametrize("bad", [1, 2, 3, 4, 6, 9, 15, 33])
    def test_rejects_k_not_coprime_to_six(self, bad):
        with pytest.raises(ValueError):
            mk_case(bad)


class TestSetEnumeration:
    @pytest.mark.parametrize("k,n_ok,n_m,n_m1", SET_SIZE_ROWS)
    def test_reference_set_sizes(self, k, n_ok, n_m, n_m1):
        assert m_counts(k) == (n_ok, n_m, n_m1)
        assert len(ok_sharp(k)) == n_ok
        assert len(m_k_set(k)) == n_m
        assert len(m_k1_set(k)) == n_m1

    @pytest.mark.parametrize("k", [5, 7, 11, 13, 17, 19])
    def test_set_inclusions(self, k):
        full = ok_sharp(k)
        m = m_k_set(k)
        m1 = m_k1_set(k)
        assert m1 <= m <= full

    def test_ok_sharp_size_prime_formulas(self):
        # split prime: (k-2)^2; inert prime: k^2 - 2
        assert len(ok_sharp(7)) == 5 ** 2
        assert len(ok_sharp(13)) == 11 ** 2
        assert len(ok_sharp(5)) == 23
        assert len(ok_sharp(11)) == 119

    def test_ok_sharp_multiplicative(self):
        n_ok, _, _ = m_counts(35)
        assert n_ok == 23 * 25

    def test_membership_matches_composite_symbols(self):
        # case b (k=13): lam in M_k iff (lam/k)_2 = -1; in M_k^[1] iff
        # additionally (lam(1-lam)/k)_3 = 1.  Checked against the
        # Jacobi-style symbols as an independent route.
        k = 13
        m = m_k_set(k)
        m1 = m_k1_set(k)
        for lam in sorted(ok_sharp(k), key=lambda x: (x.a, x.b)):
            quad = symbol_composite(lam, k, degree=2)
            cubic = symbol_composite(lam * (1 - lam), k, degree=3)
            assert (lam in m) == (quad == 3)
            assert (lam in m1) == (quad == 3 and cubic == 0)

    def test_membership_case_d_all_residues(self):
        assert m_k_set(7) == ok_sharp(7)
        assert m_k_set(11) == ok_sharp(11)

    def test_prime_power_lift_of_unit_count(self):
        # the unit count lifts by r^(2(e-1)) from the radical
        ok5, _, _ = m_counts(5)
        ok25, m25, m125 = m_counts(25)
        assert ok25 == 25 * ok5

    def test_square_k_has_no_admissible_residues(self):
        # (lam/25)_2 = (lam/5)_2^2 = +1 always, so the case-b condition
        # is unsatisfiable; consistently, y^2 = x^3 + 25 has the
        # rational 3-torsion point (0, 5), so no reduction has prime
        # order and the density question is void.
        assert m_counts(25)[1:] == (0, 0)
        assert m_counts(49)[1:] == (0, 0)
        with pytest.raises(ValueError):
            predict(25)


def _scan_counts(k):
    """(#O-sharp, #M_k, #M_k^[1]) by enumerating every residue mod k."""
    case = mk_case(k)
    n_ok = n_m = n_m1 = 0
    for _, _, e6, e6c in _residue_scan(k):
        n_ok += 1
        if _in_m(case, e6):
            n_m += 1
            n_m1 += (e6 + e6c) % 3 == 0
    return n_ok, n_m, n_m1


class TestCountByConvolution:
    """m_counts convolves per-ideal class counts; the residue scan over
    Z[w]/k is its oracle."""

    @pytest.mark.parametrize(
        "k",
        [k for k in range(5, 150) if k % 2 and k % 3] + [175, 245, 343],
    )
    def test_matches_residue_scan(self, k):
        assert m_counts(k) == _scan_counts(k)

    def test_seven_prime_modulus(self):
        # #O-sharp is multiplicative: (r - 2)^2 at a split r, where
        # lam and 1 - lam avoid 0 at both ideals, and r^2 - 2 at an
        # inert r.  A scan would take rad(k)^2 ~ 10^15 steps.
        primes = (5, 7, 11, 13, 17, 19, 23)
        want = prod(
            (r - 2) ** 2 if r % 3 == 1 else r * r - 2 for r in primes
        )
        assert m_counts(prod(primes))[0] == want

    @pytest.mark.parametrize(
        "r", [r for r in range(5, 300) if r % 3 == 2 and isprime(r)]
    )
    def test_inert_table_is_the_euler_power(self, r):
        units = {(u.a % r, u.b % r): e for e, u in enumerate(UNITS)}
        table = _sextic_exponent_table(r)
        assert table[0] == NON_UNIT
        for a in range(r):
            for b in range(r):
                if a or b:
                    s = _pair_pow((a, b), (r * r - 1) // 6, r)
                    assert table[a * r + b] == units[s]

    @pytest.mark.parametrize(
        "r", [r for r in range(5, 300) if r % 3 == 1 and isprime(r)]
    )
    def test_split_table_is_the_sum_over_both_ideals(self, r):
        pair = ideals_above(r)
        table = _sextic_exponent_table(r)
        for a in range(r):
            for b in range(r):
                lam = EisensteinInt(a, b)
                if any(K.reduce(lam) == 0 for K in pair):
                    assert table[a * r + b] == NON_UNIT
                else:
                    want = sum(sextic_symbol(lam, K) for K in pair) % 6
                    assert table[a * r + b] == want

    @pytest.mark.parametrize("r", [103, 101])  # split, inert
    def test_table_walks_one_residue_field(self, r, monkeypatch):
        # A split r reads the conjugate ideal's symbols off the first
        # ideal's field: (x/Kbar)_6 = (xbar/K)_6^(-1).
        walked = []

        def counting(K):
            walked.append(K)
            return _field_exponents(K)

        monkeypatch.setattr(cm_density, "_field_exponents", counting)
        _sextic_exponent_table.cache_clear()
        _sextic_exponent_table(r)
        assert walked == [ideals_above(r)[0]]


class TestClosedForms:
    @pytest.mark.parametrize("k", [p for p in range(5, 98) if isprime(p)])
    def test_formulas_match_enumeration(self, k):
        case = mk_case(k)
        _, n_m, n_m1 = m_counts(k)
        assert m_counts_formula(k)[case] == n_m
        assert m1_counts_formula(k)[case] == n_m1

    @pytest.mark.parametrize(
        "k", [65537, 1000003, 10**9 + 7, 10**12 + 39, 2**61 - 1]
    )
    def test_formulas_match_convolution_at_large_primes(self, k):
        # the residue fields have up to k^2 elements; no walk visits them
        case = mk_case(k)
        _, n_m, n_m1 = m_counts(k)
        assert m_counts_formula(k)[case] == n_m
        assert m1_counts_formula(k)[case] == n_m1

    def test_formula_rejects_composite(self):
        with pytest.raises(ValueError):
            m_counts_formula(35)
        with pytest.raises(ValueError):
            m1_counts_formula(25)


class TestDensities:
    @pytest.mark.parametrize("k,expected", sorted(PRIME_DENSITIES.items()))
    def test_prime_density_table(self, k, expected):
        assert predict(k).density == expected

    @pytest.mark.parametrize("k,expected", sorted(COMPOSITE_DENSITIES.items()))
    def test_composite_density_table(self, k, expected):
        assert predict(k).density == expected

    @pytest.mark.parametrize("k", sorted(PRIME_DENSITIES))
    def test_r_of_k_is_density_excess(self, k):
        assert Fraction(1, 3) + r_of_k(k) == PRIME_DENSITIES[k]

    def test_r_of_k_examples(self):
        assert r_of_k(7) == Fraction(14, 75)
        assert r_of_k(23) == Fraction(46, 1581)
        assert r_of_k(13) == 0
        assert r_of_k(29) == 0

    def test_excess_never_negative(self):
        for k in PRIME_DENSITIES:
            assert r_of_k(k) >= 0

    def test_predict_bundle(self):
        report = predict(23)
        assert report.k == 23
        assert report.case == "d"
        assert report.density == Fraction(191, 527)
        assert Fraction(report.m1_count, report.m_count) == report.density


class TestETerm:
    def test_values(self):
        assert e_term(0, 0) == 12
        assert e_term(3, 0) == 6  # zeta^2 = 1 = xi and zeta^4 = 1
        assert e_term(1, 2) == 3  # zeta^2 = xi only
        assert e_term(1, 4) == 3  # zeta^4 = xi only
        assert e_term(1, 0) == 0

    def test_total_over_all_classes(self):
        total = sum(e_term(z, x) for z in range(6) for x in (0, 2, 4))
        # 6 appears for zeta=1 (3 xi's), each of the two cube conditions
        # holds for exactly one xi per zeta
        assert total == 18 + 18 + 18


IDEAL_PRIMES = [5, 7, 11, 13, 17, 19, 23, 31]


class TestC6Counts:
    @pytest.mark.parametrize(
        "r", [r for r in range(5, 600) if isprime(r) and r % 3]
    )
    def test_trace_equals_orbit_count(self, r):
        # the class counts by a walk of each residue field, against the
        # trace formula and _m_K1_table, which reads them off it
        for K in ideals_above(r):
            index, exps = _field_exponents(K)
            if K.kind == "split":
                field = [(x, 0) for x in range(K.residue_norm)]
            else:
                r = K.generator.a
                field = [(a, b) for a in range(r) for b in range(r)]
            walk = Counter()
            for a, b in field:
                e, ec = exps[index(a, b)], exps[index(1 - a, -b)]
                if NON_UNIT not in (e, ec):
                    walk[e, 2 * (e + ec) % 6] += 1
            for ze in range(6):
                for xe in (0, 2, 4):
                    n = walk[ze, xe]
                    assert _m_K1_table(K).get((ze, xe), 0) == n, (K, ze, xe)
                    assert c6_count_trace(ze, xe, K) == 18 * n + e_term(ze, xe)

    def test_list_form_equals_one_class_form_above_primes_below_600(self):
        # and the four unit products of the trace formula, taken literally
        # as sums of exponents
        classes = [(z, x) for z in range(6) for x in (0, 2, 4)]
        ideals = [
            K for r in range(5, 600) if isprime(r) and r % 3 for K in ideals_above(r)
        ]
        assert len(ideals) == 157
        for K in ideals:
            pi_bar = K.generator.conjugate()
            eps = 2 * sextic_symbol(2, K)
            literal = [
                K.residue_norm
                + 1
                + sum(
                    (UNITS[e % 6] * pi_bar).trace
                    for e in (
                        xi,
                        2 * eps + 3 * zeta + 2 * xi,
                        eps + 5 * zeta + xi,
                        eps + zeta + xi,
                    )
                )
                for zeta, xi in classes
            ]
            assert _c6_counts_trace(classes, K) == literal
            assert [c6_count_trace(z, x, K) for z, x in classes] == literal

    @pytest.mark.parametrize("r", IDEAL_PRIMES)
    def test_trace_equals_bruteforce(self, r):
        for K in ideals_above(r):
            for zeta in range(6):
                for xi in (0, 2, 4):
                    gamma = class_witness_sextic(K, zeta)
                    delta = class_witness_cubic(K, xi)
                    assert c6_count_bruteforce(gamma, delta, K) == (
                        c6_count_trace(zeta, xi, K)
                    )

    @pytest.mark.parametrize("r", IDEAL_PRIMES)
    def test_class_partition(self, r):
        for K in ideals_above(r):
            total = sum(_m_K1_table(K).values())
            assert total == K.residue_norm - 2

    @pytest.mark.parametrize("r", [7, 13, 19, 31])
    def test_conjugation_symmetry(self, r):
        K, Kbar = ideals_above(r)
        table, bar = _m_K1_table(K), _m_K1_table(Kbar)
        for z in range(6):
            for x in (0, 2, 4):
                assert table[z, x] == bar[-z % 6, -x % 6]

    @pytest.mark.parametrize("k", [5, 11, 17, 23])
    def test_inert_trivial_cubic_simplification(self, k):
        # with xi = 1 the count is k^2+1 plus 8k, -4k, or 2k according
        # to zeta = 1, -1, or other
        K = PrimeIdealK.above(k)
        assert c6_count_trace(0, 0, K) == k * k + 1 + 8 * k
        assert c6_count_trace(3, 0, K) == k * k + 1 - 4 * k
        for ze in (1, 2, 4, 5):
            assert c6_count_trace(ze, 0, K) == k * k + 1 + 2 * k

    def test_witness_classes(self):
        for r in (7, 13, 5, 11):
            for K in ideals_above(r):
                for ze in range(6):
                    g = class_witness_sextic(K, ze)
                    assert sextic_symbol(g, K) == ze
                for xe in (0, 2, 4):
                    d = class_witness_cubic(K, xe)
                    assert cubic_symbol(d, K) == xe

    def test_one_scan_witnesses_below_norm_500(self):
        # each class's first residue in the scan order, by one symbol at
        # a time, at every ideal of norm <= 500
        zetas = list(range(6))
        xis = [0, 2, 4]
        ideals = 0
        for r in primes_in_range(5, 501):
            for K in ideals_above(r):
                if K.residue_norm > 500:
                    continue
                ideals += 1
                if K.kind == "split":
                    scan = [EisensteinInt(x, 0) for x in range(1, r)]
                else:
                    scan = [EisensteinInt(a, b) for a in range(r) for b in range(r)]
                    scan = [x for x in scan if x.a or x.b]
                sextic = [sextic_symbol(x, K) for x in scan]
                want = [scan[sextic.index(zeta)] for zeta in zetas]
                assert class_witnesses_sextic(K, zetas) == want, K.generator
                assert [class_witness_sextic(K, z) for z in zetas] == want
                cubic = [2 * e % 6 for e in sextic]
                want = [scan[cubic.index(xi)] for xi in xis]
                assert class_witnesses_cubic(K, xis) == want, K.generator
                assert [class_witness_cubic(K, xi) for xi in xis] == want
        assert ideals == 93

    @pytest.mark.parametrize("r", [7, 13, 19, 31, 37, 5, 11])
    def test_bruteforce_equals_literal_double_loop(self, r):
        # #{(x, z) in F* x F*: delta x^3 = gamma z^6 (1 - gamma z^6)}
        # + e, with the field's arithmetic done in Z[w] and reduced mod K.
        for K in ideals_above(r):
            if K.kind == "split":
                units = [EisensteinInt(x, 0) for x in range(1, r)]
            else:
                units = [
                    EisensteinInt(a, b)
                    for a in range(r)
                    for b in range(r)
                    if a or b
                ]
            for zeta in range(6):
                for xi in (0, 2, 4):
                    gamma = class_witness_sextic(K, zeta)
                    delta = class_witness_cubic(K, xi)
                    lhs = [K.reduce(delta * x ** 3) for x in units]
                    rhs = [
                        K.reduce(gamma * z ** 6 * (1 - gamma * z ** 6))
                        for z in units
                    ]
                    points = sum(1 for v in lhs for w in rhs if v == w)
                    assert c6_count_bruteforce(gamma, delta, K) == (
                        points + e_term(zeta, xi)
                    )

    def test_xi_must_be_cubic(self):
        K = PrimeIdealK.above(7)
        with pytest.raises(ValueError):
            c6_count_trace(0, 3, K)

    @pytest.mark.parametrize("r", [7, 5])  # split, inert
    def test_class_exponents_are_read_mod_6(self, r):
        # zeta = 7, xi = 8 and xi = -2 name the classes 1, 2 and 4
        K = PrimeIdealK.above(r)
        assert c6_count_trace(7, 8, K) == c6_count_trace(1, 2, K)
        assert c6_count_trace(7, -2, K) == c6_count_trace(1, 4, K)
        assert e_term(7, 8) == e_term(1, 2) and e_term(-5, -2) == e_term(1, 4)
        assert class_witness_sextic(K, 7) == class_witness_sextic(K, 1)
        assert class_witness_cubic(K, 8) == class_witness_cubic(K, 2)
        assert class_witness_cubic(K, -2) == class_witness_cubic(K, 4)
        assert class_witnesses_sextic(K, [7, -1]) == class_witnesses_sextic(
            K, [1, 5]
        )
        assert class_witnesses_cubic(K, [8, -2]) == class_witnesses_cubic(
            K, [2, 4]
        )
        for bad in (3, -3, 9):
            with pytest.raises(ValueError, match="cube root of unity"):
                c6_count_trace(0, bad, K)
            with pytest.raises(ValueError, match="cube root of unity"):
                class_witness_cubic(K, bad)
            with pytest.raises(ValueError, match="cube root of unity"):
                class_witnesses_cubic(K, [0, bad])

    def test_missing_class_is_named_as_a_power_of_w(self):
        K = PrimeIdealK.above(7)
        with pytest.raises(ArithmeticError, match=r"class w\^1 mod"):
            _class_witnesses(K, [7], lambda g: 0)

    def test_composite_count_by_ideal_convolution(self):
        # The #M_35^[1] count factors through the per-ideal cubic-class
        # distributions of lam(1-lam) at the ideals over 5 and 7.
        def cubic_marginal(K):
            dist = {0: 0, 2: 0, 4: 0}
            for (ze, xe), n in _m_K1_table(K).items():
                dist[xe] += n
            return dist

        n5 = cubic_marginal(PrimeIdealK.above(5))
        p7, p7bar = ideals_above(7)
        d1, d2 = cubic_marginal(p7), cubic_marginal(p7bar)
        n7 = {0: 0, 2: 0, 4: 0}
        for c1, a in d1.items():
            for c2, b in d2.items():
                n7[(c1 + c2) % 6] += a * b
        m1_conv = sum(
            n5[c5] * n7[c7]
            for c5 in (0, 2, 4)
            for c7 in (0, 2, 4)
            if (c5 + c7) % 6 == 0
        )
        assert m1_conv == m_counts(35)[2]
