"""End-to-end acceptance gate: exact desk-scale reproductions.

Every test here recomputes a frozen reference result from scratch through
the public API — pair censuses to 10^7, long-cycle verifications, residue
table rows, closed-form identities, character invariants, and constructor
round-trips.  Values are exact unless a tolerance is stated inline.

The full file takes roughly ten minutes on one core; the two 10^7 pair
censuses dominate.  Set ECALIQUOT_ACCEPTANCE_1E8=1 to also run the 10^8
census (about an hour per core).
"""

from __future__ import annotations

import math
import os
from fractions import Fraction
from functools import lru_cache

import pytest
from sympy import isprime

from ecaliquot.aliquot import (
    aliquot_cycles_up_to,
    classify_type1,
    j0_triple_case_values,
    verify_cycle,
)
from ecaliquot.arith import primes_in_range
from ecaliquot.cm_density import (
    c6_count_bruteforce,
    c6_count_trace,
    class_witness_cubic,
    class_witness_sextic,
    m1_counts_formula,
    m_counts,
    m_counts_formula,
    mk_case,
    predicted_density,
    r_of_k,
)
from ecaliquot.constructor import build_cycle_curve
from ecaliquot.curves_mod_p import (
    CurveFp,
    CurveQ,
    count_points,
    count_points_bsgs,
    count_points_cm_j0,
    count_points_naive,
    grossencharacter_j0,
    reduce_curve,
)
from ecaliquot.eisenstein import (
    EisensteinInt,
    PrimeIdealK,
    Unit6,
    ideals_above,
    norm,
    sextic_symbol,
)
from ecaliquot.harness import (
    ExperimentConfig,
    run_density_report,
    run_pair_sweep,
    run_reference_pair_check,
)

WORKERS = 4

# y^2 + y = x^3 - x and y^2 + y = x^3 + x^2: the two rank-one curves used
# for the 10^7 pair censuses.
CURVE_37A = CurveQ(0, 0, 1, -1, 0)
CURVE_43A = CurveQ(0, 1, 1, 0, 0)

PAIRS_37A_1E7 = ((1622311, 1622471),)
PAIRS_43A_1E7 = (
    (853, 883),
    (77761, 77999),
    (1147339, 1148359),
    (1447429, 1447561),
)
PAIRS_43A_1E8 = PAIRS_43A_1E7 + ((82459561, 82471789),)

FIRST_SIX_MORDELL2 = (
    (13, 19),
    (139, 163),
    (541, 571),
    (613, 661),
    (757, 787),
    (1693, 1741),
)

# CM curves of class number one, keyed by |discriminant| of the CM field.
CM_CURVES = {
    11: CurveQ(0, -1, 1, -7, 10),
    19: CurveQ(0, 0, 1, -38, 90),
    43: CurveQ(0, 0, 1, -860, 9707),
    67: CurveQ(0, 0, 1, -7370, 243528),
    163: CurveQ(0, 0, 1, -2174420, 1234136692),
}

TRIPLE_CURVE = CurveQ(0, 0, 0, -25, -8)
TRIPLE_PRINTED = (83, 79, 73)

CYCLE14_CURVE = CurveQ(
    0, 0, 0, 176209333661915432764478, 60625229794681596832262
)
CYCLE14 = (23, 31, 41, 47, 59, 67, 73, 79, 71, 61, 53, 43, 37, 29)

CYCLE25_CURVE = CurveQ(
    0,
    0,
    0,
    4545482133607498579268567738514832922289740324532,
    595867265462112118291430245894379464967885794713,
)

# Residue-count rows (k, #O^#, #M_k, #M_k^[1]) covering every congruence
# case, split and inert alike.
RESIDUE_ROWS = (
    (37, 1225, 408, 144),
    (17, 287, 96, 36),
    (13, 121, 60, 20),
    (5, 23, 12, 4),
    (19, 289, 192, 72),
    (71, 5039, 3360, 1152),
    (7, 25, 25, 13),
    (11, 119, 119, 47),
)

PRIME_DENSITIES = {
    5: Fraction(1, 3),
    7: Fraction(13, 25),
    11: Fraction(47, 119),
    13: Fraction(1, 3),
    17: Fraction(3, 8),
    19: Fraction(3, 8),
    23: Fraction(191, 527),
    29: Fraction(1, 3),
    31: Fraction(301, 841),
    37: Fraction(6, 17),
    41: Fraction(1, 3),
    43: Fraction(589, 1681),
    47: Fraction(767, 2207),
    53: Fraction(9, 26),
    59: Fraction(1199, 3479),
    61: Fraction(1, 3),
    67: Fraction(1453, 4225),
    71: Fraction(12, 35),
    73: Fraction(12, 35),
    79: Fraction(2029, 5929),
    83: Fraction(2351, 6887),
    89: Fraction(15, 44),
    97: Fraction(1, 3),
}

COMPOSITE_DENSITIES = {
    35: Fraction(43, 115),
    55: Fraction(949, 2737),
    77: Fraction(1, 3),
    85: Fraction(1, 3),
    323: Fraction(43, 128),
    629: Fraction(3267, 9766),
    703: Fraction(1097, 3278),
    901: Fraction(3738, 11189),
    175: Fraction(43, 115),
    245: Fraction(1, 3),
    385: Fraction(1, 3),
    455: Fraction(4699, 13915),
}

REDUCED_SCALE_DENSITIES = (
    (5, Fraction(1, 3)),
    (7, Fraction(13, 25)),
    (11, Fraction(47, 119)),
    (13, Fraction(1, 3)),
)


def _memoized_counter(E: CurveQ, backend: str):
    @lru_cache(maxsize=None)
    def count(p: int) -> int:
        return count_points(reduce_curve(E, p), backend)

    return count


@pytest.fixture(scope="module")
def sweep_37a_1e7():
    return run_pair_sweep(
        ExperimentConfig(
            curve=CURVE_37A, x_bound=10**7, backend="bsgs", workers=WORKERS
        )
    )


@pytest.fixture(scope="module")
def reference_check_1e7():
    return run_reference_pair_check(10**7, workers=WORKERS)


@pytest.fixture(scope="module")
def sweep_43a_chains_1e6():
    return run_pair_sweep(
        ExperimentConfig(
            curve=CURVE_43A,
            x_bound=10**6,
            lengths=(2, 3),
            backend="bsgs",
            workers=WORKERS,
        )
    )


@pytest.fixture(scope="module")
def sweep_43a_chains_1e5():
    return run_pair_sweep(
        ExperimentConfig(
            curve=CURVE_43A,
            x_bound=10**5,
            lengths=(2, 3),
            backend="bsgs",
            workers=WORKERS,
        )
    )


@pytest.fixture(scope="module")
def sweep_mordell2_1e6():
    return run_pair_sweep(
        ExperimentConfig(k=2, x_bound=10**6, backend="cm", workers=WORKERS)
    )


class TestPairCensusTo1e7:
    """The two rank-one curves admit exactly the frozen pair lists."""

    def test_37a_single_pair(self, sweep_37a_1e7):
        assert sweep_37a_1e7.pairs == PAIRS_37A_1E7

    def test_43a_four_pairs(self, reference_check_1e7):
        assert reference_check_1e7.computed == PAIRS_43A_1E7


class TestMordellTwoCensus:
    """y^2 = x^3 + 2 below 10^6: first six pairs exactly, more than 800."""

    def test_first_six_pairs(self, sweep_mordell2_1e6):
        assert sweep_mordell2_1e6.pairs[:6] == FIRST_SIX_MORDELL2

    def test_total_count(self, sweep_mordell2_1e6):
        assert sweep_mordell2_1e6.q_pairs > 800
        # exact total frozen from two independent backends
        assert sweep_mordell2_1e6.q_pairs == 804


class TestLongCycleFixtures:
    """Hand-checkable cycles of length 3, 14, and 25 verify end to end."""

    def test_triple_as_printed(self):
        assert verify_cycle(TRIPLE_CURVE, TRIPLE_PRINTED)

    def test_triple_found_normalized(self):
        found = aliquot_cycles_up_to(TRIPLE_CURVE, 3, 100, "naive")
        assert [c.primes for c in found] == [(73, 83, 79)]

    def test_fourteen_cycle(self):
        assert verify_cycle(CYCLE14_CURVE, CYCLE14)

    def test_twenty_five_cycle_from_41(self):
        count = _memoized_counter(CYCLE25_CURVE, "bsgs")
        walk = [41]
        while True:
            nxt = count(walk[-1])
            if nxt == 41:
                break
            walk.append(nxt)
            assert len(walk) <= 25
        assert len(walk) == 25
        assert len(set(walk)) == 25
        assert verify_cycle(CYCLE25_CURVE, tuple(walk))


class TestCmPairRatio:
    """Q(10^5) = 48 on the |D| = 11 curve, and Q/N = 0.238 +- 0.001."""

    def test_ratio(self):
        report = run_pair_sweep(
            ExperimentConfig(
                curve=CM_CURVES[11],
                x_bound=10**5,
                backend="bsgs",
                workers=WORKERS,
            )
        )
        assert report.q_pairs == 48
        assert abs(report.pair_ratio - 0.238) <= 0.001


class TestResidueTableRows:
    """Brute-force residue counts reproduce all eight frozen rows."""

    @pytest.mark.parametrize("k,n_ok,n_m,n_m1", RESIDUE_ROWS)
    def test_row(self, k, n_ok, n_m, n_m1):
        assert m_counts(k) == (n_ok, n_m, n_m1)
        assert predicted_density(k) == Fraction(n_m1, n_m)


class TestResidueClosedForms:
    """Case-by-case closed forms equal brute-force set sizes, 5 <= k <= 97."""

    @pytest.mark.parametrize("k", sorted(PRIME_DENSITIES))
    def test_closed_forms(self, k):
        _, n_m, n_m1 = m_counts(k)
        case = mk_case(k)
        assert m_counts_formula(k)[case] == n_m
        assert m1_counts_formula(k)[case] == n_m1


class TestDensityPredictions:
    """1/3 + R(k) equals the exact residue ratio and the frozen fractions."""

    @pytest.mark.parametrize("k", sorted(PRIME_DENSITIES))
    def test_prime_identity(self, k):
        _, n_m, n_m1 = m_counts(k)
        assert Fraction(1, 3) + r_of_k(k) == Fraction(n_m1, n_m)
        assert predicted_density(k) == PRIME_DENSITIES[k]

    @pytest.mark.parametrize("k", sorted(COMPOSITE_DENSITIES))
    def test_composite_prediction(self, k):
        assert predicted_density(k) == COMPOSITE_DENSITIES[k]


class TestSexticCurveCounts:
    """Character-sum point counts match brute force for every prime ideal
    of norm <= 2500 (residue characteristic coprime to 6) in all 18
    residue classes."""

    def test_trace_equals_bruteforce(self):
        for r in primes_in_range(5, 2501):
            for K in ideals_above(r):
                if K.residue_norm > 2500:
                    continue
                for ze in range(6):
                    for xe in (0, 2, 4):
                        zeta, xi = Unit6(ze), Unit6(xe)
                        gamma = class_witness_sextic(K, zeta)
                        delta = class_witness_cubic(K, xi)
                        assert c6_count_bruteforce(
                            gamma, delta, K
                        ) == c6_count_trace(zeta, xi, K), (r, ze, xe)

    @pytest.mark.parametrize("k", [5, 11, 17, 23, 29, 41, 47])
    def test_inert_simplified_counts(self, k):
        K = PrimeIdealK.above(k)
        one = Unit6(0)
        assert c6_count_trace(Unit6(0), one, K) == k * k + 1 + 8 * k
        assert c6_count_trace(Unit6(3), one, K) == k * k + 1 - 4 * k
        for ze in (1, 2, 4, 5):
            assert c6_count_trace(Unit6(ze), one, K) == k * k + 1 + 2 * k


class TestCharacterInvariants:
    """For every prime p < 10^5 with prime, coprime image q on
    y^2 = x^3 + k: the character value psi satisfies
    psi(1 - psi) = 1 mod 3, norm(1 - psi) = q, the symbol-based type 1
    classification agrees with the trace at q, and the sextic symbol of k
    is a primitive sixth root of unity."""

    @pytest.mark.parametrize("k", [2, 3, 5, 7, 11])
    def test_invariants(self, k):
        one = EisensteinInt(1, 0)
        checked = 0
        for p in primes_in_range(5, 10**5):
            if (6 * k) % p == 0:
                continue
            q = count_points_cm_j0(k, p)
            if not isprime(q) or (6 * k) % q == 0:
                continue
            psi = grossencharacter_j0(k, p)
            prod = psi * (one - psi)
            assert prod.a % 3 == 1 and prod.b % 3 == 0, (k, p)
            assert norm(one - psi) == q, (k, p)
            verdict = classify_type1(k, p)
            a_q = q + 1 - count_points_cm_j0(k, q)
            assert verdict.is_type1 == (
                a_q in (q + 1 - p, -(q + 1 - p))
            ), (k, p)
            if verdict.is_type1:
                assert a_q == verdict.epsilon * (q + 1 - p), (k, p)
            for K in ideals_above(p):
                assert sextic_symbol(EisensteinInt(k, 0), K).exp in (1, 5), (
                    k,
                    p,
                )
            checked += 1
        assert checked > 0


class TestBsgsAtMestreBound:
    """At p = 233, the first prime above Mestre's bound, BSGS counts every
    good y^2 = x^3 + ax + b exactly."""

    def test_exhaustive_at_233(self):
        p = 233
        for a in range(p):
            for b in range(p):
                E = CurveFp.short(p, a, b)
                if E.good:
                    assert count_points_bsgs(E) == count_points_naive(E), (a, b)


class TestTraceDichotomy:
    """On each class-number-one CM curve, every prime image q of a good
    prime p >= 5 satisfies #E(F_q) in {p, 2q + 2 - p}; consequently no
    aliquot cycle of length 3..6 starts below 10^5."""

    @pytest.mark.parametrize("d", sorted(CM_CURVES))
    def test_dichotomy_and_no_long_cycles(self, d):
        E = CM_CURVES[d]
        disc = E.discriminant()
        count = _memoized_counter(E, "bsgs")
        checked = 0
        for p in primes_in_range(5, 10**5):
            if disc % p == 0:
                continue
            walk = [p]
            x = p
            for _ in range(6):
                if disc % x == 0:
                    break
                y = count(x)
                if not isprime(y):
                    break
                if len(walk) == 1 and disc % y != 0:
                    assert count(y) in (p, 2 * y + 2 - p), (d, p, y)
                    checked += 1
                if y == p:
                    assert len(walk) not in (3, 4, 5, 6), (d, walk)
                    break
                if y in walk:
                    break
                walk.append(y)
                x = y
        assert checked > 0

    def test_search_agrees(self):
        assert aliquot_cycles_up_to(CM_CURVES[11], 3, 10**5, "bsgs") == []


class TestAllTypeOne:
    """For y^2 = x^3 + 2 and y^2 = x^3 + 16, every prime below 10^5 with
    prime, coprime image is type 1."""

    @pytest.mark.parametrize("k", [2, 16])
    def test_every_prime_type1(self, k):
        report = run_pair_sweep(
            ExperimentConfig(k=k, x_bound=10**5, backend="cm", workers=WORKERS)
        )
        assert report.n_type1 == report.n_k
        if k == 2:
            assert report.n_k > 0

    def test_16_image_never_prime(self):
        # (0, 4) is a rational 3-torsion point on y^2 = x^3 + 16, so every
        # good count is divisible by 3; the k = 16 case above holds with
        # no prime below 10^5 having a prime, coprime image.
        E = CurveQ.mordell(16)
        for p in primes_in_range(5, 2000):
            assert count_points(reduce_curve(E, p), "naive") % 3 == 0


class TestTripleObstruction:
    """The eight case polynomials never vanish on admissible (p, q), and
    no length-3 cycle exists below 10^6 on y^2 = x^3 + k."""

    def test_case_values_positive(self):
        for p in primes_in_range(11, 10**4 + 1):
            s = math.isqrt(4 * p)
            for q in range(p + 1 - s, p + 2 + s):
                values = j0_triple_case_values(p, q)
                assert all(v > 0 for v in values.values()), (p, q)

    @pytest.mark.parametrize("k", [2, 3, 5, 7])
    def test_no_triples_below_1e6(self, k):
        assert aliquot_cycles_up_to(CurveQ.mordell(k), 3, 10**6, "cm") == []


class TestChainCensus:
    """Counts of primes starting chains of length 2 and 3 on
    y^2 + y = x^3 + x^2."""

    def test_at_1e6(self, sweep_43a_chains_1e6):
        assert sweep_43a_chains_1e6.chain_count(2) == 3099
        assert sweep_43a_chains_1e6.chain_count(3) == 116

    def test_at_1e5(self, sweep_43a_chains_1e5):
        assert sweep_43a_chains_1e5.chain_count(2) == 485
        assert sweep_43a_chains_1e5.chain_count(3) == 21


class TestReferencePairPrefix:
    """Recomputed pair lists match the frozen reference prefix."""

    def test_at_1e6(self):
        check = run_reference_pair_check(10**6, workers=WORKERS)
        assert check.matches
        assert len(check.computed) == 2

    def test_at_1e7(self, reference_check_1e7):
        assert reference_check_1e7.matches
        assert len(reference_check_1e7.computed) == 4

    @pytest.mark.skipif(
        not os.environ.get("ECALIQUOT_ACCEPTANCE_1E8"),
        reason="hour-long census; set ECALIQUOT_ACCEPTANCE_1E8=1 to run",
    )
    def test_at_1e8(self):
        check = run_reference_pair_check(10**8, workers=WORKERS)
        assert check.matches
        assert check.computed == PAIRS_43A_1E8


class TestConstructorRoundTrip:
    """Built curves carry verified aliquot cycles of the requested lengths."""

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 8])
    def test_single_length(self, length):
        E, cycles = build_cycle_curve([length])
        assert [len(c.primes) for c in cycles] == [length]
        for cycle in cycles:
            assert verify_cycle(E, cycle.primes)

    def test_two_lengths(self):
        E, cycles = build_cycle_curve([2, 3])
        assert sorted(len(c.primes) for c in cycles) == [2, 3]
        for cycle in cycles:
            assert verify_cycle(E, cycle.primes)


class TestReducedScaleDensities:
    """Observed type 1 densities at 10^6 sit within 0.02 of the exact
    local predictions."""

    @pytest.mark.parametrize("k,predicted", REDUCED_SCALE_DENSITIES)
    def test_density(self, k, predicted):
        row = run_density_report(k, 10**6, workers=WORKERS, backend="cm")
        assert row.predicted == predicted
        assert abs(row.experimental - float(predicted)) <= 0.02
