"""Prime windows, local curve realization, and CRT gluing."""

from math import isqrt

import pytest
from sympy import isprime, nextprime, primerange

from ecaliquot.aliquot import AliquotCycle, aliquot_cycles_up_to, verify_cycle
from ecaliquot.arith import primes_in_range
from ecaliquot.constructor import (
    PrimeWindow,
    build_cycle_curve,
    crt_lift,
    curve_with_order,
    find_prime_window,
)
from ecaliquot.curves_mod_p import (
    CurveQ,
    count_points,
    count_points_naive,
    reduce_curve,
)


class TestPrimeWindow:
    def test_hasse_validation(self):
        PrimeWindow((5, 7))
        with pytest.raises(ValueError):
            PrimeWindow((5, 23))  # |5 + 1 - 23| > 2 sqrt(5)

    def test_known_small_windows(self):
        assert find_prime_window(1, 5).primes == (5,)
        assert find_prime_window(2, 5).primes == (5, 7)
        assert find_prime_window(3, 5).primes == (7, 13, 11)
        assert find_prime_window(5, 5).primes == (7, 13, 19, 17, 11)
        assert find_prime_window(8, 5).primes == (23, 31, 41, 47, 53, 43, 37, 29)

    def test_fourteen_window(self):
        w = find_prime_window(14, 5)
        assert w.primes == (23, 31, 41, 47, 59, 67, 73, 79, 71, 61, 53, 43, 37, 29)

    def test_windows_use_consecutive_primes(self):
        for L in (2, 3, 6, 9, 14, 20):
            w = find_prime_window(L, 5)
            run = w.sorted_primes
            assert all(isprime(p) for p in run)
            for a, b in zip(run, run[1:]):
                assert int(nextprime(a)) == b

    def test_start_hint_respected(self):
        w = find_prime_window(2, 100)
        assert min(w.primes) >= 100

    def test_matches_the_literal_scan(self):
        # The first run of L consecutive primes from max(5, hint) whose
        # zigzag order keeps |p + 1 - next| <= 2 sqrt(p) at every cyclic hop.
        primes = list(primerange(5, 1000))
        for L in range(1, 31):
            for hint in range(5, 201):
                i = next(i for i, p in enumerate(primes) if p >= hint)
                while True:
                    run = primes[i : i + L]
                    order = run[0::2] + run[1::2][::-1]
                    hops = zip(order, order[1:] + order[:1])
                    if all((p + 1 - q) ** 2 <= 4 * p for p, q in hops):
                        break
                    i += 1
                assert len(run) == L
                assert find_prime_window(L, hint).primes == tuple(order)

    def test_zigzag_structure(self):
        w = find_prime_window(6, 5)
        run = list(w.sorted_primes)
        assert w.primes == tuple(run[0::2]) + tuple(run[1::2][::-1])


class TestCurveWithOrder:
    def test_small_prime_exhaustive(self):
        E = curve_with_order(13, 19)
        assert E.p == 13 and count_points_naive(E) == 19

    def test_anomalous_order(self):
        E = curve_with_order(5, 5)
        assert count_points_naive(E) == 5

    def test_every_small_hop_has_its_order(self):
        # Every 5 <= p < 100 and every N of the Hasse window: by
        # Deuring's theorem some curve has N points, so the search ends.
        for p in primes_in_range(5, 100):
            for N in range(p + 1 - isqrt(4 * p), p + 2 + isqrt(4 * p)):
                E = curve_with_order(p, N)
                assert E.p == p and count_points_naive(E) == N, (p, N)

    @pytest.mark.parametrize(
        "p, N, a4, a6",
        [
            (101, 97, 11, 45),
            (131, 149, 98, 123),
            (229, 241, 114, 20),
            (1009, 1050, 658, 410),
            (10007, 10007, 4312, 3091),
        ],
    )
    def test_seeded_curves_are_pinned(self, p, N, a4, a6):
        E = curve_with_order(p, N)
        assert (E.a1, E.a2, E.a3, E.a4, E.a6) == (0, 0, 0, a4, a6)

    def test_larger_prime_randomized(self):
        E = curve_with_order(1009, 1009 + 1 + 40)
        assert count_points(E) == 1050

    def test_deterministic(self):
        assert curve_with_order(131, 149) == curve_with_order(131, 149)

    def test_hasse_violation_rejected(self):
        with pytest.raises(ValueError):
            curve_with_order(13, 40)
        with pytest.raises(ValueError):
            curve_with_order(4, 5)


class TestCrtLift:
    def test_round_trip(self):
        locals_ = [curve_with_order(5, 7), curve_with_order(7, 5)]
        E = crt_lift(locals_)
        for loc in locals_:
            red = reduce_curve(E, loc.p)
            assert (red.a4, red.a6) == (loc.a4, loc.a6)
            assert red.good

    def test_least_nonnegative_residues(self):
        locals_ = [curve_with_order(5, 7), curve_with_order(7, 5)]
        E = crt_lift(locals_)
        assert 0 <= E.a4 < 35 and 0 <= E.a6 < 35

    def test_rejects_duplicate_primes(self):
        with pytest.raises(ValueError):
            crt_lift([curve_with_order(5, 7), curve_with_order(5, 5)])


class TestBuildCycleCurve:
    def test_single_pair(self):
        E, cycles = build_cycle_curve([2])
        assert cycles[0].primes == (5, 7)
        assert verify_cycle(E, (5, 7))
        assert aliquot_cycles_up_to(E, 2, 5) == [AliquotCycle((5, 7))]

    def test_triple(self):
        E, cycles = build_cycle_curve([3])
        assert cycles[0].primes == (7, 13, 11)
        assert verify_cycle(E, cycles[0].primes)

    def test_simultaneous_lengths(self):
        E, cycles = build_cycle_curve([2, 3])
        assert [c.length for c in cycles] == [2, 3]
        spans = [set(c.primes) for c in cycles]
        assert spans[0].isdisjoint(spans[1])
        for c in cycles:
            assert verify_cycle(E, c.primes)

    def test_rejects_bad_lengths(self):
        with pytest.raises(ValueError):
            build_cycle_curve([])
        with pytest.raises(ValueError):
            build_cycle_curve([0, 2])


class TestPublishedCurves:
    def test_fourteen_cycle_curve(self):
        E = CurveQ.short(176209333661915432764478, 60625229794681596832262)
        assert verify_cycle(
            E, (23, 31, 41, 47, 59, 67, 73, 79, 71, 61, 53, 43, 37, 29)
        )

    def test_twenty_five_cycle_curve(self):
        E = CurveQ.short(
            4545482133607498579268567738514832922289740324532,
            595867265462112118291430245894379464967885794713,
        )
        cycle = (41, 47, 59, 67, 73, 83, 97, 103, 109, 127, 137, 149, 157,
                 151, 139, 131, 113, 107, 101, 89, 79, 71, 61, 53, 43)
        assert verify_cycle(E, cycle)
