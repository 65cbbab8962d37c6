"""Aliquot walks, cycles, and the CM dichotomy helpers."""

from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st
from sympy import factorint, isprime

from ecaliquot import aliquot
from ecaliquot.aliquot import (
    AliquotCycle,
    _Counter,
    _verify_step,
    _walk,
    aliquot_cycles_up_to,
    bad_trace,
    candidate_traces_j0,
    classify_type1,
    cm_next_values,
    iterate_type_map,
    j0_triple_case_values,
    l_series_coefficient,
    recursion_term,
    type_l_step,
    type_n_step,
    verify_cycle,
)
from ecaliquot.arith import prime_flags, primes_in_range
from ecaliquot.curves_mod_p import (
    MESTRE_BOUND,
    CurveQ,
    count_points,
    count_points_naive,
    reduce_curve,
    two_division_roots,
)
from ecaliquot.harness import ExperimentConfig, run_pair_sweep

E1 = CurveQ(0, 0, 1, -1, 0)
E2 = CurveQ(0, 1, 1, 0, 0)
MORDELL2 = CurveQ.mordell(2)
TRIPLE_CURVE = CurveQ.short(-25, -8)
E14 = CurveQ(1, 0, 1, 4, -6)  # 14a1: a1 and a3 both nonzero


def _pairs(E: CurveQ, X: int, backend: str = "auto") -> tuple:
    """The amicable pairs (p, q) with p <= X, from one sweep."""
    return run_pair_sweep(ExperimentConfig(curve=E, x_bound=X, backend=backend)).pairs


def _chain_count(E: CurveQ, length: int, X: int, backend: str = "auto") -> int:
    """The number of aliquot chains of length with p_1 <= X, from one sweep."""
    cfg = ExperimentConfig(curve=E, x_bound=X, lengths=(length,), backend=backend)
    return run_pair_sweep(cfg).chain_count(length)


def _hasse_primes(p: int) -> list[int]:
    """The primes N with (N - p - 1)^2 <= 4p."""
    top = p + 1 + 2 * isqrt(p) + 1
    return [N for N in primes_in_range(2, top + 1) if (N - p - 1) ** 2 <= 4 * p]


class TestNextValue:
    def test_steps(self):
        count = _Counter(MORDELL2)
        assert count.image(13) == 19
        assert count.image(19) == 13
        assert count.image(5) == 0  # count 6 is composite

    def test_bad_reduction_raises(self):
        # Counting at a prime of bad reduction raises, and the walk
        # takes no step from one.
        with pytest.raises(ValueError, match="bad reduction"):
            _Counter(E1)(37)
        assert _walk(_Counter(E1), 37, 3) == ([37], None)

    def test_composite_raises(self):
        with pytest.raises(ValueError):
            reduce_curve(MORDELL2, 9)

    def test_none_when_next_has_bad_reduction(self):
        # #E(F_11) = 7 is prime but y^2 = x^3 - 5x - 5 is singular mod 7,
        # so the walk ends at 7.
        E = CurveQ.short(-5, -5)
        assert count_points(reduce_curve(E, 11)) == 7
        assert not E.has_good_reduction(7)
        assert _walk(_Counter(E), 11, 3) == ([11, 7], None)


class TestAmicablePairs:
    def test_mordell2_first_pairs(self):
        assert _pairs(MORDELL2, 2000, backend="cm") == (
            (13, 19),
            (139, 163),
            (541, 571),
            (613, 661),
            (757, 787),
            (1693, 1741),
        )

    def test_backends_agree(self):
        assert _pairs(MORDELL2, 2000, backend="auto") == (
            _pairs(MORDELL2, 2000, backend="cm")
        )

    def test_e2_small(self):
        assert _pairs(E2, 10**4) == ((853, 883),)

    def test_pairs_are_symmetric_walks(self):
        count = _Counter(MORDELL2, "cm")
        for p, q in _pairs(MORDELL2, 2000, backend="cm"):
            assert count.image(p) == q
            assert count.image(q) == p

    def test_lying_counter_is_caught(self, monkeypatch, lying_counter):
        monkeypatch.setattr(aliquot, "_Counter", lying_counter)
        with pytest.raises(ArithmeticError, match=r"\(41, 53\)"):
            _pairs(E2, 100)

    def test_lying_counter_premises(self, lying_counter):
        # The walk from 41 reaches 53 and returns: neither count is
        # skipped as even (no root of the 2-division cubic), and each
        # lie lies in the Hasse window.
        for p, lie in lying_counter.LIES.items():
            assert not two_division_roots(p, *reduce_curve(E2, p).short_model())
            assert (lie - p - 1) ** 2 <= 4 * p
            assert count_points(reduce_curve(E2, p)) != lie

    def test_lying_search_is_caught(self, monkeypatch, lying_search):
        monkeypatch.setattr(aliquot, "_Counter", lying_search)
        with pytest.raises(ArithmeticError, match=r"\(251, 269\)"):
            _pairs(E2, 300)

    def test_lying_counters_are_caught_by_the_cycle_search(
        self, monkeypatch, lying_counter, lying_search
    ):
        cases = ((lying_counter, 100, r"\(41, 53\)"), (lying_search, 300, r"\(251, 269\)"))
        for liar, X, pair in cases:
            monkeypatch.setattr(aliquot, "_Counter", liar)
            with pytest.raises(ArithmeticError, match=pair):
                aliquot_cycles_up_to(E2, 2, X)

    def test_lying_search_premises(self, lying_search):
        # Both primes lie above MESTRE_BOUND with odd counts, so the
        # walk asks the first-match search for them, and each lie is a
        # prime of the Hasse window.
        for p, lie in lying_search.LIES.items():
            assert p > MESTRE_BOUND and isprime(lie)
            assert not two_division_roots(p, *reduce_curve(E2, p).short_model())
            assert (lie - p - 1) ** 2 <= 4 * p
            assert count_points(reduce_curve(E2, p)) != lie


class TestAliquotCycles:
    def test_length_two_matches_pairs(self):
        cycles = aliquot_cycles_up_to(MORDELL2, 2, 2000, backend="cm")
        assert tuple(c.primes for c in cycles) == _pairs(MORDELL2, 2000, backend="cm")

    def test_triple(self):
        cycles = aliquot_cycles_up_to(TRIPLE_CURVE, 3, 100)
        assert AliquotCycle((73, 83, 79)) in cycles

    def test_anomalous_primes_are_length_one_cycles(self):
        found = {c.primes[0] for c in aliquot_cycles_up_to(E2, 1, 300)}
        expected = {
            p
            for p in primes_in_range(2, 301)
            if E2.has_good_reduction(p)
            and count_points(reduce_curve(E2, p)) == p
        }
        assert found == expected

    def test_normalization_enforced(self):
        with pytest.raises(ValueError):
            AliquotCycle((83, 79, 73))
        with pytest.raises(ValueError):
            AliquotCycle((5, 7, 5))
        assert AliquotCycle.normalize((83, 79, 73)).primes == (73, 83, 79)

    def test_verify_cycle(self):
        assert verify_cycle(TRIPLE_CURVE, (73, 83, 79))
        assert not verify_cycle(TRIPLE_CURVE, (73, 83, 89))
        assert not verify_cycle(TRIPLE_CURVE, (73, 73, 79))


class TestParitySkip:
    def test_nonresidue_discriminant_forces_even_count(self):
        # The skip's one Legendre symbol, of the short model's
        # discriminant, is that of disc: one root exactly at a
        # non-residue, and then an even count above 2 for p >= 7.
        for E in (E2, E1, TRIPLE_CURVE, MORDELL2, E14):
            disc = E.discriminant()
            for p in primes_in_range(5, 3001):
                if disc % p == 0:
                    continue
                nonresidue = pow(disc % p, (p - 1) // 2, p) == p - 1
                roots = two_division_roots(p, *reduce_curve(E, p).short_model())
                assert (roots == 1) == nonresidue, (E, p)
                if nonresidue:
                    n = count_points_naive(reduce_curve(E, p))
                    assert n % 2 == 0, (E, p)
                    assert p < 7 or n > 2

    def test_full_two_torsion_skip_is_exact(self):
        # At every good p <= 3000 the cubic has three roots exactly when
        # the discriminant is a residue and 4 divides the count; a
        # residue without them leaves the count odd.  14a1 has rational
        # 2-torsion.  The step is 0 uncounted wherever there is a root.
        for E in (E2, E14, TRIPLE_CURVE):
            disc = E.discriminant()
            count = _Counter(E)
            for p in primes_in_range(5, 3001):
                if disc % p == 0:
                    continue
                residue = pow(disc % p, (p - 1) // 2, p) == 1
                n = count_points_naive(reduce_curve(E, p))
                roots = two_division_roots(p, *reduce_curve(E, p).short_model())
                assert (roots == 3) == (residue and n % 4 == 0), (E, p)
                if residue and roots == 0:
                    assert n % 2 == 1, (E, p)
                if roots and p >= 7:
                    assert count.image(p) == 0 and p not in count.memo, (E, p)

    def test_guard_keeps_prime_count_two_at_5(self):
        E = CurveQ.short(2, 0)  # #E(F_5) = 2, and disc is a non-residue mod 5
        disc = E.discriminant()
        assert pow(disc % 5, 2, 5) == 4
        assert count_points_naive(reduce_curve(E, 5)) == 2
        assert _walk(_Counter(E), 5, 2) == ([5, 2], None)
        assert _chain_count(E, 2, 5) == 1

    def test_walk_stops_uncounted_at_even_image(self):
        p = next(
            p
            for p in primes_in_range(7, 1000)
            if two_division_roots(p, *reduce_curve(E2, p).short_model())
        )
        count = _Counter(E2)
        assert _walk(count, p, 3) == ([p], 0)
        assert count.memo == {}

    def test_image_is_the_walk_step(self):
        # image(p) is #E(F_p) when that count is prime and 0 otherwise,
        # with or without a window; [500, 1500) holds some images and
        # leaves others to isprime.  auto and bsgs search above
        # MESTRE_BOUND, naive counts.
        for E in (E2, E14, TRIPLE_CURVE):
            steps = {}
            for p in primes_in_range(5, 2001):
                if E.discriminant() % p:
                    n = count_points_naive(reduce_curve(E, p))
                    steps[p] = n if isprime(n) else 0
            for backend in ("auto", "bsgs", "naive"):
                for lo, hi in ((0, 0), (2, 2200), (500, 1500)):
                    flags = prime_flags(lo, hi) if hi else b""
                    count = _Counter(E, backend, lo, flags)
                    for p, want in steps.items():
                        assert count.image(p) == want, (E, p, backend)
                        # memo or skip again
                        assert count.image(p) == want, (E, p, backend)

    def test_memoized_verdict_leaves_counts_exact(self):
        # A search verdict of 0 is memoized, and a later exact count
        # still counts: __call__ never returns it.
        count = _Counter(E2, "bsgs")
        for p in primes_in_range(MESTRE_BOUND + 1, 2001):
            if count.disc % p == 0:
                continue
            step = count.image(p)
            n = count_points_naive(reduce_curve(E2, p))
            assert count.memo.get(p, step) == step
            assert count(p) == n and count.memo[p] == n
            assert count.image(p) == step

    def test_window_edges_agree_with_isprime(self, monkeypatch):
        # Windows [lo, hi) that start at, just below and just above the
        # image n, or end at or just past it: the flags decide inside,
        # isprime outside, and both give the same step.
        tested = []

        def recording(n):
            tested.append(n)
            return isprime(n)

        monkeypatch.setattr(aliquot, "isprime", recording)
        for E in (E2, TRIPLE_CURVE):
            disc = E.discriminant()
            for p in primes_in_range(5, 700):
                if disc % p == 0:
                    continue
                n = count_points_naive(reduce_curve(E, p))
                want = n if isprime(n) else 0
                edges = ((n, n + 1), (n - 1, n), (n + 1, n + 9), (n - 9, n))
                for lo, hi in edges:
                    lo = max(2, lo)
                    count = _Counter(E, "auto", lo, prime_flags(lo, hi))
                    count.memo[p] = n  # straight to the primality test
                    tested.clear()
                    assert count.image(p) == want, (E, p, lo, hi)
                    inside = lo <= n < hi
                    assert tested == ([] if inside else [n]), (E, p, lo, hi)

    def test_bad_prime_images_keep_their_walks(self):
        # A prime image where E is bad is still the step, and the walk
        # ends after it: #E(F_11) = 7 on y^2 = x^3 - 5x - 5, bad at 7,
        # and #E(F_7) = 11 on y^2 = x^3 - 5x - 1, bad at 11.
        cases = ((CurveQ.short(-5, -5), 11, 7), (CurveQ.short(-5, -1), 7, 11))
        for E, p, q in cases:
            assert not E.has_good_reduction(q)
            for window in ((), (2, prime_flags(2, 30))):
                count = _Counter(E, "auto", *window)
                assert count.image(p) == q
                assert _walk(count, p, 3) == ([p, q], None)


class TestBatchedStep:
    CASES = (
        (CurveQ.mordell(7), "cm"),
        (CurveQ.mordell(7), "auto"),
        (E2, "auto"),
        (E2, "bsgs"),
        (CurveQ.short(-5, -5), "auto"),
    )

    def test_images_are_the_image_steps(self):
        # With no window, with one that ends below most images (on 43a
        # some are prime beyond it, for isprime), and with one that
        # holds them all; a second call reads the memo.
        for E, backend in self.CASES:
            disc = E.discriminant()
            ps = [p for p in primes_in_range(2, 3000) if disc % p]
            for lo, hi in ((0, 0), (2, 1000), (2, 3200)):
                flags = prime_flags(lo, hi) if hi else b""
                one = _Counter(E, backend, lo, flags)
                want = [one.image(p) for p in ps]
                count = _Counter(E, backend, lo, flags)
                assert count.images(ps) == want, (E, backend, hi)
                assert count.images(ps) == want, (E, backend, hi)
                if E == E2 and hi == 1000:
                    assert any(q >= hi for q in want)

    def test_image_of_bad_reduction(self):
        # #E(F_11) = 7 on y^2 = x^3 - 5x - 5, which is bad at 7.
        E = CurveQ.short(-5, -5)
        for window in ((), (2, prime_flags(2, 30))):
            assert _Counter(E, "auto", *window).images([11]) == [7]


class TestBackendCheck:
    def test_unknown_backend_is_refused(self):
        with pytest.raises(ValueError, match="backend"):
            ExperimentConfig(curve=E2, x_bound=1000, backend="bogus")
        with pytest.raises(ValueError, match="backend"):
            aliquot_cycles_up_to(E2, 2, 1, backend="bogus")
        with pytest.raises(ValueError, match="backend"):
            _Counter(E2, "bogus")

    @pytest.mark.parametrize("X", [1, 2, 100])
    def test_cm_off_mordell_is_refused_for_every_X(self, X):
        # before any count, so also where the census holds no prime
        with pytest.raises(ValueError, match="y\\^2 = x\\^3 \\+ k only"):
            aliquot_cycles_up_to(E2, 1, X, "cm")
        with pytest.raises(ValueError, match="y\\^2 = x\\^3 \\+ k only"):
            ExperimentConfig(curve=E2, x_bound=max(X, 5), backend="cm")
        with pytest.raises(ValueError, match="y\\^2 = x\\^3 \\+ k only"):
            _Counter(E2, "cm")


class TestCensusSegments:
    @pytest.mark.parametrize(
        "E, backend, beyond",
        [(CurveQ.mordell(7), "cm", False), (E2, "auto", True)],
        ids=["k7", "43a"],
    )
    def test_isprime_sees_only_images_beyond_the_window(
        self, monkeypatch, E, backend, beyond
    ):
        # A search's counter holds the sieved window of its segment, so
        # outside verify_cycle isprime is asked only about images at or
        # above the end of the newest counter's window (on 43a some
        # walks leave it, on y^2 = x^3 + 7 none does).
        ends, tested = [], []

        class Recording(_Counter):
            def __init__(self, *args):
                super().__init__(*args)
                ends.append(self.hi)

        def recording(n):
            tested.append((n, ends[-1]))
            return isprime(n)

        def unrecorded_verify(E, primes):
            kept = len(tested)
            ok = verify_cycle(E, primes)
            del tested[kept:]
            return ok

        monkeypatch.setattr(aliquot, "_Counter", Recording)
        monkeypatch.setattr(aliquot, "isprime", recording)
        monkeypatch.setattr(aliquot, "verify_cycle", unrecorded_verify)
        X = 5 * 10**4
        found = [aliquot_cycles_up_to(E, L, X, backend) for L in (1, 2, 3)]
        found.append(_pairs(E, X, backend))
        assert any(found) and bool(tested) == beyond
        assert all(n >= end for n, end in tested), tested


class TestPrimeOrderCertificate:
    def test_accepts_the_43a_pair_near_1e6(self):
        assert verify_cycle(E2, (1147339, 1148359))

    def test_rejects_every_other_prime_in_the_window(self):
        p = 1147339
        others = [N for N in _hasse_primes(p) if N != 1148359]
        assert len(others) > 250
        assert not any(verify_cycle(E2, (p, N)) for N in others)

    def test_agrees_with_naive_count(self):
        for E in (E2, E14):
            disc = E.discriminant()
            for p in primes_in_range(2, 3001):
                if disc % p == 0:
                    continue
                n = count_points_naive(reduce_curve(E, p))
                for N in _hasse_primes(p):
                    assert _verify_step(E, p, N) == (n == N), (E, p, N)

    def test_rejects_prime_divisors_of_the_count(self):
        # Points of order N exist for every prime N | #E(F_p): the Hasse
        # window alone must reject these N.
        seen = 0
        for p in primes_in_range(5, 3001):
            if E2.has_good_reduction(p):
                n = count_points_naive(reduce_curve(E2, p))
                for N in factorint(n):
                    if N != n and N * N > 16 * p:
                        assert not _verify_step(E2, p, N), (p, N)
                        seen += 1
        assert seen == 100


class TestChains:
    def test_chain_one_counts_good_primes(self):
        X = 200
        expected = sum(
            1 for p in primes_in_range(2, X + 1) if E2.has_good_reduction(p)
        )
        assert _chain_count(E2, 1, X) == expected

    def test_chain_two_reference(self):
        X = 500
        expected = 0
        for p in primes_in_range(2, X + 1):
            if not E2.has_good_reduction(p):
                continue
            q = count_points(reduce_curve(E2, p))
            if isprime(q) and q != p:
                expected += 1
        assert _chain_count(E2, 2, X) == expected

    def test_chain_three_reference(self):
        X = 500
        expected = 0
        for p in primes_in_range(2, X + 1):
            if not E2.has_good_reduction(p):
                continue
            q = count_points(reduce_curve(E2, p))
            if not (isprime(q) and q != p and E2.has_good_reduction(q)):
                continue
            r = count_points(reduce_curve(E2, q))
            if isprime(r) and r not in (p, q):
                expected += 1
        assert _chain_count(E2, 3, X) == expected

    def test_longer_chains_are_scarcer(self):
        counts = [_chain_count(MORDELL2, L, 3000, backend="cm") for L in (1, 2, 3, 4)]
        assert counts == sorted(counts, reverse=True)


class TestCmDichotomy:
    def test_cm_next_values(self):
        assert cm_next_values(13, 19) == (13, 27)

    def test_recursion_term_base_and_recurrence(self):
        assert recursion_term(13, 19, 1) == 13
        assert recursion_term(13, 19, 2) == 19
        assert recursion_term(13, 19, 3) == 27

    @given(
        st.integers(min_value=5, max_value=10**6),
        st.integers(min_value=5, max_value=10**6),
        st.integers(min_value=3, max_value=50),
    )
    def test_recursion_closed_form(self, p, q, i):
        assert recursion_term(p, q, i) == (
            2 * recursion_term(p, q, i - 1) + 2 - recursion_term(p, q, i - 2)
        )

    def test_dichotomy_on_a_real_cm_curve(self):
        # y^2 + y = x^3 - x^2 - 7x + 10 has CM by Q(sqrt(-11)).
        E = CurveQ(0, -1, 1, -7, 10)
        disc = E.discriminant()
        hits = {True: 0, False: 0}
        for p in primes_in_range(5, 3000):
            if disc % p == 0:
                continue
            q = count_points(reduce_curve(E, p))
            if not isprime(q) or disc % q == 0 or q == p:
                continue
            r = count_points(reduce_curve(E, q))
            assert r in cm_next_values(p, q), (p, q, r)
            hits[r == p] += 1
        assert hits[True] > 0 and hits[False] > 0


class TestCandidateTracesJ0:
    def test_example_13_19(self):
        A, traces = candidate_traces_j0(13, 19)
        assert A == 3
        assert set(traces) == {7, -7, 8, -8, 1, -1}

    def test_rejects_impossible_pairs(self):
        with pytest.raises(ValueError):
            candidate_traces_j0(13, 101)

    def test_realized_trace_is_a_candidate(self):
        from ecaliquot.curves_mod_p import count_points_cm_j0

        for k in (2, 3, 5, 7):
            for p in primes_in_range(5, 400):
                if p % 3 != 1 or (6 * k) % p == 0:
                    continue
                q = count_points_cm_j0(k, p)
                if not isprime(q) or (6 * k) % q == 0:
                    continue
                a_q = q + 1 - count_points_cm_j0(k, q)
                _, traces = candidate_traces_j0(p, q)
                assert a_q in traces, (k, p, q, a_q)


class TestClassifyType1:
    def test_13_for_k2_is_type1(self):
        v = classify_type1(2, 13)
        assert v.q == 19 and v.a_q == 7
        assert v.is_type1 and v.epsilon == 1
        assert v.symbol == 0

    def test_7_for_k3_is_type2(self):
        v = classify_type1(3, 7)
        assert v.q == 13 and v.a_q == 5
        assert not v.is_type1 and v.epsilon == 0
        assert v.symbol == 1

    def test_k2_always_type1(self):
        # 2 = 2 * 1^3, so every member of N_2 is Type 1.
        for p in primes_in_range(5, 3000):
            if p % 3 != 1:
                continue
            try:
                v = classify_type1(2, p)
            except ValueError:
                continue
            assert v.is_type1, p

    def test_type2_exists_for_k3(self):
        seen_type2 = [
            p
            for p in primes_in_range(5, 500)
            if p % 3 == 1 and _in_nk(3, p) and not classify_type1(3, p).is_type1
        ]
        assert 7 in seen_type2

    def test_rejects_non_members(self):
        with pytest.raises(ValueError):
            classify_type1(2, 5)  # inert
        with pytest.raises(ValueError):
            classify_type1(2, 31)  # #E(F_31) = 21 = 3*7 composite


def _in_nk(k: int, p: int) -> bool:
    from ecaliquot.curves_mod_p import count_points_cm_j0

    if p % 3 != 1 or (6 * k) % p == 0:
        return False
    q = count_points_cm_j0(k, p)
    return isprime(q) and (6 * k) % q != 0


class TestTripleCaseValues:
    def test_all_positive_on_admissible_range(self):
        import math

        for p in (11, 13, 101):
            H = 2 * math.isqrt(p) + 1
            for q in range(max(5, p + 1 - H), p + 1 + H + 1):
                vals = j0_triple_case_values(p, q)
                assert len(vals) == 8
                assert all(v > 0 for v in vals.values()), (p, q, vals)

    def test_values_are_exact(self):
        vals = j0_triple_case_values(13, 19)
        assert vals["1B-"] == 4 * 169 - 4 * 13 * 19 + 4 * 361 + 12


class TestTypeMaps:
    def test_bad_trace_additive(self):
        assert bad_trace(MORDELL2, 2) == 0
        assert bad_trace(MORDELL2, 3) == 0

    def test_bad_trace_multiplicative_against_enumeration(self):
        cases = (
            (E1, 37),
            (E2, 43),
            (CurveQ.mordell(27), 5),
            (E14, 2),  # 14a1, multiplicative at 2
            (CurveQ(1, 1, 1, -10, -10), 3),  # 15a1, multiplicative at 3
        )
        for E, p in cases:
            if E.has_good_reduction(p):
                continue
            a1, a2, a3, a4, a6 = (c % p for c in (E.a1, E.a2, E.a3, E.a4, E.a6))
            smooth = 0
            for x in range(p):
                for y in range(p):
                    f = (y * y + a1 * x * y + a3 * y - x**3 - a2 * x * x
                         - a4 * x - a6) % p
                    if f:
                        continue
                    fx = (a1 * y - 3 * x * x - 2 * a2 * x - a4) % p
                    fy = (2 * y + a1 * x + a3) % p
                    if fx or fy:
                        smooth += 1
            assert bad_trace(E, p) == p - smooth - 1, (E, p)
        assert bad_trace(E14, 2) == bad_trace(CurveQ(1, 1, 1, -10, -10), 3) == -1

    def test_bad_trace_rejects_good_primes(self):
        with pytest.raises(ValueError):
            bad_trace(E1, 5)

    def test_l_coefficients_multiplicative(self):
        a = {n: l_series_coefficient(E1, n) for n in range(1, 20)}
        assert a[1] == 1
        assert a[2] == -2 and a[3] == -3  # hand-counted reductions
        assert a[6] == a[2] * a[3]
        assert a[4] == a[2] ** 2 - 2  # a_{p^2} = a_p^2 - p for good p
        assert a[9] == a[3] ** 2 - 3
        assert a[12] == a[4] * a[3]

    def test_type_l_step(self):
        assert type_l_step(E1, 1) == 1
        assert type_l_step(MORDELL2, 13) == 19
        # At a bad prime the step uses the bad-reduction trace.
        assert type_l_step(MORDELL2, 2) == 3

    def test_type_n_step_multiplicative(self):
        n1 = type_n_step(E2, 12)
        c2 = 2 * type_n_step(E2, 2)  # p^{e-1} c_p for p^e = 4
        c3 = type_n_step(E2, 3)
        assert n1 == c2 * c3
        assert type_n_step(E2, 1) == 1

    def test_iterate_finds_cycles(self):
        orbit, i = iterate_type_map(MORDELL2, 13, kind="L")
        assert i >= 0
        assert orbit[i:] == [13, 19] or orbit[i:] == [19, 13]

    def test_iterate_terminates_at_fixed_point_one(self):
        orbit, i = iterate_type_map(E1, 1, kind="L")
        assert orbit[i:] == [1]

    @pytest.mark.parametrize("max_steps", [0, -1])
    def test_iterate_refuses_no_steps(self, max_steps):
        with pytest.raises(ValueError, match="max_steps must be >= 1"):
            iterate_type_map(MORDELL2, 13, max_steps=max_steps)
