"""Sweep harness: determinism, checkpoints, reports, and the CLI."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from click.testing import CliRunner
from sympy import isprime

import ecaliquot
from ecaliquot import aliquot, curves_mod_p, harness
from ecaliquot.aliquot import (
    aliquot_cycles_up_to,
    amicable_pairs_up_to,
    chain_count,
    classify_type1,
)
from ecaliquot.arith import primes_in_range
from ecaliquot.cli import main
from ecaliquot.curves_mod_p import (
    CurveQ,
    count_points,
    grossencharacter_j0,
    reduce_curve,
    two_division_roots,
)
from ecaliquot.harness import (
    REFERENCE_CURVE,
    REFERENCE_PAIRS,
    DensityRow,
    ExperimentConfig,
    GrowthRow,
    PairListCheck,
    SweepReport,
    _config_fingerprint,
    _load_checkpoint,
    _segment_grid,
    density_rows,
    growth_rows,
    pair_rows,
    render_rows,
    run_density_report,
    run_growth_table,
    run_pair_sweep,
    run_reference_pair_check,
)

E1 = CurveQ(0, 0, 1, -1, 0)


class TestExperimentConfig:
    def test_requires_exactly_one_curve_choice(self):
        with pytest.raises(ValueError):
            ExperimentConfig(x_bound=100)
        with pytest.raises(ValueError):
            ExperimentConfig(curve=E1, k=2, x_bound=100)

    def test_k_resolves_to_mordell_curve(self):
        cfg = ExperimentConfig(k=2, x_bound=100)
        assert cfg.resolved_curve() == CurveQ.mordell(2)
        assert cfg.mordell_k() == 2

    def test_non_mordell_curve_has_no_k(self):
        cfg = ExperimentConfig(curve=E1, x_bound=100)
        assert cfg.mordell_k() is None

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"x_bound": 4},
            {"workers": 0},
            {"backend": "schoof"},
            {"segment_size": 8},
            {"lengths": (0,)},
            {"lengths": (2, 2)},
        ],
    )
    def test_invalid_fields_rejected(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**{"k": 2, "x_bound": 100, **kwargs})


class TestSweepReportInvariants:
    def test_more_pairs_than_primes_rejected(self):
        with pytest.raises(ValueError):
            SweepReport(
                curve="E",
                x_bound=10,
                backend="auto",
                n_prime=0,
                pairs=((5, 7),),
                n_k=None,
                n_type1=None,
                chains=(),
            )

    def test_type1_bounded_by_n_k(self):
        with pytest.raises(ValueError):
            SweepReport(
                curve="E",
                x_bound=10,
                backend="auto",
                n_prime=5,
                pairs=(),
                n_k=3,
                n_type1=4,
                chains=(),
            )

    def test_ratios_and_chain_lookup(self):
        report = SweepReport(
            curve="E",
            x_bound=10,
            backend="auto",
            n_prime=8,
            pairs=((5, 7), (11, 13)),
            n_k=6,
            n_type1=3,
            chains=((2, 4),),
        )
        assert report.q_pairs == 2
        assert report.pair_ratio == 0.25
        assert report.type1_ratio == 0.5
        assert report.chain_count(2) == 4
        with pytest.raises(KeyError):
            report.chain_count(3)

    def test_elapsed_excluded_from_equality(self):
        kwargs = dict(
            curve="E",
            x_bound=10,
            backend="auto",
            n_prime=1,
            pairs=(),
            n_k=None,
            n_type1=None,
            chains=(),
        )
        assert SweepReport(elapsed=1.0, **kwargs) == SweepReport(
            elapsed=2.0, **kwargs
        )


class TestSweepDeterminism:
    def test_worker_count_does_not_change_results(self):
        reports = [
            run_pair_sweep(
                ExperimentConfig(
                    curve=REFERENCE_CURVE,
                    x_bound=30_000,
                    lengths=(2, 3),
                    workers=w,
                    segment_size=1 << 12,
                )
            )
            for w in (1, 3)
        ]
        assert reports[0] == reports[1]

    def test_pool_is_no_wider_than_the_segments(self, monkeypatch):
        # A stub executor records its width and maps in this process,
        # so the test starts no worker.
        import concurrent.futures

        widths = []

        class SerialPool:
            def __init__(self, max_workers):
                widths.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        cfg = ExperimentConfig(k=2, x_bound=40, segment_size=16, workers=64)
        assert len(_segment_grid(cfg.x_bound, cfg.segment_size)) == 3
        report = run_pair_sweep(cfg)
        assert widths == [3]
        serial = run_pair_sweep(
            ExperimentConfig(k=2, x_bound=40, segment_size=16, workers=1)
        )
        assert report == serial

    def test_segment_size_does_not_change_results(self):
        reports = [
            run_pair_sweep(
                ExperimentConfig(
                    k=5, x_bound=10_000, lengths=(2,), segment_size=size
                )
            )
            for size in (1 << 9, 1 << 13)
        ]
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("k", [2, 7])
    def test_cm_window_edges_do_not_change_results(self, k):
        reports = [
            run_pair_sweep(
                ExperimentConfig(
                    k=k,
                    x_bound=20_000,
                    lengths=(1, 2, 3, 4),
                    backend="cm",
                    segment_size=size,
                )
            )
            for size in (16, 1 << 10, ExperimentConfig.segment_size)
        ]
        assert reports[0] == reports[1] == reports[2]
        assert reports[0].pairs and reports[0].n_type1


class TestCmSweep:
    """The sweep of y^2 = x^3 + k counts from the primaries of Z[w]."""

    @pytest.mark.parametrize("k", [2, 5, 7, 11, 13])
    def test_type1_tally_matches_classify_type1(self, k):
        X = 10**5
        n_k = n_type1 = 0
        for p in primes_in_range(5, X + 1):
            if p % 3 != 1 or (6 * k) % p == 0:
                continue  # p = 2 (mod 3) has the even image p + 1
            q = p + 1 - grossencharacter_j0(k, p).trace
            if isprime(q) and (6 * k) % q:
                n_k += 1
                n_type1 += classify_type1(k, p).is_type1
        report = run_pair_sweep(ExperimentConfig(k=k, x_bound=X, backend="cm"))
        assert (report.n_k, report.n_type1) == (n_k, n_type1)
        assert 0 < n_type1

    def test_parity_test_reaches_only_unmemoized_primes(self, monkeypatch):
        # The window's counts are memoized at every good prime, split or
        # inert, so the walk and the pair check never test parity, and
        # the window's flags decide every image: isprime sees only the
        # members of the reported pairs, as verify_cycle checks them.
        tested, primality = [], []

        def recording(r, A, B):
            tested.append(r)
            return two_division_roots(r, A, B)

        def recording_isprime(n):
            primality.append(n)
            return isprime(n)

        monkeypatch.setattr(aliquot, "two_division_roots", recording)
        monkeypatch.setattr(aliquot, "isprime", recording_isprime)
        X = 10**5
        report = run_pair_sweep(ExperimentConfig(k=7, x_bound=X, backend="cm"))
        assert report.n_k and report.pairs
        assert tested == []
        assert primality == [n for pair in report.pairs for n in pair]

    def test_window_reaches_the_extreme_images(self, monkeypatch):
        # p = m^2 + m + 1 has images p +- (2m + 1) on some twists: the
        # largest and smallest the Hasse bound allows, at the window's edges.
        segments, above = [], set()
        for m in range(2, 300):
            p = m * m + m + 1
            if not isprime(p):
                continue
            for k in range(1, 40):
                E = CurveQ.mordell(k)
                if E.has_good_reduction(p):
                    q = count_points(reduce_curve(E, p), "cm")
                    extreme = abs(q - p - 1) == 2 * m + 1
                    if extreme and isprime(q) and E.has_good_reduction(q):
                        task = (E, p, p + 1, k, (1, 2), "cm")
                        segments.append((task, harness._sweep_segment(task)))
                        above.add(q > p)
        assert above == {True, False} and len(segments) > 100
        monkeypatch.setattr(curves_mod_p, "primary_split", self.refuse)
        for task, record in segments:
            assert record["n_k"] == 1
            assert harness._sweep_segment(task) == record

    @staticmethod
    def refuse(p):
        raise AssertionError(f"per-prime count at {p}")

    @pytest.mark.parametrize("backend", ["cm", "auto"])
    def test_window_holds_every_image(self, monkeypatch, backend):
        # With chains of length <= 2, every count the sweep needs is at a
        # prime of the sieved window, so no prime is split one at a time.
        def sweep(k, size=ExperimentConfig.segment_size):
            return run_pair_sweep(
                ExperimentConfig(
                    k=k,
                    x_bound=20_000,
                    lengths=(1, 2),
                    backend=backend,
                    segment_size=size,
                )
            )

        want = {k: sweep(k) for k in (2, 7)}
        monkeypatch.setattr(curves_mod_p, "primary_split", self.refuse)
        for size in (16, 1 << 10, ExperimentConfig.segment_size):
            assert {k: sweep(k, size) for k in want} == want


def _literal_walks(E: CurveQ, X: int, backend: str) -> dict:
    """Pairs, chains of lengths 1..4 and cycles of lengths 1..3 from the
    orbit of every good prime p <= X, iterated by hand."""
    disc = E.discriminant()
    memo: dict[int, int] = {}

    def f(n: int) -> int:
        if n not in memo:
            memo[n] = count_points(reduce_curve(E, n), backend)
        return memo[n]

    def steppable(n: int) -> bool:
        return isprime(n) and disc % n != 0

    chains = dict.fromkeys((1, 2, 3, 4), 0)
    out = {"n_prime": 0, "n_k": 0, "pairs": [], "chains": chains, "cycles": {}}
    for p in primes_in_range(2, X + 1):
        if disc % p == 0:
            continue
        orbit = [p]  # p, f(p), f(f(p)), ... while the last term is steppable
        while len(orbit) < 5 and steppable(orbit[-1]):
            orbit.append(f(orbit[-1]))
        if len(orbit) > 1 and isprime(orbit[1]):
            out["n_prime"] += 1
            if p >= 5 and (6 * E.a6) % orbit[1] != 0:
                out["n_k"] += 1
        for L in (1, 2, 3, 4):
            chain = orbit[:L]
            if len(chain) == L and all(map(isprime, chain)) and len(set(chain)) == L:
                chains[L] += 1
        for L in (1, 2, 3):
            cycle = tuple(orbit[:L])
            if (
                len(orbit) > L
                and orbit[L] == p
                and len(set(cycle)) == L
                and min(cycle) == p
            ):
                out["cycles"].setdefault(L, []).append(cycle)
                if L == 2 and p >= 5:
                    out["pairs"].append(cycle)
    return out


# 43a, y^2 = x^3 + 2, y^2 = x^3 - 25x - 8 (whose chains reach length 4),
# and y^2 = x^3 - 5x - 5 (where #E(F_11) = 7 has bad reduction).
WALK_CASES = (
    (REFERENCE_CURVE, "auto"),
    (CurveQ.mordell(2), "cm"),
    (CurveQ.short(-25, -8), "auto"),
    (CurveQ.short(-5, -5), "auto"),
)


class TestSweepAgainstSerialSearch:
    def test_pairs_match_direct_search(self):
        report = run_pair_sweep(
            ExperimentConfig(curve=REFERENCE_CURVE, x_bound=70_000)
        )
        assert report.pairs == tuple(
            amicable_pairs_up_to(REFERENCE_CURVE, 70_000)
        )
        assert report.pairs == ((853, 883),)

    def test_chain_counts_match_direct_search(self):
        # The search's segments, of the default size from 2, meet at
        # 65,538 (just above the prime 65,537); the sweep's grid of
        # 1 << 10 has other edges.
        X = 70_000
        report = run_pair_sweep(
            ExperimentConfig(
                curve=E1, x_bound=X, lengths=(1, 2, 3), segment_size=1 << 10
            )
        )
        for L in (1, 2, 3):
            assert report.chain_count(L) == chain_count(E1, L, X)

    def test_literal_walk_reference(self):
        want = _literal_walks(REFERENCE_CURVE, 5_000, "auto")
        anomalous = [103, 127, 541, 1429, 1657, 2087, 3733]
        assert want["cycles"][1] == [(p,) for p in anomalous]
        assert want["pairs"] == [(853, 883)]
        want = _literal_walks(CurveQ.mordell(2), 5_000, "cm")
        anomalous = [61, 331, 547, 2437, 3571, 4219]
        assert want["cycles"][1] == [(p,) for p in anomalous]
        assert want["pairs"][:2] == [(13, 19), (139, 163)]
        want = _literal_walks(CurveQ.short(-25, -8), 5_000, "auto")
        assert want["cycles"][3] == [(73, 83, 79)]
        assert want["chains"] == {1: 668, 2: 48, 3: 6, 4: 1}

    def test_sweep_matches_literal_walk(self):
        for E, backend in WALK_CASES:
            want = _literal_walks(E, 5_000, backend)
            report = run_pair_sweep(
                ExperimentConfig(
                    curve=E,
                    x_bound=5_000,
                    lengths=(1, 2, 3, 4),
                    backend=backend,
                    segment_size=1 << 10,
                )
            )
            assert report.n_prime == want["n_prime"]
            assert report.pairs == tuple(want["pairs"])
            assert dict(report.chains) == want["chains"]
            if E.is_mordell():
                assert report.n_k == want["n_k"]

    def test_searches_match_literal_walk(self):
        for E, backend in WALK_CASES:
            want = _literal_walks(E, 5_000, backend)
            for L in (1, 2, 3):
                cycles = aliquot_cycles_up_to(E, L, 5_000, backend)
                assert [c.primes for c in cycles] == want["cycles"].get(L, [])
            assert amicable_pairs_up_to(E, 5_000, backend) == want["pairs"]

    def test_sweep_never_counts_an_even_image(self, monkeypatch):
        # Neither the exact counts (p <= MESTRE_BOUND) nor the searches
        # above it reach a prime whose 2-division cubic has a root.
        class Recording(harness._Counter):
            def __call__(self, p):
                counted.append(p)
                return super().__call__(p)

            def annihilator(self, p, A, B):
                searched.append(p)
                return super().annihilator(p, A, B)

        counted, searched = [], []
        monkeypatch.setattr(harness, "_Counter", Recording)
        report = run_pair_sweep(
            ExperimentConfig(curve=REFERENCE_CURVE, x_bound=5_000, lengths=(3,))
        )
        assert report.pairs == ((853, 883),)
        assert counted and searched
        for r in counted + searched:
            if r >= 7:
                A, B = reduce_curve(REFERENCE_CURVE, r).short_model()
                assert two_division_roots(r, A, B) == 0, r

    def test_lying_counter_is_caught(self, monkeypatch, lying_counter):
        monkeypatch.setattr(harness, "_Counter", lying_counter)
        cfg = ExperimentConfig(curve=REFERENCE_CURVE, x_bound=100)
        with pytest.raises(ArithmeticError, match=r"\(41, 53\)"):
            run_pair_sweep(cfg)

    def test_lying_search_is_caught(self, monkeypatch, lying_search):
        monkeypatch.setattr(harness, "_Counter", lying_search)
        cfg = ExperimentConfig(curve=REFERENCE_CURVE, x_bound=300)
        with pytest.raises(ArithmeticError, match=r"\(251, 269\)"):
            run_pair_sweep(cfg)

    def test_prime_image_count_matches_direct_loop(self):
        report = run_pair_sweep(ExperimentConfig(k=2, x_bound=3_000))
        expected = 0
        n_k = 0
        for p in primes_in_range(5, 3_001):
            q = count_points(reduce_curve(CurveQ.mordell(2), p), "naive")
            if isprime(q):
                expected += 1
                if 12 % q != 0:
                    n_k += 1
        assert report.n_prime == expected
        assert report.n_k == n_k


class TestCheckpointing:
    def _config(self, path) -> ExperimentConfig:
        return ExperimentConfig(
            curve=REFERENCE_CURVE,
            x_bound=50_000,
            lengths=(2,),
            checkpoint=str(path),
            segment_size=1 << 13,
        )

    def test_resume_after_partial_run_is_byte_identical(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        cfg = self._config(ck)
        full = run_pair_sweep(cfg)
        full_csv = render_rows(pair_rows(full), "csv")

        lines = ck.read_text().splitlines()
        assert len(lines) > 3
        # keep the header, one whole record, and one torn record
        ck.write_text(
            "\n".join(lines[:2]) + "\n" + lines[2][: len(lines[2]) // 2]
        )
        resumed = run_pair_sweep(cfg)
        assert resumed == full
        assert render_rows(pair_rows(resumed), "csv") == full_csv

    def test_torn_last_record_is_recomputed_once(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        cfg = ExperimentConfig(
            curve=REFERENCE_CURVE,
            x_bound=3_000,
            lengths=(2,),
            checkpoint=str(ck),
            segment_size=1 << 9,
        )
        full = run_pair_sweep(cfg)
        los = [lo for lo, _ in _segment_grid(cfg.x_bound, cfg.segment_size)]
        text = ck.read_text()
        start = text.rindex("\n", 0, len(text) - 1) + 1
        for cut in range(start, len(text)):
            ck.write_text(text[:cut])
            assert run_pair_sweep(cfg) == full
            done = _load_checkpoint(ck, _config_fingerprint(cfg))
            assert sorted(done) == los, cut
            assert ck.read_text() == text, cut

    def _fresh_run(self, tmp_path):
        ck = tmp_path / "fresh.ckpt"
        return run_pair_sweep(self._config(ck)), ck.read_text()

    def test_empty_checkpoint_is_fresh(self, tmp_path):
        # What a run that died between creating the file and its header leaves.
        full, text = self._fresh_run(tmp_path)
        ck = tmp_path / "sweep.ckpt"
        ck.write_text("")
        assert _load_checkpoint(ck, _config_fingerprint(self._config(ck))) == {}
        assert run_pair_sweep(self._config(ck)) == full
        assert ck.read_text() == text

    def test_torn_header_is_fresh(self, tmp_path):
        full, text = self._fresh_run(tmp_path)
        header = text.split("\n")[0]
        ck = tmp_path / "sweep.ckpt"
        for cut in (1, len(header) // 2, len(header)):
            ck.write_text(header[:cut])
            fingerprint = _config_fingerprint(self._config(ck))
            assert _load_checkpoint(ck, fingerprint) == {}
            assert run_pair_sweep(self._config(ck)) == full
            assert ck.read_text() == text, cut

    def test_resume_does_not_recompute_finished_segments(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        cfg = self._config(ck)
        run_pair_sweep(cfg)
        before = ck.read_text().splitlines()
        run_pair_sweep(cfg)  # everything already done
        after = ck.read_text().splitlines()
        assert after == before
        los = [json.loads(line)["lo"] for line in after[1:]]
        assert len(los) == len(set(los))

    def test_checkpoint_of_other_experiment_rejected(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        run_pair_sweep(self._config(ck))
        other = ExperimentConfig(
            curve=REFERENCE_CURVE,
            x_bound=60_000,
            lengths=(2,),
            checkpoint=str(ck),
            segment_size=1 << 13,
        )
        with pytest.raises(ValueError, match="different experiment"):
            run_pair_sweep(other)

    def test_second_writer_is_refused(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        args = ["pairs", "--k", "2", "--X", "100", "--checkpoint", str(ck)]
        runner = CliRunner()
        assert runner.invoke(main, args).exit_code == 0
        header = ck.read_text().split("\n")[0]
        hold = (
            "import sys; from pathlib import Path; "
            "from ecaliquot.harness import _CheckpointWriter; "
            "w = _CheckpointWriter(Path(sys.argv[1]), sys.argv[2]); "
            "print('locked', flush=True); sys.stdin.read()"
        )
        src = str(Path(ecaliquot.__file__).parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        holder = subprocess.Popen(
            [sys.executable, "-c", hold, str(ck), header],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
            env=env,
        )
        try:
            assert holder.stdout.readline() == "locked\n"
            result = runner.invoke(main, args)
        finally:
            holder.stdin.close()
            holder.wait(timeout=60)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"# error: checkpoint {ck} is in use by another run\n"
        )
        # The lock goes with the holder, and the file is intact.
        again = runner.invoke(main, args)
        assert again.exit_code == 0
        assert ck.read_text().split("\n")[0] == header

    def test_header_written_for_fresh_file(self, tmp_path):
        ck = tmp_path / "sweep.ckpt"
        run_pair_sweep(self._config(ck))
        header = json.loads(ck.read_text().splitlines()[0])
        assert header["x_bound"] == 50_000
        assert header["curve"] == str(REFERENCE_CURVE)


class TestReferencePairList:
    def test_fifty_five_normalized_pairs(self):
        assert len(REFERENCE_PAIRS) == 55
        assert all(p < q for p, q in REFERENCE_PAIRS)
        firsts = [p for p, _ in REFERENCE_PAIRS]
        assert firsts == sorted(firsts)
        assert firsts[-1] < 10**11

    def test_every_reference_pair_is_amicable(self):
        # both directions of the aliquot step, recounted independently
        for p, q in REFERENCE_PAIRS:
            assert isprime(p) and isprime(q)
            assert count_points(reduce_curve(REFERENCE_CURVE, p), "bsgs") == q
            assert count_points(reduce_curve(REFERENCE_CURVE, q), "bsgs") == p

    def test_prefix_check_at_1e5(self):
        check = run_reference_pair_check(100_000)
        assert check.matches
        assert check.computed == ((853, 883), (77761, 77999))
        assert check.missing == ()
        assert check.extra == ()

    def test_diff_properties(self):
        check = PairListCheck(
            x_bound=10,
            computed=((5, 7), (11, 13)),
            expected=((5, 7), (17, 19)),
        )
        assert not check.matches
        assert check.missing == ((17, 19),)
        assert check.extra == ((11, 13),)


class TestDensityReport:
    def test_k5_small_sweep(self):
        row = run_density_report(5, 20_000)
        assert row.predicted == Fraction(1, 3)
        assert row.n_k == 129
        assert row.n_type1 == 41
        assert row.q_pairs == 11
        assert row.experimental == pytest.approx(41 / 129)
        assert row.pair_ratio == pytest.approx(11 / 41)

    def test_k2_has_no_prediction_and_all_type1(self):
        row = run_density_report(2, 10_000)
        assert row.predicted is None
        assert row.n_k == row.n_type1 > 0

    @pytest.mark.parametrize(
        "k, base, predicted",
        [(320, 5, Fraction(1, 3)), (5103, 7, Fraction(13, 25))],
    )
    def test_sixth_powers_leave_the_row_unchanged(self, k, base, predicted):
        # 320 = 2^6 5 and 5103 = 3^6 7: the same curve over Q as the base
        row = run_density_report(k, 10**5)
        base_row = run_density_report(base, 10**5)
        assert row.k == k
        assert row.predicted == base_row.predicted == predicted
        assert (row.q_pairs, row.n_type1, row.n_k) == (
            base_row.q_pairs,
            base_row.n_type1,
            base_row.n_k,
        )
        if base == 5:
            assert (row.q_pairs, row.n_type1, row.n_k) == (40, 170, 493)

    def test_row_ratios_handle_zero_counts(self):
        row = DensityRow(
            k=5, x_bound=10, q_pairs=0, n_type1=0, n_k=0, predicted=None
        )
        assert row.experimental is None
        assert row.pair_ratio is None


class TestGrowthTable:
    def test_diagnostics_at_known_counts(self):
        row = GrowthRow(x_bound=10**6, q_pairs=2)
        assert row.sqrt_ratio == pytest.approx(0.382, abs=5e-4)
        assert row.exponent == pytest.approx(0.050, abs=5e-4)
        row = GrowthRow(x_bound=10**7, q_pairs=4)
        assert row.sqrt_ratio == pytest.approx(0.329, abs=5e-4)
        assert row.exponent == pytest.approx(0.086, abs=5e-4)

    def test_zero_pairs_has_no_diagnostics(self):
        row = GrowthRow(x_bound=100, q_pairs=0)
        assert row.sqrt_ratio is None
        assert row.exponent is None

    def test_single_sweep_covers_all_cutoffs(self):
        rows = run_growth_table(REFERENCE_CURVE, [100_000, 10_000])
        assert [(r.x_bound, r.q_pairs) for r in rows] == [
            (10_000, 1),
            (100_000, 2),
        ]
        assert rows[0].exponent == 0.0

    def test_requires_a_cutoff(self):
        with pytest.raises(ValueError):
            run_growth_table(REFERENCE_CURVE, [])

    @pytest.mark.parametrize("cutoffs", [[100, 0], [4], [-7, 10_000]])
    def test_cutoffs_below_5_are_refused(self, cutoffs):
        with pytest.raises(ValueError, match="x_bound must be >= 5"):
            run_growth_table(REFERENCE_CURVE, cutoffs)
        result = CliRunner().invoke(
            main, ["growth", "--k", "2", "--cutoffs", ",".join(map(str, cutoffs))]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "x_bound must be >= 5" in result.stderr


class TestEmission:
    def test_csv_round_trip(self):
        rows = [{"a": 1, "b": 2.5}, {"a": 3, "b": None}]
        text = render_rows(rows, "csv")
        assert text.splitlines()[0] == "a,b"
        assert text.splitlines()[1] == "1,2.5"

    def test_json_round_trip(self):
        rows = [{"a": 1}]
        assert json.loads(render_rows(rows, "json")) == rows

    def test_empty_and_invalid(self):
        assert render_rows([], "csv") == ""
        with pytest.raises(ValueError):
            render_rows([{"a": 1}], "tsv")

    def test_report_derives_ratios(self):
        report = run_pair_sweep(
            ExperimentConfig(k=5, x_bound=5_000, lengths=(2,))
        )
        assert report.pair_ratio == pytest.approx(
            report.q_pairs / report.n_prime
        )
        assert report.type1_ratio == pytest.approx(
            report.n_type1 / report.n_k
        )
        assert report.chain_count(2) == dict(report.chains)[2]

    def test_density_rows_format_exact_fraction(self):
        (row,) = density_rows([run_density_report(5, 5_000)])
        assert row["predicted_exact"] == "1/3"
        (row,) = density_rows([run_density_report(2, 5_000)])
        assert row["predicted_exact"] is None

    def test_growth_rows_shape(self):
        (row,) = growth_rows((GrowthRow(x_bound=100, q_pairs=0),))
        assert row == {
            "x_bound": 100,
            "q_pairs": 0,
            "sqrt_ratio": None,
            "exponent": None,
        }


class TestCli:
    def setup_method(self):
        self.runner = CliRunner()

    def invoke(self, *args):
        return self.runner.invoke(main, list(args), catch_exceptions=False)

    def test_pairs_lists_reference_prefix(self):
        result = self.invoke(
            "pairs", "--curve", "[0,1,1,0,0]", "--X", "100000"
        )
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["p,q", "853,883", "77761,77999"]

    def test_pairs_json(self):
        result = self.invoke(
            "pairs",
            "--curve",
            "[0,1,1,0,0]",
            "--X",
            "70000",
            "--format",
            "json",
        )
        assert json.loads(result.stdout) == [{"p": 853, "q": 883}]

    def test_curve_and_k_mutually_exclusive(self):
        result = self.runner.invoke(
            main, ["pairs", "--curve", "x^3+2", "--k", "2"]
        )
        assert result.exit_code != 0
        result = self.runner.invoke(main, ["pairs"])
        assert result.exit_code != 0

    def test_bad_curve_literal(self):
        result = self.runner.invoke(main, ["pairs", "--curve", "y^2=zzz"])
        assert result.exit_code != 0

    def test_cycles_finds_fixed_points(self):
        result = self.invoke(
            "cycles", "--curve", "[0,0,1,-1,0]", "--X", "700", "--lengths", "1"
        )
        assert result.exit_code == 0
        assert "53" in result.stdout and "599" in result.stdout

    def test_chains_counts(self):
        result = self.invoke(
            "chains", "--k", "2", "--X", "10000", "--lengths", "2,3"
        )
        assert result.exit_code == 0
        assert result.stdout.splitlines() == ["length,count", "2,75", "3,0"]

    def test_construct_verifies_both_lengths(self):
        result = self.invoke("construct", "--lengths", "1,2")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "curve,length,primes"
        assert len(lines) == 3

    def test_verify_exit_codes(self):
        good = self.invoke(
            "verify", "--curve", "[0,0,0,-25,-8]", "--primes", "73,83,79"
        )
        assert good.exit_code == 0
        bad = self.runner.invoke(
            main,
            ["verify", "--curve", "[0,0,0,-25,-8]", "--primes", "73,79,83"],
        )
        assert bad.exit_code == 2

    def test_density_checkpoint_takes_one_k(self, tmp_path):
        ck = tmp_path / "density.ckpt"
        result = self.runner.invoke(
            main,
            ["density", "--k", "5", "--k", "7", "--X", "1000",
             "--checkpoint", str(ck)],
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert not ck.exists()

    def test_repeated_chain_lengths_exit_1(self):
        result = self.runner.invoke(
            main, ["chains", "--k", "2", "--X", "1000", "--lengths", "2,2"]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "# error: chain lengths must be distinct\n"

    def test_repeated_cycle_lengths_exit_1(self):
        result = self.runner.invoke(
            main, ["cycles", "--k", "2", "--X", "1000", "--lengths", "2,2"]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "# error: cycle lengths must be distinct\n"

    def test_density_table(self):
        result = self.invoke(
            "density", "--k", "5", "--X", "20000", "--format", "json"
        )
        assert result.exit_code == 0
        (row,) = json.loads(result.stdout)
        assert row["n_k"] == 129
        assert row["predicted_exact"] == "1/3"

    def test_mktable_rows(self):
        result = self.invoke(
            "mktable", "--k", "5", "--k", "7", "--format", "json"
        )
        rows = json.loads(result.stdout)
        assert [r["m1"] for r in rows] == [4, 13]
        assert [r["case"] for r in rows] == ["b", "d"]

    def test_mktable_row_with_a_large_inert_prime(self):
        # 458759 = 7 * 65537, and Z[w] / 65537 Z[w] has 65537^2 elements
        result = self.invoke("mktable", "--k", "458759")
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1] == (
            "458759,d,107377459175,107377459175,35792792231,"
            "35792792231/107377459175,0.33333618159716527"
        )

    def test_mktable_rejects_bad_k(self):
        result = self.runner.invoke(main, ["mktable", "--k", "6"])
        assert result.exit_code == 1
        assert result.stderr.startswith("# error: k = 6: ")

    def test_c6check_small_bound(self):
        result = self.invoke("c6check", "--norm-bound", "30")
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        # ideals: 25 (inert 5), 7, 7bar, 13, 13bar, 19, 19bar
        assert len(lines) == 8
        assert all(line.endswith(",18,0") for line in lines[1:])

    @pytest.mark.parametrize("bound", ["-5", "0", "6"])
    def test_c6check_refuses_bound_below_least_norm(self, bound):
        # The least norm of an ideal it checks is 7: a lower bound would
        # check nothing and report that all classes agree.
        result = self.invoke("c6check", "--norm-bound", bound)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("# error: --norm-bound must be >= 7")
        result = self.invoke("c6check", "--norm-bound", "7")
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 3  # 7 and 7bar

    def test_growth_table(self):
        result = self.invoke(
            "growth",
            "--curve",
            "[0,1,1,0,0]",
            "--cutoffs",
            "10000,100000",
            "--format",
            "json",
        )
        rows = json.loads(result.stdout)
        assert [r["q_pairs"] for r in rows] == [1, 2]

    def test_refcheck(self):
        result = self.invoke("refcheck", "--X", "100000")
        assert result.exit_code == 0
        assert "77761" in result.stdout

    def test_typeln_orbit(self):
        result = self.invoke(
            "typeln", "--k", "2", "--start", "5", "--format", "json"
        )
        rows = json.loads(result.stdout)
        assert rows[0] == {"step": 0, "value": 5, "in_cycle": False}
        assert any(r["in_cycle"] for r in rows)

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_typeln_refuses_no_steps(self, steps):
        result = self.invoke(
            "typeln", "--k", "2", "--start", "5", "--max-steps", steps
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == "# error: max_steps must be >= 1\n"

    def test_library_error_exits_1_without_traceback(self, tmp_path):
        ck = tmp_path / "cli.ckpt"
        args = ["pairs", "--k", "2", "--X", "100", "--checkpoint", str(ck)]
        assert self.invoke(*args).exit_code == 0
        args[args.index("100")] = "200"
        result = self.invoke(*args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("# error: checkpoint ")
        assert "different experiment" in result.stderr
        assert "Traceback" not in result.stderr
        assert len(result.stderr.splitlines()) == 1

    @pytest.mark.parametrize("record", ['{"lo": 2}', "[1, 2]"], ids=["keys", "list"])
    def test_malformed_checkpoint_record_exits_1(self, tmp_path, record):
        ck = tmp_path / "cli.ckpt"
        args = ["pairs", "--k", "2", "--X", "1000", "--checkpoint", str(ck)]
        assert self.invoke(*args).exit_code == 0
        header = ck.read_text().split("\n")[0]
        ck.write_text(f"{header}\n{record}\n")
        result = self.runner.invoke(main, args)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            f"# error: checkpoint {ck} line 2 is not a segment record\n"
        )

    @pytest.mark.parametrize("where", ["missing/x.ckpt", "."], ids=["missing-dir", "a-dir"])
    def test_unusable_checkpoint_path_exits_1(self, tmp_path, where):
        ck = tmp_path / where
        result = self.runner.invoke(
            main, ["pairs", "--k", "2", "--X", "1000", "--checkpoint", str(ck)]
        )
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr.startswith("# error: ")
        assert str(ck) in result.stderr
        assert len(result.stderr.splitlines()) == 1

    def test_subcommand_help_exits_0(self):
        result = self.invoke("pairs", "--help")
        assert result.exit_code == 0
        assert result.stdout.startswith("Usage: ")
        assert result.stderr == ""

    @pytest.mark.parametrize(
        "module, command",
        [(harness, ["pairs"]), (aliquot, ["cycles", "--lengths", "2"])],
        ids=["pairs", "cycles"],
    )
    def test_unverified_pair_exits_1(
        self, monkeypatch, lying_counter, module, command
    ):
        monkeypatch.setattr(module, "_Counter", lying_counter)
        result = self.invoke(*command, "--curve", "[0,1,1,0,0]", "--X", "100")
        assert result.exit_code == 1
        assert result.stdout == ""
        assert result.stderr == (
            "# error: cycle (41, 53) failed independent recount\n"
        )

    def test_checkpoint_flag(self, tmp_path):
        ck = tmp_path / "cli.ckpt"
        for _ in range(2):
            result = self.invoke(
                "pairs",
                "--curve",
                "[0,1,1,0,0]",
                "--X",
                "50000",
                "--checkpoint",
                str(ck),
            )
            assert result.exit_code == 0
        assert ck.exists()
