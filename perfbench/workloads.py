"""The benchmark's workloads: inputs drawn from a seed, one iteration, checks.

Every workload is closed loop: one iteration at a time from one process.
An iteration is one finished, checked piece of the paper's results, run
through the library's public API.  Each checked operation counts as
attempted; one that raises or disagrees with a frozen reference counts as
failed and the run goes on.  Checks too slow to repeat in every iteration
run once per run, after the timed iterations, in the workload's ``finish``.

The seed draws inputs whose cost does not depend on the draw, so that runs
with different seeds measure the same amount of work.  Iterations are kept
to a few seconds, so that a run's median rests on many of them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import os
import random
import time
from dataclasses import dataclass
from pathlib import Path

from click.testing import CliRunner

import references as ref
from ecaliquot import (
    aliquot,
    arith,
    cli,
    cm_density,
    constructor,
    curves_mod_p,
    eisenstein,
    harness,
)

# Library caches that would carry work from one iteration into the next.
# They are emptied before every iteration, so that each one costs what a
# census in a fresh process costs.  Taken at import, before any tracing
# wrapper can replace the module attributes.
_CACHES = (
    eisenstein.primary_split,
    eisenstein._split_unit_table,
    curves_mod_p._squares_table,
    cm_density._sextic_exponent_table,
    cm_density._m_K1_table,
)


def clear_caches() -> None:
    for cached in _CACHES:
        cached.cache_clear()


class Checks:
    """Checked operations: how many ran, and which raised or disagreed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, label: str, call, expect):
        """call(), counted as failed if it raises or expect(result) is false."""
        self.attempted += 1
        try:
            result = call()
            ok = expect(result)
        except Exception as exc:  # a failed operation is counted, not fatal
            self.failures.append(f"{label}: raised {type(exc).__name__}: {exc}")
            return None
        if not ok:
            self.failures.append(f"{label}: disagrees with the frozen reference")
        return result


def _prime_count(x: int) -> int:
    return len(arith.primes_in_range(2, x + 1))


# Checks shared by the two workloads


def _check_cycles(cycles, checks: Checks) -> None:
    for E, primes in cycles:
        checks.run(
            f"verify_cycle {primes[:2]}",
            lambda: aliquot.verify_cycle(E, primes),
            lambda ok: ok is True,
        )


def _check_composites(ks, checks: Checks) -> None:
    for k in ks:
        checks.run(
            f"predict k={k}",
            lambda: cm_density.predict(k).density,
            lambda density: density == ref.COMPOSITE_DENSITIES[k],
        )


# ---------------------------------------------------------------------------
# census_bsgs: the generic curve 43a, and the paper's aliquot cycles

# verify_cycle counts points naively up to 2*10^6, about one second a prime
# near 10^6.  An iteration verifies the first pair there; the others are
# verified once per run.
NAIVE_NEAR_1E6 = (10**6, 2 * 10**6)


@dataclass
class BsgsInputs:
    config: harness.ExperimentConfig
    checkpoint: Path
    expected_pairs: tuple
    expected_chains: tuple | None
    cycles: tuple  # (curve, primes) pairs that verify_cycle must accept
    once_cycles: tuple  # the same, verified once per run
    triple_x_bound: int
    lengths: tuple[int, ...]


def make_census_bsgs(seed: int, smoke: bool, workdir: Path) -> BsgsInputs:
    # The grid size changes the segment and checkpoint-record counts but
    # not the work: only counts near segment edges are repeated.
    rng = random.Random(seed)
    segment_size = rng.choice((1 << 13, 1 << 14, 1 << 15, 1 << 16))
    x_bound = 3000 if smoke else 10**5
    checkpoint = workdir / f"census_bsgs-{seed}-{os.getpid()}.ckpt"
    config = harness.ExperimentConfig(
        curve=harness.REFERENCE_CURVE,
        x_bound=x_bound,
        lengths=(2, 3),
        backend="bsgs",
        workers=1,
        checkpoint=str(checkpoint),
        segment_size=segment_size,
    )
    pair_bound = 10**5 if smoke else 10**8
    cycles = tuple(
        (harness.REFERENCE_CURVE, pq) for pq in harness.REFERENCE_PAIRS if pq[0] <= pair_bound
    )
    if not smoke:
        cycles += ((ref.CURVE_37A, ref.PAIR_37A),)
    cycles += (
        (ref.TRIPLE_CURVE, ref.TRIPLE_PRINTED),
        (ref.CYCLE14_CURVE, ref.CYCLE14),
        (ref.CYCLE25_CURVE, ref.CYCLE25),
    )
    low, high = NAIVE_NEAR_1E6
    slow = [c for c in cycles if low <= c[1][0] <= high]
    return BsgsInputs(
        config=config,
        checkpoint=checkpoint,
        expected_pairs=tuple(pq for pq in harness.REFERENCE_PAIRS if pq[0] <= x_bound),
        expected_chains=ref.CHAINS_43A.get(x_bound),
        cycles=tuple(c for c in cycles if c not in slow[1:]),
        once_cycles=tuple(slow[1:]),
        triple_x_bound=1000 if smoke else 2 * 10**4,
        lengths=tuple(sorted(rng.sample(range(2, 16), 3))),
    )


def iterate_census_bsgs(inputs: BsgsInputs, checks: Checks, workers: int, index: int) -> dict:
    """A fresh checkpointed sweep, a resume from its own checkpoint, then
    the cycle checks: frozen cycles, the 3-cycle search and constructions."""
    cfg = dataclasses.replace(inputs.config, workers=workers)
    inputs.checkpoint.unlink(missing_ok=True)
    try:
        report = checks.run(
            "census_bsgs sweep",
            lambda: harness.run_pair_sweep(cfg),
            lambda r: r.pairs == inputs.expected_pairs
            and inputs.expected_chains in (None, r.chains),
        )
        size = inputs.checkpoint.stat().st_size if inputs.checkpoint.exists() else 0
        start = time.perf_counter()
        checks.run(
            "census_bsgs resume",
            lambda: harness.run_pair_sweep(cfg),
            lambda r: report is not None and r == report,
        )
        resume_s = time.perf_counter() - start
    finally:
        inputs.checkpoint.unlink(missing_ok=True)

    _check_cycles(inputs.cycles, checks)
    checks.run(
        f"aliquot_cycles_up_to X={inputs.triple_x_bound}",
        lambda: aliquot.aliquot_cycles_up_to(ref.TRIPLE_CURVE, 3, inputs.triple_x_bound),
        lambda found: [c.primes for c in found] == [ref.TRIPLE_NORMALIZED],
    )
    checks.run(
        f"build_cycle_curve {list(inputs.lengths)}",
        lambda: constructor.build_cycle_curve(list(inputs.lengths)),
        lambda built: sorted(c.length for c in built[1]) == list(inputs.lengths)
        and all(aliquot.verify_cycle(built[0], c.primes) for c in built[1]),
    )
    return {"resume_s": resume_s, "checkpoint_bytes": size}


def finish_census_bsgs(inputs: BsgsInputs, checks: Checks) -> None:
    """The frozen cycles that no iteration verifies."""
    _check_cycles(inputs.once_cycles, checks)


def primes_census_bsgs(inputs: BsgsInputs) -> int:
    """Primes whose reduction an iteration counts: every p <= X of the
    census and of the 3-cycle search, and every prime of a verified cycle."""
    return (
        _prime_count(inputs.config.x_bound)
        + _prime_count(inputs.triple_x_bound)
        + sum(len(primes) for _, primes in inputs.cycles)
    )


# ---------------------------------------------------------------------------
# census_cm: Mordell curves y^2 = x^3 + k, and the paper's density tables

# Composite k drawn for the residue scans of an iteration, one from each
# stratum.  Scan cost grows with the square of rad(k), so each stratum holds
# k of similar cost.  Every k of COMPOSITE_DENSITIES is checked once per run.
COMPOSITE_STRATA = ((35, 55, 77, 85, 175, 245), (385, 455))


@dataclass
class CmInputs:
    ks: tuple[int, ...]
    x_bound: int
    pairs_x_bound: int
    composite_ks: tuple[int, ...]
    once_composite_ks: tuple[int, ...]
    c6_norm_bound: int


def make_census_cm(seed: int, smoke: bool, workdir: Path) -> CmInputs:
    rng = random.Random(seed)
    ks = tuple(sorted(rng.sample((5, 7, 11, 13), 3)))
    strata = COMPOSITE_STRATA[:1] if smoke else COMPOSITE_STRATA
    composite_ks = tuple(rng.choice(stratum) for stratum in strata)
    return CmInputs(
        ks=ks,
        x_bound=2 * 10**4 if smoke else 10**6,
        pairs_x_bound=2000 if smoke else 10**6,
        composite_ks=composite_ks,
        once_composite_ks=()
        if smoke
        else tuple(k for k in ref.COMPOSITE_DENSITIES if k not in composite_ks),
        c6_norm_bound=50 if smoke else 500,
    )


def _c6check_clean(result) -> bool:
    rows = list(csv.DictReader(io.StringIO(result.stdout)))
    return result.exit_code == 0 and bool(rows) and all(r["mismatches"] == "0" for r in rows)


def iterate_census_cm(inputs: CmInputs, checks: Checks, workers: int, index: int) -> dict:
    """The density row of one drawn k, taken in turn, then the density
    checks: residue scans, predictions and c6check.  Returns the row
    rendered as CSV.  Rows of the drawn k cost the same to within the
    machine's noise."""
    k = inputs.ks[index % len(inputs.ks)]
    predicted = ref.PRIME_DENSITIES[k]
    tolerance_applies = inputs.x_bound >= ref.DENSITY_TOLERANCE_FROM_X
    row = checks.run(
        f"density k={k}",
        lambda: harness.run_density_report(k, inputs.x_bound, workers=workers, backend="cm"),
        lambda r: r.predicted == predicted
        and (
            not tolerance_applies
            or abs(r.experimental - float(predicted)) <= ref.DENSITY_TOLERANCE
        ),
    )
    rows = [] if row is None else [row]

    _check_composites(inputs.composite_ks, checks)
    for k, *counts in ref.RESIDUE_ROWS:
        checks.run(
            f"m_counts k={k}",
            lambda: cm_density.m_counts(k),
            lambda got: list(got) == counts,
        )
    for k, density in ref.PRIME_DENSITIES.items():
        checks.run(
            f"predict k={k}",
            lambda: cm_density.predict(k).density,
            lambda got: got == density,
        )
    checks.run(
        f"c6check norm<={inputs.c6_norm_bound}",
        lambda: CliRunner().invoke(cli.main, ["c6check", "--norm-bound", str(inputs.c6_norm_bound)]),
        _c6check_clean,
    )
    return {"rows": harness.render_rows(harness.density_rows(rows), "csv")}


def finish_census_cm(inputs: CmInputs, checks: Checks) -> None:
    """The y^2 = x^3 + 2 pair census and the composite k that no iteration
    checks, once per run."""
    cfg = harness.ExperimentConfig(k=2, x_bound=inputs.pairs_x_bound, backend="cm", workers=2)
    checks.run(
        f"pairs k=2 X={inputs.pairs_x_bound}",
        lambda: harness.run_pair_sweep(cfg),
        lambda r: r.pairs[:6] == ref.FIRST_SIX_MORDELL2
        and (cfg.x_bound != 10**6 or r.q_pairs == ref.PAIRS_MORDELL2_1E6),
    )
    _check_composites(inputs.once_composite_ks, checks)


def primes_census_cm(inputs: CmInputs) -> int:
    return _prime_count(inputs.x_bound)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    workers: int  # worker processes of the timed iterations
    make: object  # (seed, smoke, workdir) -> inputs
    iterate: object  # (inputs, checks, workers, index) -> dict of iteration facts
    primes: object  # inputs -> primes swept per iteration
    finish: object = None  # (inputs, checks) -> None; checks run once per run

    def run(self, inputs, checks: Checks, workers: int, index: int) -> dict:
        """Iteration number ``index`` of a run, from empty library caches."""
        clear_caches()
        return self.iterate(inputs, checks, workers, index)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "census_bsgs", 1, make_census_bsgs, iterate_census_bsgs, primes_census_bsgs,
            finish_census_bsgs,
        ),
        Workload(
            "census_cm", 2, make_census_cm, iterate_census_cm, primes_census_cm, finish_census_cm
        ),
    )
}
