"""Reproducible experiment sweeps over the reductions of a fixed curve.

A sweep walks every prime p <= X, applies the aliquot step q = #E(F_p),
and tallies the quantities the rest of the library reasons about: the
primes with prime image, the amicable pairs, the refined (type 1)
primes of a Mordell curve, and the chain counts and aliquot cycles for
requested lengths.  Each segment is tallied by aliquot's one segment
kernel, _sweep_segment; run_pair_sweep, the one driver of every census
(the cycle search included), schedules the segments, checkpoints their
records and merges them.  The prime range is cut into a fixed grid of
segments so that results are byte-for-byte identical no matter how
many worker processes share the grid, and each finished segment can be
checkpointed to disk and skipped on resume.

Reports hold raw counts only; every ratio is derived on demand so that
printed tables always agree with the integers behind them.
"""

from __future__ import annotations

import fcntl
import json
import math
import os
import time
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .aliquot import AliquotCycle, _sweep_segment
# Unused since the segment kernel lives in aliquot; perfbench/spans.py
# patches it.
from .aliquot import _Counter  # noqa: F401
# Unused since sweeps tally type 1 by the trace route; perfbench/spans.py
# patches it.
from .aliquot import classify_type1  # noqa: F401
from .arith import factorint
# Unused since sweeps step through aliquot._walk and take their primes
# from the window sieve; perfbench/spans.py patches both.
from .arith import isprime, primes_in_range  # noqa: F401
from .cm_density import predict
from .curves_mod_p import CurveQ, check_backend

FORMATS = ("csv", "json")
SEGMENT_SIZE = 1 << 16  # the width of a census segment, a sweep's default

# The 55 amicable pairs (p, q) with p <= 10^11 on y^2 + y = x^3 + x^2,
# frozen here as the reference list for prefix checks.
REFERENCE_CURVE = CurveQ(0, 1, 1, 0, 0)
REFERENCE_PAIRS: tuple[tuple[int, int], ...] = (
    (853, 883),
    (77761, 77999),
    (1147339, 1148359),
    (1447429, 1447561),
    (82459561, 82471789),
    (109165543, 109180121),
    (253185307, 253194619),
    (320064601, 320079131),
    (794563993, 794571803),
    (797046407, 797057473),
    (2185447367, 2185504261),
    (2382994403, 2383029443),
    (4101180511, 4101190039),
    (4686466159, 4686510971),
    (5293671709, 5293749623),
    (6677602471, 6677694539),
    (7074693823, 7074704971),
    (7806306133, 7806380963),
    (9395537549, 9395559011),
    (9771430993, 9771433303),
    (9849225103, 9849306373),
    (10574564857, 10574619851),
    (12657210407, 12657303353),
    (13003880317, 13003900901),
    (13789895011, 13790023199),
    (14436076927, 14436180091),
    (14976551207, 14976590371),
    (15597047659, 15597075937),
    (15679549877, 15679688491),
    (16322301811, 16322366867),
    (17725049203, 17725142719),
    (17841395323, 17841406601),
    (31615097957, 31615194739),
    (33266376239, 33266419807),
    (33963999907, 33964128017),
    (34525477799, 34525684639),
    (39287748091, 39287808559),
    (40136806357, 40137038941),
    (46438194193, 46438453213),
    (51838270219, 51838493561),
    (51881025571, 51881167549),
    (52011956957, 52012184953),
    (55823622193, 55823919169),
    (57920520199, 57920640709),
    (62765305697, 62765625749),
    (62995853671, 62996152237),
    (66252308051, 66252349753),
    (67177409329, 67177631771),
    (69449506103, 69449741239),
    (75002612911, 75002660263),
    (77264683829, 77264993327),
    (77635421531, 77635670141),
    (79067605783, 79067881429),
    (81263083703, 81263204563),
    (94248260597, 94248586591),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep depends on, plus how to run it.

    Exactly one of `curve` / `k` must identify the curve (`k` is the
    Mordell shorthand y^2 = x^3 + k).  `lengths` requests aliquot chain
    counts and cycles.  `segment_size` fixes the work grid and therefore
    the checkpoint layout; two configs with different grids are
    different experiments.
    """

    curve: CurveQ | None = None
    k: int | None = None
    x_bound: int = 100_000
    lengths: tuple[int, ...] = ()
    backend: str = "auto"
    workers: int = 1
    checkpoint: str | None = None
    segment_size: int = SEGMENT_SIZE

    def __post_init__(self) -> None:
        if (self.curve is None) == (self.k is None):
            raise ValueError("specify exactly one of curve or k")
        if self.x_bound < 5:
            raise ValueError("x_bound must be >= 5")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        check_backend(self.resolved_curve(), self.backend)
        if self.segment_size < 16:
            raise ValueError("segment_size must be >= 16")
        object.__setattr__(self, "lengths", tuple(self.lengths))
        if any(length < 1 for length in self.lengths):
            raise ValueError("chain lengths must be >= 1")
        if len(set(self.lengths)) != len(self.lengths):
            raise ValueError("chain lengths must be distinct")

    def resolved_curve(self) -> CurveQ:
        if self.curve is not None:
            return self.curve
        return CurveQ.mordell(self.k)

    def mordell_k(self) -> int | None:
        """The k of y^2 = x^3 + k, when the refined statistics apply."""
        E = self.resolved_curve()
        return E.a6 if E.is_mordell() else None


@dataclass(frozen=True)
class SweepReport:
    """Raw counts from one sweep; every ratio is recomputed on access.

    n_prime counts good primes p <= X whose point count is prime;
    pairs lists the amicable pairs (p, q) with 5 <= p <= X in
    increasing order, each re-verified by verify_cycle; n_k / n_type1
    refine the count for Mordell curves to good primes p >= 5 whose
    prime image q is again good (and, of those, the type 1 primes);
    chains maps each requested length L to the number of aliquot chains
    of length L starting at p <= X, and cycles to the aliquot cycles of
    length L whose least prime p <= X comes first, in increasing order
    of p, each re-verified like a pair.
    """

    curve: str
    x_bound: int
    backend: str
    n_prime: int
    pairs: tuple[tuple[int, int], ...]
    n_k: int | None
    n_type1: int | None
    chains: tuple[tuple[int, int], ...]
    cycles: tuple[tuple[int, tuple[tuple[int, ...], ...]], ...] = ()
    elapsed: float = field(compare=False, default=0.0)

    def __post_init__(self) -> None:
        if len(self.pairs) > self.n_prime:
            raise ValueError("more pairs than primes with prime image")
        if self.n_k is not None:
            if self.n_type1 is None or self.n_type1 > self.n_k:
                raise ValueError("type 1 primes must be a subset of N_k")

    @property
    def q_pairs(self) -> int:
        return len(self.pairs)

    @property
    def pair_ratio(self) -> float | None:
        """Q_E(X) / N_E(X), the chance a prime-image prime is amicable."""
        return self.q_pairs / self.n_prime if self.n_prime else None

    @property
    def type1_ratio(self) -> float | None:
        """N_k^[1](X) / N_k(X), the experimental type 1 density."""
        if self.n_k:
            return self.n_type1 / self.n_k
        return None

    def chain_count(self, length: int) -> int:
        for ell, count in self.chains:
            if ell == length:
                return count
        raise KeyError(f"no chain count for length {length}")


def _segment_grid(x_bound: int, segment_size: int) -> list[tuple[int, int]]:
    """The fixed [lo, hi) grid covering [2, x_bound]."""
    return [
        (lo, min(lo + segment_size, x_bound + 1))
        for lo in range(2, x_bound + 1, segment_size)
    ]


# ---------------------------------------------------------------------------
# checkpointing

# The keys of every _sweep_segment record, and those that hold counts.
_COUNT_KEYS = ("lo", "hi", "n_prime", "n_k", "n_type1")
_RECORD_KEYS = {*_COUNT_KEYS, "pairs", "chains", "cycles"}


def _canonical_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _config_fingerprint(cfg: ExperimentConfig) -> str:
    """The checkpoint header; covers everything that shapes the results."""
    return _canonical_json(
        {
            "kind": "pair_sweep",
            "version": 2,
            "curve": str(cfg.resolved_curve()),
            "x_bound": cfg.x_bound,
            "backend": cfg.backend,
            "lengths": list(cfg.lengths),
            "segment_size": cfg.segment_size,
        }
    )


def _is_count(x) -> bool:
    return type(x) is int and x >= 0


def _are_walks(walks, length: int) -> bool:
    """True iff walks is a list of lists of length ints."""
    return isinstance(walks, list) and all(
        isinstance(w, list) and len(w) == length and all(type(v) is int for v in w)
        for w in walks
    )


def _is_record(record, cells: dict[int, int], lengths: tuple[int, ...]) -> bool:
    """True iff record is a _sweep_segment record of one of the grid's
    cells (lo -> hi) with chain counts and cycles for exactly these
    lengths."""
    if not isinstance(record, dict) or record.keys() != _RECORD_KEYS:
        return False
    chains, cycles = record["chains"], record["cycles"]
    keys = {str(L) for L in lengths}
    return (
        all(_is_count(record[key]) for key in _COUNT_KEYS)
        and cells.get(record["lo"]) == record["hi"]
        and _are_walks(record["pairs"], 2)
        and isinstance(chains, dict)
        and chains.keys() == keys
        and all(_is_count(n) for n in chains.values())
        and isinstance(cycles, dict)
        and cycles.keys() == keys
        and all(_are_walks(cycles[str(L)], L) for L in lengths)
    )


def _load_checkpoint(path: Path, cfg: ExperimentConfig) -> dict[int, dict]:
    """Completed segment records of the sweep cfg, keyed by lo; {} for a
    fresh file.

    Only newline-terminated lines count: an unterminated tail is a write
    torn by an interrupted run, and _CheckpointWriter cuts it off.  A
    file without a whole header line is as fresh as a missing one.  A
    line that parses as JSON but is not a _sweep_segment record of a
    cell of cfg's grid is a ValueError naming the file and the line.
    """
    if not path.exists():
        return {}
    *lines, _ = path.read_text().split("\n")
    if not lines:
        return {}  # no whole header line: the run died while creating it
    if lines[0] != _config_fingerprint(cfg):
        raise ValueError(
            f"checkpoint {path} belongs to a different experiment"
        )
    cells = dict(_segment_grid(cfg.x_bound, cfg.segment_size))
    done: dict[int, dict] = {}
    for number, line in enumerate(lines[1:], start=2):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue  # a torn write that an older writer appended onto
        if not _is_record(record, cells, cfg.lengths):
            raise ValueError(
                f"checkpoint {path} line {number} is not a segment record"
            )
        done[record["lo"]] = record
    return done


class _CheckpointWriter:
    """Appends one fsynced JSON line per finished segment.

    It holds an exclusive flock on the file while it is open, so a second
    writer on the same checkpoint is refused with ValueError instead of
    interleaving its records.
    """

    def __init__(self, path: Path, fingerprint: str):
        self._fh = path.open("a")
        try:
            fcntl.flock(self._fh, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            self._fh.close()
            raise ValueError(
                f"checkpoint {path} is in use by another run"
            ) from None
        kept = path.read_bytes().rfind(b"\n") + 1
        # Cut off a torn tail so that the next line starts a line; with no
        # whole header line left, the file starts afresh.
        self._fh.truncate(kept)
        if not kept:
            self._write_line(fingerprint)

    def _write_line(self, line: str) -> None:
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def append(self, record: dict) -> None:
        self._write_line(_canonical_json(record))

    def close(self) -> None:
        self._fh.close()


# ---------------------------------------------------------------------------
# operations

def run_pair_sweep(cfg: ExperimentConfig) -> SweepReport:
    """Sweep all primes up to cfg.x_bound and aggregate the tallies.

    The result is independent of cfg.workers: the segment grid is fixed
    by (x_bound, segment_size) and segments are merged in grid order.
    It starts at most one worker process per segment left to sweep.
    """
    start = time.monotonic()
    E = cfg.resolved_curve()
    k = cfg.mordell_k()
    grid = _segment_grid(cfg.x_bound, cfg.segment_size)

    done: dict[int, dict] = {}
    writer = None
    if cfg.checkpoint is not None:
        path = Path(cfg.checkpoint)
        done = _load_checkpoint(path, cfg)
        writer = _CheckpointWriter(path, _config_fingerprint(cfg))

    tasks = [
        (E, lo, hi, cfg.lengths, cfg.backend) for lo, hi in grid if lo not in done
    ]
    def note(record: dict) -> None:
        done[record["lo"]] = record
        if writer is not None:
            writer.append(record)

    workers = min(cfg.workers, len(tasks))
    try:
        if workers <= 1:
            for record in map(_sweep_segment, tasks):
                note(record)
        else:
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor(max_workers=workers) as pool:
                for record in pool.map(_sweep_segment, tasks):
                    note(record)
    finally:
        if writer is not None:
            writer.close()

    n_prime = 0
    pairs: list[tuple[int, int]] = []
    n_k = 0
    n_type1 = 0
    chains = dict.fromkeys(cfg.lengths, 0)
    cycles: dict[int, list[tuple[int, ...]]] = {L: [] for L in cfg.lengths}
    for lo, _ in grid:
        record = done[lo]
        n_prime += record["n_prime"]
        pairs.extend((p, q) for p, q in record["pairs"])
        n_k += record["n_k"]
        n_type1 += record["n_type1"]
        for L in cfg.lengths:
            chains[L] += record["chains"][str(L)]
            cycles[L] += map(tuple, record["cycles"][str(L)])
    return SweepReport(
        curve=str(E),
        x_bound=cfg.x_bound,
        backend=cfg.backend,
        n_prime=n_prime,
        pairs=tuple(pairs),
        n_k=n_k if k is not None else None,
        n_type1=n_type1 if k is not None else None,
        chains=tuple((L, chains[L]) for L in cfg.lengths),
        cycles=tuple((L, tuple(cycles[L])) for L in cfg.lengths),
        elapsed=time.monotonic() - start,
    )


def cycles_up_to(
    E: CurveQ, lengths: tuple[int, ...], X: int, backend: str = "auto"
) -> dict[int, list[AliquotCycle]]:
    """The aliquot cycles of each length in lengths whose least prime is
    <= X, from one sweep to max(X, 5), the least bound of a config."""
    cfg = ExperimentConfig(curve=E, x_bound=max(X, 5), lengths=lengths, backend=backend)
    return {
        L: [AliquotCycle(c) for c in cycles if c[0] <= X]
        for L, cycles in run_pair_sweep(cfg).cycles
    }


@dataclass(frozen=True)
class DensityRow:
    """The refined-prime statistics of y^2 = x^3 + k up to X.

    predicted is the exact local density when the residue analysis
    applies to the sixth-power-free part of k (>= 5 and coprime to 6),
    else None.
    """

    k: int
    x_bound: int
    q_pairs: int
    n_type1: int
    n_k: int
    predicted: Fraction | None

    @property
    def experimental(self) -> float | None:
        return self.n_type1 / self.n_k if self.n_k else None

    @property
    def pair_ratio(self) -> float | None:
        """Q_k(X) / N_k^[1](X): pairs among the type 1 primes."""
        return self.q_pairs / self.n_type1 if self.n_type1 else None


def _sixth_power_free(k: int) -> int:
    """k divided by its largest sixth-power divisor (k != 0)."""
    free = math.prod(r ** (v % 6) for r, v in factorint(abs(k)).items())
    return free if k > 0 else -free


def run_density_report(
    k: int,
    x_bound: int,
    workers: int = 1,
    backend: str = "cm",
    checkpoint: str | None = None,
) -> DensityRow:
    """Compare the observed type 1 density of y^2 = x^3 + k with the
    exact local prediction.

    y^2 = x^3 + k m^6 is y^2 = x^3 + k over Q, by (x, y) -> (m^2 x,
    m^3 y), so the prediction is that of k without its sixth powers.
    """
    try:
        predicted = predict(_sixth_power_free(k)).density
    except ValueError:
        predicted = None  # k not coprime to 6, or N_k finite
    report = run_pair_sweep(
        ExperimentConfig(
            k=k,
            x_bound=x_bound,
            backend=backend,
            workers=workers,
            checkpoint=checkpoint,
        )
    )
    return DensityRow(
        k=k,
        x_bound=x_bound,
        q_pairs=report.q_pairs,
        n_type1=report.n_type1,
        n_k=report.n_k,
        predicted=predicted,
    )


@dataclass(frozen=True)
class PairListCheck:
    """Computed amicable pairs against the frozen reference prefix."""

    x_bound: int
    computed: tuple[tuple[int, int], ...]
    expected: tuple[tuple[int, int], ...]

    @property
    def matches(self) -> bool:
        return self.computed == self.expected

    @property
    def missing(self) -> tuple[tuple[int, int], ...]:
        return tuple(p for p in self.expected if p not in self.computed)

    @property
    def extra(self) -> tuple[tuple[int, int], ...]:
        return tuple(p for p in self.computed if p not in self.expected)


def run_reference_pair_check(
    x_bound: int,
    workers: int = 1,
    backend: str = "bsgs",
    checkpoint: str | None = None,
) -> PairListCheck:
    """Recompute the reference curve's amicable pairs up to x_bound and
    diff them against the stored list."""
    report = run_pair_sweep(
        ExperimentConfig(
            curve=REFERENCE_CURVE,
            x_bound=x_bound,
            backend=backend,
            workers=workers,
            checkpoint=checkpoint,
        )
    )
    expected = tuple(pq for pq in REFERENCE_PAIRS if pq[0] <= x_bound)
    return PairListCheck(
        x_bound=x_bound, computed=report.pairs, expected=expected
    )


@dataclass(frozen=True)
class GrowthRow:
    """Pair counts at a cutoff, with the two growth diagnostics.

    sqrt_ratio is Q(X) (ln X)^2 / sqrt(X) and exponent is ln Q / ln X;
    both are None when undefined (Q = 0).
    """

    x_bound: int
    q_pairs: int

    @property
    def sqrt_ratio(self) -> float | None:
        if self.q_pairs == 0:
            return None
        lnx = math.log(self.x_bound)
        return self.q_pairs * lnx * lnx / math.sqrt(self.x_bound)

    @property
    def exponent(self) -> float | None:
        if self.q_pairs == 0:
            return None
        return math.log(self.q_pairs) / math.log(self.x_bound)


def run_growth_table(
    E: CurveQ,
    cutoffs: list[int],
    workers: int = 1,
    backend: str = "auto",
    checkpoint: str | None = None,
) -> tuple[GrowthRow, ...]:
    """Pair counts of E at each cutoff, from a single sweep to the
    largest one."""
    if not cutoffs:
        raise ValueError("at least one cutoff is required")
    if min(cutoffs) < 5:
        raise ValueError("x_bound must be >= 5")
    cutoffs = sorted(set(cutoffs))
    report = run_pair_sweep(
        ExperimentConfig(
            curve=E,
            x_bound=max(cutoffs),
            backend=backend,
            workers=workers,
            checkpoint=checkpoint,
        )
    )
    return tuple(
        GrowthRow(
            x_bound=x, q_pairs=sum(1 for p, _ in report.pairs if p <= x)
        )
        for x in cutoffs
    )


# ---------------------------------------------------------------------------
# emission

def pair_rows(report: SweepReport) -> list[dict]:
    return [{"p": p, "q": q} for p, q in report.pairs]


def density_rows(rows: list[DensityRow]) -> list[dict]:
    return [
        {
            "k": row.k,
            "x_bound": row.x_bound,
            "q_pairs": row.q_pairs,
            "n_type1": row.n_type1,
            "n_k": row.n_k,
            "pair_ratio": row.pair_ratio,
            "experimental": row.experimental,
            "predicted": (
                float(row.predicted) if row.predicted is not None else None
            ),
            "predicted_exact": (
                f"{row.predicted.numerator}/{row.predicted.denominator}"
                if row.predicted is not None
                else None
            ),
        }
        for row in rows
    ]


def growth_rows(rows: tuple[GrowthRow, ...]) -> list[dict]:
    return [
        {
            "x_bound": row.x_bound,
            "q_pairs": row.q_pairs,
            "sqrt_ratio": row.sqrt_ratio,
            "exponent": row.exponent,
        }
        for row in rows
    ]


def render_rows(rows: list[dict], out_format: str) -> str:
    """Rows as a CSV table or a JSON array (trailing newline included)."""
    if out_format == "json":
        return json.dumps(rows, indent=2) + "\n"
    if out_format != "csv":
        raise ValueError(f"out_format must be one of {FORMATS}")
    if not rows:
        return ""
    import csv
    import io

    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=list(rows[0].keys()))
    writer.writeheader()
    writer.writerows(rows)
    return buffer.getvalue()
