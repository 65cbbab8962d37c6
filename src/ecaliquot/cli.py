"""Command line front end for sweeps, constructions, and verification.

Every subcommand prints machine-readable rows (CSV by default, JSON
with --format json) on stdout and a short human summary on stderr.
Exit status 0 means success; 1 means an error (an invalid value, a
checkpoint of another experiment, a checkpoint path that cannot be
read or written, a failed computation, a found cycle or pair that
fails its independent recount), reported as one `# error: ...` line
on stderr with nothing on stdout; 2 means a mismatch against what the
user or the repository supplies (a cycle given to `verify`, the
reference pair list, or the brute-force count of c6check), or a
malformed command line, which click reports with a usage message.
"""

from __future__ import annotations

import sys

import click

from .aliquot import _cycle_census, iterate_type_map, verify_cycle
# Unused since cycles makes one census pass for all of its lengths;
# perfbench/spans.py patches it.
from .aliquot import aliquot_cycles_up_to  # noqa: F401
from .arith import primes_in_range
# Unused since c6check counts all 18 classes of an ideal at once, by
# brute force and by the trace formula, and finds each symbol's witnesses
# in one scan; perfbench/spans.py patches them.
from .cm_density import (  # noqa: F401
    c6_count_bruteforce,
    c6_count_trace,
    class_witness_cubic,
    class_witness_sextic,
)
from .cm_density import (
    _c6_counts_bruteforce,
    _c6_counts_trace,
    class_witnesses_cubic,
    class_witnesses_sextic,
    m_counts,
    mk_case,
    predict,
)
from .constructor import build_cycle_curve
from .curves_mod_p import BACKENDS, CurveQ
from .eisenstein import ideals_above
from .harness import (
    FORMATS,
    ExperimentConfig,
    density_rows,
    growth_rows,
    pair_rows,
    render_rows,
    run_density_report,
    run_growth_table,
    run_pair_sweep,
    run_reference_pair_check,
)


def _resolve_curve(curve: str | None, k: int | None) -> CurveQ:
    if (curve is None) == (k is None):
        raise click.UsageError("specify exactly one of --curve or --k")
    if curve is not None:
        try:
            return CurveQ.parse(curve)
        except ValueError as exc:
            raise click.BadParameter(str(exc), param_hint="--curve")
    return CurveQ.mordell(k)


def _parse_ints(text: str, param_hint: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        raise click.BadParameter(
            f"expected comma-separated integers, got {text!r}",
            param_hint=param_hint,
        )
    if not values:
        raise click.BadParameter("empty list", param_hint=param_hint)
    return values


def _curve_options(fn):
    fn = click.option(
        "--curve",
        default=None,
        help="Coefficients [a1,a2,a3,a4,a6], or x^3+k shorthand.",
    )(fn)
    fn = click.option(
        "--k",
        type=int,
        default=None,
        help="Mordell coefficient: the curve y^2 = x^3 + k.",
    )(fn)
    return fn


_backend_option = click.option(
    "--backend",
    type=click.Choice(BACKENDS),
    default="auto",
    show_default=True,
    help="Point counting backend.",
)


def _sweep_options(fn):
    fn = click.option(
        "--X",
        "x_bound",
        type=int,
        default=100_000,
        show_default=True,
        help="Sweep primes p <= X.",
    )(fn)
    fn = click.option(
        "--workers",
        type=int,
        default=1,
        show_default=True,
        help="Worker processes, at most one per segment "
        "(results are identical for any count).",
    )(fn)
    fn = _backend_option(fn)
    fn = click.option(
        "--checkpoint",
        default=None,
        help="JSON-lines checkpoint file to write and resume from.",
    )(fn)
    return fn


def _format_option(fn):
    return click.option(
        "--format",
        "out_format",
        type=click.Choice(FORMATS),
        default="csv",
        show_default=True,
        help="Output format for stdout rows.",
    )(fn)


def _emit(rows: list[dict], out_format: str) -> None:
    click.echo(render_rows(rows, out_format), nl=False)


class _Main(click.Group):
    """The command group; library and file errors exit with status 1."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (click.exceptions.Exit, click.Abort):
            raise  # --help and Ctrl-C: click's own RuntimeError subclasses
        except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
            click.echo(f"# error: {exc}", err=True)
            ctx.exit(1)


@click.group(cls=_Main)
def main() -> None:
    """Amicable pairs and aliquot cycles of elliptic curves."""


@main.command()
@_curve_options
@_sweep_options
@_format_option
def pairs(curve, k, x_bound, workers, backend, checkpoint, out_format):
    """List the amicable pairs (p, q) with p <= X."""
    E = _resolve_curve(curve, k)
    cfg = ExperimentConfig(
        curve=E,
        x_bound=x_bound,
        backend=backend,
        workers=workers,
        checkpoint=checkpoint,
    )
    report = run_pair_sweep(cfg)
    _emit(pair_rows(report), out_format)
    ratio = report.pair_ratio
    click.echo(
        f"# {report.curve}: N_E({x_bound}) = {report.n_prime}, "
        f"Q_E({x_bound}) = {report.q_pairs}"
        + (f", Q/N = {ratio:.4f}" if ratio is not None else "")
        + f", {report.elapsed:.1f}s",
        err=True,
    )


@main.command()
@_curve_options
@click.option(
    "--X",
    "x_bound",
    type=int,
    default=10_000,
    show_default=True,
    help="Smallest cycle prime must be <= X.",
)
@click.option(
    "--lengths",
    default="2",
    show_default=True,
    help="Comma-separated cycle lengths to search.",
)
@_backend_option
@_format_option
def cycles(curve, k, x_bound, lengths, backend, out_format):
    """List aliquot cycles of the given lengths, smallest prime <= X.

    Every reported cycle has already been re-verified by a prime-order
    certificate that shares no code with the counting backends (it
    counts points only below p = 37); a failed check is an error
    (status 1).
    """
    E = _resolve_curve(curve, k)
    wanted = _parse_ints(lengths, "--lengths")
    if len(set(wanted)) != len(wanted):
        raise ValueError("cycle lengths must be distinct")
    found = _cycle_census(E, wanted, x_bound, backend)
    rows = [
        {"length": length, "primes": " ".join(str(p) for p in cycle.primes)}
        for length in wanted
        for cycle in found[length]
    ]
    _emit(rows, out_format)
    click.echo(f"# {E}: {len(rows)} cycle(s)", err=True)


@main.command()
@_curve_options
@_sweep_options
@click.option(
    "--lengths",
    default="2,3",
    show_default=True,
    help="Comma-separated chain lengths to count.",
)
@_format_option
def chains(curve, k, x_bound, workers, backend, checkpoint, lengths,
           out_format):
    """Count aliquot chains of the given lengths starting at p <= X."""
    E = _resolve_curve(curve, k)
    cfg = ExperimentConfig(
        curve=E,
        x_bound=x_bound,
        lengths=_parse_ints(lengths, "--lengths"),
        backend=backend,
        workers=workers,
        checkpoint=checkpoint,
    )
    report = run_pair_sweep(cfg)
    rows = [
        {"length": length, "count": count} for length, count in report.chains
    ]
    _emit(rows, out_format)
    click.echo(f"# {report.curve}: {report.elapsed:.1f}s", err=True)


@main.command()
@click.option(
    "--lengths",
    default="2",
    show_default=True,
    help="Comma-separated cycle lengths the one curve must carry.",
)
@_format_option
def construct(lengths, out_format):
    """Build a curve over Q with aliquot cycles of all given lengths.

    build_cycle_curve has already re-verified every cycle.
    """
    wanted = _parse_ints(lengths, "--lengths")
    E, found = build_cycle_curve(list(wanted))
    rows = [
        {
            "curve": str(E),
            "length": cycle.length,
            "primes": " ".join(str(p) for p in cycle.primes),
        }
        for cycle in found
    ]
    _emit(rows, out_format)
    click.echo(f"# constructed {E}", err=True)


@main.command()
@_curve_options
@click.option(
    "--primes",
    required=True,
    help="Comma-separated primes of the purported cycle, in order.",
)
def verify(curve, k, primes):
    """Re-verify a purported aliquot cycle; exit 2 if it fails."""
    E = _resolve_curve(curve, k)
    cycle = _parse_ints(primes, "--primes")
    if verify_cycle(E, cycle):
        click.echo(f"ok: {cycle} is an aliquot cycle of {E}")
        return
    click.echo(f"mismatch: {cycle} is not an aliquot cycle of {E}")
    sys.exit(2)


@main.command()
@click.option("--k", "ks", type=int, multiple=True, required=True,
              help="Mordell coefficient (repeatable).")
@_sweep_options
@_format_option
def density(ks, x_bound, workers, backend, checkpoint, out_format):
    """Observed vs predicted type 1 density for y^2 = x^3 + k."""
    if checkpoint is not None and len(ks) > 1:
        raise click.UsageError("--checkpoint takes a single --k")
    # The same route as auto, but the checkpoint fingerprint records the
    # name, so rewriting it elsewhere would refuse existing checkpoints.
    if backend == "auto":
        backend = "cm"
    rows = []
    for k in ks:
        try:
            rows.append(
                run_density_report(
                    k,
                    x_bound,
                    workers=workers,
                    backend=backend,
                    checkpoint=checkpoint,
                )
            )
        except ValueError as exc:
            raise ValueError(f"k = {k}: {exc}") from exc
    _emit(density_rows(rows), out_format)
    for row in rows:
        exp = row.experimental
        pred = (
            f"{float(row.predicted):.4f}"
            if row.predicted is not None
            else "n/a"
        )
        click.echo(
            f"# k = {row.k}: N^[1]/N = {row.n_type1}/{row.n_k}"
            + (f" = {exp:.4f}" if exp is not None else "")
            + f", predicted {pred}",
            err=True,
        )


@main.command()
@click.option("--k", "ks", type=int, multiple=True, required=True,
              help="Mordell coefficient (repeatable).")
@_format_option
def mktable(ks, out_format):
    """Sizes of the local residue sets behind the density prediction."""
    rows = []
    for k in ks:
        try:
            units, m, m1 = m_counts(k)
            case = mk_case(k)
        except ValueError as exc:
            raise ValueError(f"k = {k}: {exc}") from exc
        row = {
            "k": k,
            "case": case,
            "units": units,
            "m": m,
            "m1": m1,
        }
        if m:
            row["density_exact"] = f"{m1}/{m}"
            row["density"] = m1 / m
        else:
            row["density_exact"] = None
            row["density"] = None
        rows.append(row)
    _emit(rows, out_format)


@main.command()
@click.option(
    "--norm-bound",
    type=int,
    default=100,
    show_default=True,
    help="Check prime ideals of residue norm up to this bound.",
)
@_format_option
def c6check(norm_bound, out_format):
    """Cross-check the sextic-twist point count formula by brute force.

    For every prime ideal of norm <= the bound and all 18 residue
    classes, the closed-form count must equal direct enumeration;
    a single mismatch exits with status 2.
    """
    if norm_bound < 7:
        raise ValueError("--norm-bound must be >= 7, the least norm checked")
    rows = []
    bad = 0
    zetas = range(6)
    xis = (0, 2, 4)
    for r in primes_in_range(5, norm_bound + 1):
        for K in ideals_above(r):
            if K.residue_norm > norm_bound:
                continue
            gammas = class_witnesses_sextic(K, zetas)
            deltas = class_witnesses_cubic(K, xis)
            actual = _c6_counts_bruteforce(
                [(gamma, delta) for gamma in gammas for delta in deltas], K
            )
            expected = _c6_counts_trace(
                [(zeta, xi) for zeta in zetas for xi in xis], K
            )
            mismatches = sum(a != b for a, b in zip(actual, expected))
            bad += mismatches
            rows.append(
                {
                    "prime": r,
                    "kind": K.kind,
                    "norm": K.residue_norm,
                    "generator": str(K.generator),
                    "classes": 18,
                    "mismatches": mismatches,
                }
            )
    _emit(rows, out_format)
    if bad:
        click.echo(f"# {bad} class(es) disagree with brute force", err=True)
        sys.exit(2)
    click.echo(f"# {len(rows)} ideal(s), all 18 classes agree", err=True)


@main.command()
@_curve_options
@_sweep_options
@click.option(
    "--cutoffs",
    default=None,
    help="Comma-separated X values for the table rows"
    " (defaults to --X only).",
)
@_format_option
def growth(curve, k, x_bound, workers, backend, checkpoint, cutoffs,
           out_format):
    """Tabulate Q(X) with its square-root and exponent diagnostics."""
    E = _resolve_curve(curve, k)
    xs = (
        list(_parse_ints(cutoffs, "--cutoffs"))
        if cutoffs is not None
        else [x_bound]
    )
    rows = run_growth_table(
        E, xs, workers=workers, backend=backend, checkpoint=checkpoint
    )
    _emit(growth_rows(rows), out_format)


@main.command()
@_sweep_options
@_format_option
def refcheck(x_bound, workers, backend, checkpoint, out_format):
    """Recompute the reference curve's pair list up to X and diff it."""
    check = run_reference_pair_check(
        x_bound, workers=workers, backend=backend, checkpoint=checkpoint
    )
    rows = [{"p": p, "q": q} for p, q in check.computed]
    _emit(rows, out_format)
    if not check.matches:
        click.echo(
            f"# mismatch: missing {list(check.missing)},"
            f" extra {list(check.extra)}",
            err=True,
        )
        sys.exit(2)
    click.echo(
        f"# {len(check.computed)} pair(s) match the reference list", err=True
    )


@main.command()
@_curve_options
@click.option("--start", type=int, required=True, help="Starting value n.")
@click.option(
    "--kind",
    type=click.Choice(["L", "N"]),
    default="L",
    show_default=True,
    help="L iterates n -> n + 1 - a_n; N iterates n -> #E^0(Z/nZ).",
)
@click.option("--max-steps", type=int, default=200, show_default=True)
@_format_option
def typeln(curve, k, start, kind, max_steps, out_format):
    """Iterate the L- or N-map from a starting value until it repeats."""
    E = _resolve_curve(curve, k)
    orbit, entry = iterate_type_map(E, start, kind, max_steps)
    rows = [
        {"step": i, "value": v, "in_cycle": entry != -1 and i >= entry}
        for i, v in enumerate(orbit)
    ]
    _emit(rows, out_format)
    if entry == -1:
        click.echo(f"# no repeat within {max_steps} steps", err=True)
    else:
        click.echo(
            f"# enters a cycle of length {len(orbit) - entry} at step {entry}",
            err=True,
        )


if __name__ == "__main__":
    main()
