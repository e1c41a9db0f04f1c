"""Command-line front end.

Subcommands:

    concurrence   one point: every concurrence reading at (theta, delay)
    sweep         CSV/JSON table over theta and delay grids
    hom           simulated Hong-Ou-Mandel scan with a Gaussian dip fit
    verify        randomized cross-check suites between algebra and oracle

The commands decide no physics: the prepared pair, the Hong-Ou-Mandel
coincidence law and the dip shape are `optics` calls, the same ones that
`verify` checks.  `sweep` and `concurrence` build their exact table in one
function, `_point_values`, and read each point's normalized concurrence from
its X-state (1,1) block, `entanglement.NumberDistribution.concurrence`; the
eigen route `entanglement.wootters_concurrence` is the reference that
`verify` checks the read against, and only `verify` calls it.  A value that
depends on one axis is built once on it, the closed form is the product of
its angle and delay factors, and the sweep's CSV formats each axis-only cell
once per axis (`_sweep_csv_lines`).  Angles are
degrees at this boundary (radians never leak out), lengths are micrometers.
Exit codes: 0 success, 1 usage error, 2 numerical/fit failure, 3
verification failure.  A command refuses by raising; `main` alone turns
the failure into one line on stderr and its exit code.  A reader that closes
stdout early, as `| head` does, changes neither the exit code nor stderr: a
command settles its failure and its report line before its first byte.

The front end loads no physics module and not numpy: importing this
module, building the parser, `--help`, `--version` and every argparse
refusal load only `cli` and `wavepacket`, which holds the parser's defaults
and the width rule of `--sigma-um` and `--delta`.  A `start:stop:count`
grid, a default or one given on the command line, is spaced in Python
floats with the bits of `numpy.linspace`.  `main` loads `optics`, and with
it numpy, `core_state` and `entanglement`, once the arguments parse; a
command imports the modules it calls where it calls them, and reads every
name through its module.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from typing import Callable, Optional, Sequence

from . import __version__
from .wavepacket import DEFAULT_SIGMA_UM, OVERLAP_CONVENTIONS, check_sigma, delta_to_sigma

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2
EXIT_VERIFICATION = 3

SWEEP_COLUMNS = (
    "theta_deg",
    "delay_um",
    "spatial_overlap",
    "overlap_paper",
    "overlap_quadrature",
    "c_closed_form",
    "c_wootters_normalized",
    "e_p",
)
SWEEP_NOISY_COLUMNS = SWEEP_COLUMNS + ("c_mc_mean", "c_mc_stddev")

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a word that starts with "-" and a digit or ".digit" is a value, as
        # newer argparse releases read it, so "-300:300:61", "-30,0,30" and
        # "-1e3" may follow their option after a space; argparse up to 3.13
        # takes only a plain "-123" or "-1.5" for one, and no option of this
        # parser looks like a value
        self._negative_number_matcher = re.compile(r"-\.?\d")

    # argparse defaults to exit code 2 on usage problems; this project
    # reserves 2 for numerical failures
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _unit_float(text: str) -> float:
    """A finite number in [0, 1], such as a dip visibility."""
    value = _finite_float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(f"expected a number in [0, 1], got {text!r}")
    return value


def _sigma(text: str, to_sigma: Callable[[float], float] = check_sigma) -> float:
    """The width sigma = `to_sigma(x)` of a positive number x; `to_sigma`
    ends in `wavepacket.check_sigma`, whose refusal names the value."""
    value = _positive_float(text)
    try:
        return to_sigma(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"{exc}, got {text!r}") from None


def _delta(text: str) -> float:
    """A spectral width delta, parsed straight to its sigma = 1/(2 delta)."""
    return _sigma(text, delta_to_sigma)


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _runs(text: str) -> int:
    """A Monte Carlo run count: an integer of at least 2, as an error bar
    needs.  A non-integer gets the message argparse gives a bad `int`."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 2:
        raise argparse.ArgumentTypeError(f"need --runs >= 2 for an error bar, got {value}")
    return value


def _linspace(start: float, stop: float, n: int) -> list[float]:
    """`numpy.linspace(start, stop, n)` in Python floats, bit for bit: the
    same IEEE operations in the same order.  Point i is i * step + start,
    with step = (stop - start) / (n - 1), and the last point is `stop`; where
    the step underflows to 0 it is i / (n - 1) * (stop - start) + start, and
    a single point is 0 * (stop - start) + start.

    The list is allocated whole before any point is computed, so a count too
    large to hold raises `MemoryError` at once, and one past the index range
    `OverflowError`."""
    values = [stop] * n
    delta = stop - start
    div = n - 1
    if div == 0:
        values[0] = 0.0 * delta + start
        return values
    step = delta / div
    if step == 0.0:
        for i in range(div):
            values[i] = i / div * delta + start
    else:
        for i in range(div):
            values[i] = i * step + start
    return values


def _parse_grid(spec: str) -> list[float]:
    """Comma list '0,30,60' or linspace 'start:stop:count' of finite values."""
    spec = spec.strip()
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            n = int(count)
            if n < 1:
                raise ValueError
            values = _linspace(float(start), float(stop), n)
        else:
            values = [float(tok) for tok in spec.split(",") if tok.strip()]
        if not values or not all(map(math.isfinite, values)):
            raise ValueError
        return values
    except (ValueError, OverflowError):
        raise argparse.ArgumentTypeError(
            f"bad grid {spec!r}; use 'a,b,c' or 'start:stop:count'"
        ) from None
    except MemoryError:
        raise argparse.ArgumentTypeError(f"grid {spec!r} is too large to allocate") from None


def _fixed(x: float) -> str:
    """x to 6 decimals, unsigned where it rounds to zero, as the CSV table
    prints -0.0 as 0: a tiny negative rounding residue prints as 0.000000."""
    text = format(x, ".6f")
    return "0.000000" if text == "-0.000000" else text


def _point_values(
    thetas: Sequence[float], delays: Sequence[float], sigma_um: float, convention: str,
    keep_states: bool = False,
):
    """The exact table of the grid `thetas` x `delays`: one row per point,
    angles outer and delays inner, each its `SWEEP_COLUMNS` values in column
    order.  Returns the rows and, with `keep_states`, each point's
    unnormalized (1,1) spin matrix in row order, from which a noisy sweep
    draws its counts; an exact table does not hold them.

    Each value is built once on the axis it depends on: a delay's three
    overlaps and the square of its convention's overlap once, an angle's
    mode amplitudes and spatial factor once, and
    `optics.prepared_distributions` builds each delay's dist pair and
    <phi_B|phi_A> once and each angle's spin-up particle once, so a point
    pays only for its spin-down particle and its `number_distribution` pass.
    The closed form is the product of its two axis factors, the spatial
    factor times the overlap squared, which for the non-negative real
    overlap of `optics.gaussian_overlap` has the bits of
    `entanglement.concurrence_closed_form`.  The normalized concurrence of
    each point is read from its X-state block
    (`NumberDistribution.concurrence`), never through the eigen route
    `wootters_concurrence`, and E_P = P(1,1) C follows per angle."""
    from . import entanglement, optics

    per_delay = []
    for delay in delays:
        ov = optics.gaussian_overlap(delay, convention, sigma_um)
        paper = optics.gaussian_overlap(delay, "paper", sigma_um)
        quadrature = optics.gaussian_overlap(delay, "quadrature", sigma_um)
        per_delay.append((delay, ov, paper, quadrature, ov**2))
    modes = [optics.spatial_amplitudes_from_theta(theta) for theta in thetas]
    grid = optics.prepared_distributions(modes, [ov for _, ov, *_ in per_delay])
    rows, states = [], []
    for theta, nds in zip(thetas, grid):
        spatial_overlap = optics.spatial_overlap_factor(theta)
        concurrence = [nd.concurrence for nd in nds]
        e_p = entanglement.entanglement_of_particles(nds, concurrence).tolist()
        for (delay, _, paper, quadrature, ov2), c, e in zip(per_delay, concurrence, e_p):
            rows.append(
                [theta, delay, spatial_overlap, paper, quadrature, spatial_overlap * ov2, c, e]
            )
        if keep_states:
            states += [nd.state for nd in nds]
    return rows, states


def cmd_concurrence(args) -> int:
    from . import optics

    ((_, _, spatial_overlap, paper, quadrature, _, c_wootters, e_p),), _ = _point_values(
        [args.theta_deg], [args.delay_um], args.sigma_um, args.overlap_convention
    )
    lines = [
        ("theta_deg", args.theta_deg),
        ("delay_um", args.delay_um),
        ("sigma_um", args.sigma_um),
        ("spatial_overlap", spatial_overlap),
        ("overlap_paper", paper),
        ("overlap_quadrature", quadrature),
        ("C", optics.concurrence_optical(args.theta_deg, args.delay_um, args.sigma_um)),
        ("C_wootters", c_wootters),
        ("E_P", e_p),
    ]
    for name, val in lines:
        print(f"{name:<20} = {_fixed(val)}")
    return EXIT_OK


def _sweep_csv_lines(rows, width: int, delays_per_angle: int):
    """The CSV lines of a sweep's `rows` of `width` cells, angles outer and
    `delays_per_angle` delays inner, each cell `%.12g` of its number plus
    0.0 as `_write_table` prints it.  The first five columns each depend on
    one axis and are formatted once on it: theta_deg and spatial_overlap
    once per angle, delay_um, overlap_paper and overlap_quadrature once per
    delay.  A row formats only its own cells, the ones after them."""
    delay_cells = [
        ("%.12g" % (delay + 0.0), "%.12g" % (paper + 0.0), "%.12g" % (quadrature + 0.0))
        for _, delay, _, paper, quadrature, *_ in rows[:delays_per_angle]
    ]
    own = ",%.12g" * (width - 5) + "\n"
    for start in range(0, len(rows), delays_per_angle):
        block = rows[start : start + delays_per_angle]
        theta, _, spatial_overlap = block[0][:3]
        # the angle's cells are written into the line; %% leaves a slot
        line = "%.12g,%%s,%.12g,%%s,%%s" % (theta + 0.0, spatial_overlap + 0.0) + own
        own_cells = zip(*[[row[k] + 0.0 for row in block] for k in range(5, width)])
        yield from [line % (cells + values) for cells, values in zip(delay_cells, own_cells)]


def _write_table(
    path: Optional[str], fmt: str, columns: Sequence[str], rows, metadata: dict,
    report: Optional[str] = None, delays_per_angle: Optional[int] = None,
) -> None:
    """Write `rows`, each a sequence of numbers in `columns` order, as CSV or
    JSON to `path`, or to stdout for None or '-'.  A CSV cell is `%.12g` of
    the number plus 0.0, which prints -0.0 as 0.  With `delays_per_angle`
    the rows are a sweep's, and the CSV formats each cell of one axis once
    on that axis (`_sweep_csv_lines`).  A path that cannot be opened raises
    `ValueError`, a usage error, before any byte is written.  A `report`
    line goes to stderr once the target is open and before its first byte,
    so a reader of stdout that leaves early cannot lose it."""
    if path is None or path == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        try:
            target = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ValueError(f"cannot write {path!r}: {exc}") from exc
    with target as handle:
        if report is not None:
            print(report, file=sys.stderr)
        if fmt == "csv":
            handle.write(",".join(columns) + "\n")
            if delays_per_angle is None:
                line = ",".join(["%.12g"] * len(columns)) + "\n"
                handle.writelines(line % tuple([x + 0.0 for x in row]) for row in rows)
            else:
                handle.writelines(_sweep_csv_lines(rows, len(columns), delays_per_angle))
        else:
            payload = {
                "metadata": metadata,
                "rows": [dict(zip(columns, row)) for row in rows],
            }
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def _monte_carlo_columns(rows, states, shots: float, runs: int, seed: int) -> int:
    """Append to each exact sweep row its noisy columns, c_mc_mean and
    c_mc_stddev, from `runs` Poisson draws of the four X-state channels of
    its point's (1,1) spin matrix in `states`, at `shots` counts per
    channel.  Returns the number of runs that observed no coincidence, whose
    concurrence reads 0 for want of counts."""
    import numpy as np

    from . import optics

    no_coincidence = 0
    for index, (values, rho) in enumerate(zip(rows, states)):
        rates = optics.xstate_rates(rho, shots)
        try:
            # seed [seed, row_index] so row order never couples the draws
            counts = optics.simulate_counts(rates, [seed, index], runs)
        except ValueError as exc:
            raise ValueError(f"--shots {shots:g} is too large: {exc}") from exc
        no_coincidence += int(np.count_nonzero(optics.xstate_no_coincidence(counts)))
        # the mean reads the counts pooled over the runs, which the fold |q|
        # and the clip at 1 bias far less than a mean of per-run estimates;
        # summed as floats, since the pooled counts of a large --shots can
        # pass the int64 range
        pooled = optics.xstate_concurrence(counts.sum(axis=0, keepdims=True, dtype=float))
        c = optics.xstate_concurrence(counts)
        values += [float(pooled[0]), float(np.std(c, ddof=1))]
    return no_coincidence


def cmd_sweep(args) -> int:
    thetas, delays = args.theta_grid, args.delay_grid
    columns = SWEEP_NOISY_COLUMNS if args.noisy else SWEEP_COLUMNS
    rows, states = _point_values(
        thetas, delays, args.sigma_um, args.overlap_convention, keep_states=args.noisy
    )
    no_coincidence = 0
    if args.noisy:
        no_coincidence = _monte_carlo_columns(rows, states, args.shots, args.runs, args.seed)
    metadata = {
        "command": "sweep",
        "version": __version__,
        "theta_grid": thetas,
        "delay_grid": delays,
        "sigma_um": args.sigma_um,
        "overlap_convention": args.overlap_convention,
        "noisy": args.noisy,
        "shots": args.shots,
        "runs": args.runs,
        "seed": args.seed,
    }
    report = None
    if args.noisy:
        metadata["runs_without_coincidence"] = no_coincidence
    if no_coincidence:
        report = (
            f"monte carlo: {no_coincidence} of {len(rows) * args.runs} runs observed "
            "no coincidence and read a concurrence of 0"
        )
    _write_table(args.out, args.format, columns, rows, metadata, report, len(delays))
    return EXIT_OK


def cmd_hom(args) -> int:
    from . import optics

    if args.format == "json" and args.out in (None, "-"):
        raise ValueError("hom --format json needs --out FILE: the fit lines go to stdout")
    delays = args.delay_grid
    dip = optics.gaussian_dip(delays, args.fwhm_um, args.center_um)
    rates = optics.hom_coincidence(args.visibility, dip, args.baseline)
    try:
        block = optics.simulate_counts(rates, args.seed, args.runs) if args.noisy else rates[None]
    except ValueError as exc:
        raise ValueError(f"--baseline {args.baseline:g} is too large: {exc}") from exc
    # the fit's working arrays grow with the block, so it runs before any
    # output: a block too large to fit leaves no half-written table
    fits = optics.fit_gaussian_dip(delays, block, poisson_weights=args.noisy)

    rows = [(l, float(c)) for l, c in zip(delays, block[0])]
    metadata = {
        "command": "hom",
        "version": __version__,
        "visibility": args.visibility,
        "fwhm_um": args.fwhm_um,
        "baseline": args.baseline,
        "center_um": args.center_um,
        "noisy": args.noisy,
        "runs": args.runs,
        "seed": args.seed,
    }
    # the command's failure, if any, and its report are settled before the
    # first byte is written, so a reader of stdout that leaves early cannot
    # hide them: the printed table's fit, else the Monte Carlo estimate over
    # all the runs
    fit = fits.outcomes[0]  # the printed table's
    failure = fit if isinstance(fit, optics.FitError) else None
    mc = report = None
    if args.noisy and failure is None:
        try:
            mc, failed = optics.monte_carlo_errorbars(fits.outcomes)
        except optics.EstimatorError as exc:
            failure = exc
        else:
            if failed:
                report = f"monte carlo: left out {failed} of {args.runs} runs whose fit failed"

    try:
        _write_table(args.out, args.format, ("delay_um", "counts"), rows, metadata, report)
        if fit is not failure:
            print(f"fit: baseline    = {_fixed(fit.baseline)} +/- {_fixed(fit.baseline_err)}")
            print(f"fit: depth       = {_fixed(fit.depth)} +/- {_fixed(fit.depth_err)}")
            print(f"fit: center_um   = {_fixed(fit.center_um)} +/- {_fixed(fit.center_err)}")
            print(f"fit: fwhm_um     = {_fixed(fit.fwhm_um)} +/- {_fixed(fit.fwhm_err)}")
            print(f"fit: visibility  = {_fixed(fit.visibility)} +/- {_fixed(fit.visibility_err)}")
            print(f"fit: residual    = {fit.residual:.6g}")
        if mc is not None:
            (v_mean, v_std), (f_mean, f_std) = mc
            print(f"mc ({args.runs} runs): visibility = {_fixed(v_mean)} +/- {_fixed(v_std)}")
            print(f"mc ({args.runs} runs): fwhm_um    = {_fixed(f_mean)} +/- {_fixed(f_std)}")
    except BrokenPipeError:
        if failure is None:
            raise
    if failure is not None:
        raise failure
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verification  # the reference layer, which no other command loads

    results = verification.run_suites(trials=args.trials, seed=args.seed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(
            f"[check ] {r.name:<36} max_dev={r.max_deviation:<12.3e} "
            f"tol={r.tolerance:.0e}  {status}"
        )
    passed = sum(r.passed for r in results)
    print(f"verification: {passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_VERIFICATION


@functools.cache  # parsing never changes the parser, so one serves every `main` call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="twoboson",
        description="Entanglement of two identical bosons from spatial overlap "
        "and indistinguishability.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_overlap(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--sigma-um",
            type=_sigma,
            default=DEFAULT_SIGMA_UM,
            help="Gaussian width of the concurrence-vs-delay curve (um)",
        )
        group.add_argument(
            "--delta", type=_delta, dest="sigma_um", metavar="DELTA", default=argparse.SUPPRESS,
            help="spectral width (1/um); sigma = 1/(2 delta)",
        )
        p.add_argument(
            "--overlap-convention",
            choices=OVERLAP_CONVENTIONS,
            default="fitted",
            help="delay-to-overlap mapping used for the density-matrix pipeline",
        )

    p = sub.add_parser("concurrence", help="all concurrence readings at one point")
    p.add_argument("--theta-deg", type=_finite_float, required=True, help="half-wave-plate angle")
    p.add_argument("--delay-um", type=_finite_float, default=0.0, help="path delay (um)")
    add_overlap(p)
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("sweep", help="table of concurrence readings over grids")
    p.add_argument("--theta-grid", type=_parse_grid, default="0:45:19")
    p.add_argument("--delay-grid", type=_parse_grid, default="0,30,60,300")
    add_overlap(p)
    p.add_argument("--noisy", action="store_true", help="add Monte Carlo columns")
    p.add_argument("--shots", type=_positive_float, default=1000.0, help="counts scale per channel")
    p.add_argument("--runs", type=_runs, default=100, help="Monte Carlo resamples per row")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hom", help="simulate and fit a Hong-Ou-Mandel dip")
    p.add_argument("--visibility", type=_unit_float, default=1.0, help="true dip visibility")
    p.add_argument("--fwhm-um", type=_positive_float, default=132.0, help="true dip FWHM (um)")
    p.add_argument(
        "--baseline", type=_positive_float, default=1000.0,
        help="coincidence level far from the dip",
    )
    p.add_argument("--center-um", type=_finite_float, default=0.0, help="dip center")
    p.add_argument("--delay-grid", type=_parse_grid, default="-300:300:61")
    p.add_argument("--noisy", action="store_true", help="Poisson counts instead of exact rates")
    p.add_argument("--runs", type=_runs, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="count table path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("verify", help="run the randomized cross-check suites")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    from . import optics  # every command loads it, and the clauses below name its errors

    # every command refuses by raising; this is the one place that turns a
    # failure into its stderr line and exit code
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        # a count block too large to allocate, as a huge --runs asks for,
        # which is drawn before any output
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        # finite input whose arithmetic overflows or divides by zero, which
        # happens while a point or table is computed, before it is written
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except optics.FitError as exc:  # the printed table's fit, after the table
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except optics.EstimatorError as exc:
        print(f"monte carlo failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except BrokenPipeError:
        # the reader of stdout left early, as `| head` does: a filter whose
        # reader is gone has nothing more to do, and that is no failure
        return EXIT_OK


def run() -> None:
    """The `twoboson` console script and `python -m twoboson.cli`: exit with
    the code of `main` on the process's arguments.

    Output still buffered for a reader of stdout that left early can never
    be written.  Closing the stream drops it, so the interpreter's flush at
    exit has nothing to complain about; the standard streams do not own
    their file descriptors, so no descriptor is closed."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        with contextlib.suppress(BrokenPipeError):
            sys.stdout.close()
    sys.exit(code)


if __name__ == "__main__":
    run()
