"""Command-line front end.

Subcommands:

    concurrence   one point: every concurrence reading at (theta, delay)
    sweep         CSV/JSON table over theta and delay grids
    hom           simulated Hong-Ou-Mandel scan with a Gaussian dip fit
    verify        randomized cross-check suites between algebra and oracle

Angles are degrees at this boundary (radians never leak out), lengths are
micrometers.  Exit codes: 0 success, 1 usage error, 2 numerical/fit failure,
3 verification failure.  A command refuses by raising; `main` alone turns
the failure into one line on stderr and its exit code.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import json
import math
import sys
from typing import NamedTuple, Optional, Sequence

import numpy as np

from . import __version__
from .core_state import DistVector, SingleParticleState, SpatialAmplitudes, Spin
from . import entanglement, optics, verification

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


def _delta(text: str) -> float:
    value = _positive_float(text)
    sigma = optics.delta_to_sigma(value)
    if not (math.isfinite(sigma) and sigma > 0.0):
        raise argparse.ArgumentTypeError(
            f"expected a spectral width whose sigma = 1/(2 delta) is a finite "
            f"positive number, got {text!r}"
        )
    return value


def _seed(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return value


def _parse_grid(spec: str) -> tuple[float, ...]:
    """Comma list '0,30,60' or linspace 'start:stop:count' of finite values."""
    spec = spec.strip()
    try:
        if ":" in spec:
            start, stop, count = spec.split(":")
            n = int(count)
            if n < 1:
                raise ValueError
            with np.errstate(all="ignore"):  # non-finite ends are rejected below
                values = tuple(float(v) for v in np.linspace(float(start), float(stop), n))
        else:
            values = tuple(float(tok) for tok in spec.split(",") if tok.strip())
        if not values or not all(math.isfinite(v) for v in values):
            raise ValueError
        return values
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad grid {spec!r}; use 'a,b,c' or 'start:stop:count'"
        ) from None
    except MemoryError:
        raise argparse.ArgumentTypeError(f"grid {spec!r} is too large to allocate") from None


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _fixed(x: float) -> str:
    """x to 6 decimals, unsigned where it rounds to zero, as `_fmt` leaves
    -0.0: a tiny negative rounding residue prints as 0.000000."""
    text = format(x, ".6f")
    return "0.000000" if text == "-0.000000" else text


def _sigma_from_args(args) -> float:
    if getattr(args, "delta", None) is not None:
        return optics.delta_to_sigma(args.delta)
    return args.sigma_um


class _ThetaValues(NamedTuple):
    """What one half-wave-plate angle gives every grid point it meets."""

    theta_deg: float
    alphas: SpatialAmplitudes
    betas: SpatialAmplitudes
    spatial_overlap: float


def _theta_values(theta_deg: float) -> _ThetaValues:
    alphas, betas = optics.spatial_amplitudes_from_theta(theta_deg)
    return _ThetaValues(theta_deg, alphas, betas, optics.spatial_overlap_factor(theta_deg))


class _DelayValues(NamedTuple):
    """What one delay gives every grid point it meets: the overlap under the
    chosen convention, which sets the dist vectors, and the two printed
    overlaps."""

    delay_um: float
    overlap: float
    overlap_paper: float
    overlap_quadrature: float
    phi_a: DistVector
    phi_b: DistVector


def _delay_values(delay_um: float, sigma_um: float, convention: str) -> _DelayValues:
    ov = optics.gaussian_overlap(delay_um, convention, sigma_um)
    return _DelayValues(
        delay_um,
        ov,
        optics.gaussian_overlap(delay_um, "paper", sigma_um),
        optics.gaussian_overlap(delay_um, "quadrature", sigma_um),
        *optics.dist_vectors_for_overlap(ov),
    )


def _point_values(theta: _ThetaValues, delay: _DelayValues):
    """The row of one (theta, delay) grid point without its two Wootters
    readings, which `_theta_rows` adds, and the point's number distribution."""
    p_a = SingleParticleState(theta.alphas, Spin.UP, delay.phi_a)
    p_b = SingleParticleState(theta.betas, Spin.DOWN, delay.phi_b)
    nd = entanglement.number_distribution(p_a, p_b)
    return {
        "theta_deg": theta.theta_deg,
        "delay_um": delay.delay_um,
        "spatial_overlap": theta.spatial_overlap,
        "overlap_paper": delay.overlap_paper,
        "overlap_quadrature": delay.overlap_quadrature,
        "c_closed_form": entanglement.concurrence_closed_form(
            theta.alphas, theta.betas, delay.overlap
        ),
    }, nd


def _theta_rows(theta: _ThetaValues, delays: Sequence[_DelayValues]):
    """The rows of one angle's grid points, in delay order, each with its
    unnormalized (1,1) spin matrix.  One stacked Wootters call reads the
    normalized concurrence of every point, and E_P is computed from it."""
    points = [_point_values(theta, delay) for delay in delays]
    nds = [nd for _, nd in points]
    concurrence = entanglement.wootters_concurrence([nd.state for nd in nds], normalize=True)
    e_p = entanglement.entanglement_of_particles(nds, concurrence)
    rows = []
    for (values, nd), c, e in zip(points, concurrence.tolist(), e_p.tolist()):
        values["c_wootters_normalized"] = c
        values["e_p"] = e
        rows.append((values, nd.state))
    return rows


def cmd_concurrence(args) -> int:
    sigma = _sigma_from_args(args)
    ((values, _),) = _theta_rows(
        _theta_values(args.theta_deg),
        [_delay_values(args.delay_um, sigma, args.overlap_convention)],
    )
    lines = [
        ("theta_deg", args.theta_deg),
        ("delay_um", args.delay_um),
        ("sigma_um", sigma),
        ("spatial_overlap", values["spatial_overlap"]),
        ("overlap_paper", values["overlap_paper"]),
        ("overlap_quadrature", values["overlap_quadrature"]),
        ("C", optics.concurrence_optical(args.theta_deg, args.delay_um, sigma)),
        ("C_wootters", values["c_wootters_normalized"]),
        ("E_P", values["e_p"]),
    ]
    for name, val in lines:
        print(f"{name:<20} = {val:.6f}")
    return EXIT_OK


def _write_table(
    path: Optional[str], fmt: str, columns: Sequence[str], rows, metadata: dict
) -> None:
    """Write `rows` as CSV or JSON to `path`, or to stdout for None or '-'.
    A path that cannot be opened raises `ValueError`, a usage error, before
    any byte is written."""
    if path is None or path == "-":
        target = contextlib.nullcontext(sys.stdout)
    else:
        try:
            target = open(path, "w", encoding="utf-8", newline="")
        except OSError as exc:
            raise ValueError(f"cannot write {path!r}: {exc}") from exc
    with target as handle:
        if fmt == "csv":
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(columns)
            for row in rows:
                writer.writerow([_fmt(row[c]) for c in columns])
        else:
            payload = {
                "metadata": metadata,
                "rows": [{c: row[c] for c in columns} for row in rows],
            }
            json.dump(payload, handle, indent=2)
            handle.write("\n")


def cmd_sweep(args) -> int:
    sigma = _sigma_from_args(args)
    columns = SWEEP_NOISY_COLUMNS if args.noisy else SWEEP_COLUMNS
    # what depends on one axis only is computed once per grid value
    thetas = [_theta_values(theta) for theta in args.theta_grid]
    delays = [_delay_values(delay, sigma, args.overlap_convention) for delay in args.delay_grid]
    rows = []
    for theta in thetas:
        for values, rho in _theta_rows(theta, delays):
            if args.noisy:
                rates = optics.xstate_rates(rho, args.shots)
                try:
                    # seed [seed, row_index] so row order never couples the draws
                    counts = optics.simulate_counts(rates, [args.seed, len(rows)], args.runs)
                except ValueError as exc:
                    raise ValueError(f"--shots {args.shots:g} is too large: {exc}") from exc
                c = optics.xstate_concurrence(counts)
                values["c_mc_mean"], values["c_mc_stddev"] = (
                    float(np.mean(c)), float(np.std(c, ddof=1))
                )
            rows.append(values)
    metadata = {
        "command": "sweep",
        "version": __version__,
        "theta_grid": list(args.theta_grid),
        "delay_grid": list(args.delay_grid),
        "sigma_um": sigma,
        "overlap_convention": args.overlap_convention,
        "noisy": args.noisy,
        "shots": args.shots,
        "runs": args.runs,
        "seed": args.seed,
    }
    _write_table(args.out, args.format, columns, rows, metadata)
    return EXIT_OK


def cmd_hom(args) -> int:
    if not 0.0 <= args.visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    if len(set(args.delay_grid)) < 5:
        raise ValueError("a dip fit needs a delay grid of at least 5 distinct delays")
    w = args.fwhm_um / optics.GAUSSIAN_FWHM_FACTOR
    delays = args.delay_grid
    # each exponent in float arithmetic, which raises for a square that
    # overflows or a zero width, as the README says; np.exp takes them at once
    exponents = [-((l - args.center_um) ** 2) / (2.0 * w**2) for l in delays]
    rates = args.baseline * (1.0 - args.visibility * np.exp(exponents))
    try:
        block = optics.simulate_counts(rates, args.seed, args.runs) if args.noisy else rates[None]
    except ValueError as exc:
        raise ValueError(f"--baseline {args.baseline:g} is too large: {exc}") from exc
    # the fit's working arrays grow with the block, so it runs before any
    # output: a block too large to fit leaves no half-written table
    fits = optics.fit_gaussian_dip(delays, block, poisson_weights=args.noisy)

    rows = [{"delay_um": l, "counts": float(c)} for l, c in zip(delays, block[0])]
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
    _write_table(args.out, args.format, ("delay_um", "counts"), rows, metadata)

    fit = fits.outcomes[0]  # the printed table's
    if isinstance(fit, optics.FitError):
        raise fit

    print(f"fit: baseline    = {_fixed(fit.baseline)} +/- {_fixed(fit.baseline_err)}")
    print(f"fit: depth       = {_fixed(fit.depth)} +/- {_fixed(fit.depth_err)}")
    print(f"fit: center_um   = {_fixed(fit.center_um)} +/- {_fixed(fit.center_err)}")
    print(f"fit: fwhm_um     = {_fixed(fit.fwhm_um)} +/- {_fixed(fit.fwhm_err)}")
    print(f"fit: visibility  = {_fixed(fit.visibility)} +/- {_fixed(fit.visibility_err)}")
    print(f"fit: residual    = {fit.residual:.6g}")

    if args.noisy:
        ((v_mean, v_std), (f_mean, f_std)), failed = optics.monte_carlo_errorbars(fits.outcomes)
        if failed:
            print(
                f"monte carlo: left out {failed} of {args.runs} runs whose fit failed",
                file=sys.stderr,
            )
        print(f"mc ({args.runs} runs): visibility = {_fixed(v_mean)} +/- {_fixed(v_std)}")
        print(f"mc ({args.runs} runs): fwhm_um    = {_fixed(f_mean)} +/- {_fixed(f_std)}")
    return EXIT_OK


def cmd_verify(args) -> int:
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

    def add_sigma(p):
        group = p.add_mutually_exclusive_group()
        group.add_argument(
            "--sigma-um",
            type=_positive_float,
            default=optics.DEFAULT_SIGMA_UM,
            help="Gaussian width of the concurrence-vs-delay curve (um)",
        )
        group.add_argument(
            "--delta", type=_delta, default=None,
            help="spectral width (1/um); sigma = 1/(2 delta)",
        )

    p = sub.add_parser("concurrence", help="all concurrence readings at one point")
    p.add_argument("--theta-deg", type=_finite_float, required=True, help="half-wave-plate angle")
    p.add_argument("--delay-um", type=_finite_float, default=0.0, help="path delay (um)")
    add_sigma(p)
    p.add_argument(
        "--overlap-convention",
        choices=optics.OVERLAP_CONVENTIONS,
        default="fitted",
        help="delay-to-overlap mapping used for the density-matrix pipeline",
    )
    p.set_defaults(func=cmd_concurrence)

    p = sub.add_parser("sweep", help="table of concurrence readings over grids")
    p.add_argument("--theta-grid", type=_parse_grid, default="0:45:19")
    p.add_argument("--delay-grid", type=_parse_grid, default="0,30,60,300")
    add_sigma(p)
    p.add_argument("--overlap-convention", choices=optics.OVERLAP_CONVENTIONS, default="fitted")
    p.add_argument("--noisy", action="store_true", help="add Monte Carlo columns")
    p.add_argument("--shots", type=_positive_float, default=1000.0, help="counts scale per channel")
    p.add_argument("--runs", type=int, default=100, help="Monte Carlo resamples per row")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", default=None, help="output path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hom", help="simulate and fit a Hong-Ou-Mandel dip")
    p.add_argument("--visibility", type=float, default=1.0, help="true dip visibility")
    p.add_argument("--fwhm-um", type=_positive_float, default=132.0, help="true dip FWHM (um)")
    p.add_argument(
        "--baseline", type=_positive_float, default=1000.0,
        help="coincidence level far from the dip",
    )
    p.add_argument("--center-um", type=_finite_float, default=0.0, help="dip center")
    p.add_argument("--delay-grid", type=_parse_grid, default="-300:300:61")
    p.add_argument("--noisy", action="store_true", help="Poisson counts instead of exact rates")
    p.add_argument("--runs", type=int, default=100)
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
        if getattr(args, "noisy", False) and args.runs < 2:
            parser.error("--noisy needs --runs >= 2 for an error bar")
    except SystemExit as exc:
        return int(exc.code or 0)
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


if __name__ == "__main__":
    sys.exit(main())
