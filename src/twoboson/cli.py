"""Command-line front end.

Subcommands:

    concurrence   one point: every concurrence reading at (theta, delay)
    sweep         CSV/JSON table over theta and delay grids
    hom           simulated Hong-Ou-Mandel scan with a Gaussian dip fit
    verify        randomized cross-check suites between algebra and oracle

Angles are degrees at this boundary (radians never leak out), lengths are
micrometers.  Exit codes: 0 success, 1 usage error, 2 numerical/fit failure,
3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import Optional, Sequence

import numpy as np

from . import __version__
from .core_state import SingleParticleState, Spin
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


def _fmt(x: float) -> str:
    x = float(x)
    if x == 0.0:
        x = 0.0  # normalize -0.0
    return format(x, ".12g")


def _sigma_from_args(args) -> float:
    if getattr(args, "delta", None) is not None:
        return optics.delta_to_sigma(args.delta)
    return args.sigma_um


def _point_values(theta_deg: float, delay_um: float, sigma_um: float, convention: str):
    """All derived quantities of one (theta, delay) grid point."""
    ov = optics.gaussian_overlap(delay_um, convention, sigma_um)
    alphas, betas = optics.spatial_amplitudes_from_theta(theta_deg)
    phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
    p_a = SingleParticleState(alphas, Spin.UP, phi_a)
    p_b = SingleParticleState(betas, Spin.DOWN, phi_b)
    nd = entanglement.number_distribution(p_a, p_b)
    return {
        "theta_deg": theta_deg,
        "delay_um": delay_um,
        "spatial_overlap": optics.spatial_overlap_factor(theta_deg),
        "overlap_paper": optics.gaussian_overlap(delay_um, "paper", sigma_um),
        "overlap_quadrature": optics.gaussian_overlap(delay_um, "quadrature", sigma_um),
        "c_closed_form": entanglement.concurrence_closed_form(alphas, betas, ov),
        "c_wootters_normalized": nd.concurrence,
        "e_p": entanglement.entanglement_of_particles(nd),
    }, nd.state


def cmd_concurrence(args) -> int:
    sigma = _sigma_from_args(args)
    values, _ = _point_values(args.theta_deg, args.delay_um, sigma, args.overlap_convention)
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


def _open_out(path: Optional[str]):
    if path is None or path == "-":
        return sys.stdout, False
    try:
        return open(path, "w", encoding="utf-8", newline=""), True
    except OSError as exc:
        print(f"error: cannot write {path!r}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE) from exc


def _write_table(handle, fmt: str, columns: Sequence[str], rows, metadata: dict):
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
    rows = []
    for theta in args.theta_grid:
        for delay in args.delay_grid:
            values, rho = _point_values(theta, delay, sigma, args.overlap_convention)
            if args.noisy:
                # seed [seed, row_index] so row order never couples the draws
                counts = optics.simulate_counts(
                    optics.xstate_rates(rho, args.shots), [args.seed, len(rows)], args.runs
                )
                (values["c_mc_mean"], values["c_mc_stddev"]), _ = (
                    optics.monte_carlo_errorbars(counts, optics.xstate_concurrence)
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
    handle, owned = _open_out(args.out)
    try:
        _write_table(handle, args.format, columns, rows, metadata)
    finally:
        if owned:
            handle.close()
    return EXIT_OK


def cmd_hom(args) -> int:
    if not 0.0 <= args.visibility <= 1.0:
        print("error: visibility must lie in [0, 1]", file=sys.stderr)
        return EXIT_USAGE
    if len(args.delay_grid) < 5:
        print("error: a dip fit needs a delay grid of at least 5 points", file=sys.stderr)
        return EXIT_USAGE
    w = args.fwhm_um / optics.GAUSSIAN_FWHM_FACTOR

    def truth(l: float) -> float:
        return args.baseline * (
            1.0 - args.visibility * np.exp(-((l - args.center_um) ** 2) / (2.0 * w**2))
        )

    delays = args.delay_grid
    rates = np.array([truth(l) for l in delays])
    block = optics.simulate_counts(rates, args.seed, args.runs) if args.noisy else rates[None]
    counts = block[0]  # the Monte Carlo below reduces this same block

    rows = [{"delay_um": l, "counts": float(c)} for l, c in zip(delays, counts)]
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
    handle, owned = _open_out(args.out)
    try:
        _write_table(handle, args.format, ("delay_um", "counts"), rows, metadata)
    finally:
        if owned:
            handle.close()

    try:
        fit = optics.fit_gaussian_dip(
            list(zip(delays, counts)), poisson_weights=args.noisy
        )
    except optics.FitError as exc:
        print(f"fit failed: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    print(f"fit: baseline    = {fit.baseline:.6f} +/- {fit.baseline_err:.6f}")
    print(f"fit: depth       = {fit.depth:.6f} +/- {fit.depth_err:.6f}")
    print(f"fit: center_um   = {fit.center_um:.6f} +/- {fit.center_err:.6f}")
    print(f"fit: fwhm_um     = {fit.fwhm_um:.6f} +/- {fit.fwhm_err:.6f}")
    print(f"fit: visibility  = {fit.visibility:.6f} +/- {fit.visibility_err:.6f}")
    print(f"fit: residual    = {fit.residual:.6g}")

    if args.noisy:
        def estimator(c):
            refit = optics.fit_gaussian_dip(list(zip(delays, c)), poisson_weights=True)
            return refit.visibility, refit.fwhm_um

        try:
            ((v_mean, v_std), (f_mean, f_std)), failed = optics.monte_carlo_errorbars(
                block, estimator
            )
        except optics.EstimatorError as exc:
            print(f"monte carlo failed: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL
        if failed:
            print(
                f"monte carlo: left out {failed} of {args.runs} runs whose fit failed",
                file=sys.stderr,
            )
        print(f"mc ({args.runs} runs): visibility = {v_mean:.6f} +/- {v_std:.6f}")
        print(f"mc ({args.runs} runs): fwhm_um    = {f_mean:.6f} +/- {f_std:.6f}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        results = verification.run_suites(trials=args.trials, seed=args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    failed = 0
    for r in results:
        if r.kind == "check":
            status = "PASS" if r.passed else "FAIL"
            print(
                f"[check ] {r.name:<36} max_dev={r.max_deviation:<12.3e} "
                f"tol={r.tolerance:.0e}  {status}"
            )
            failed += 0 if r.passed else 1
        else:
            print(
                f"[report] {r.name:<36} max_dev={r.max_deviation:<12.3e} ({r.note})"
            )
    checks = sum(1 for r in results if r.kind == "check")
    print(f"verification: {checks - failed}/{checks} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFICATION


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
            "--delta", type=_positive_float, default=None,
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
    p.add_argument("--seed", type=int, default=0)
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
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="count table path ('-' = stdout)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_hom)

    p = sub.add_parser("verify", help="run the randomized cross-check suites")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
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
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (ValueError,) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
