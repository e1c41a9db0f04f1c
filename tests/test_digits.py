"""Every printed exact digit of `sweep`, `concurrence` and the exact `hom`
table is a true digit.

Each exact column of the 91x61 sweep is evaluated in stdlib `decimal` at
50 digits, from the same float inputs the program starts from: the grid
values, the width sigma, the mode amplitudes (sin 2t, cos 2t) as
`optics.spatial_amplitudes_from_theta` gives them, and the overlap of the
chosen convention as `optics.gaussian_overlap` gives it.  `Decimal(float)`
is exact, so the reference carries no rounding of the program's own.  For
these inputs the pair's dist vectors are unit vectors with that overlap, so
the (1,1) block reads

    rho[1,1] = s^4,  rho[2,2] = c^4,  |rho[1,2]| = s^2 c^2 ov^2,

the concurrence is 2 s^2 c^2 ov^2 / (s^4 + c^4), P(1,1) is
(s^4 + c^4) / (s^2 + c^2)^2 and E_P their product.  An exact `hom` count
is B (1 - V exp(-(l - c)^2 / (2 w^2))), from the parsed options and the
program's float width w = fwhm / `GAUSSIAN_FWHM_FACTOR`.

A CSV cell must equal `%.12g` of its reference, and a `concurrence` line
`%.6f` of its reference.  A reference within `BOUNDARY_ULPS` float ulps of a
rounding boundary of its format may print either neighbour, so such a cell
is exempt; the tests count and print them.  A JSON value, which keeps every
bit, must lie within its column's `JSON_ULPS` of its reference.
"""

import contextlib
import csv
import io
import json
import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import pytest

from twoboson import cli, optics
from twoboson.cli import EXIT_OK, SWEEP_COLUMNS, main
from twoboson.optics import DEFAULT_SIGMA_UM, GAUSSIAN_FWHM_FACTOR

THETA_GRID, DELAY_GRID = "0:45:91", "0:300:61"
#: working precision of the reference, in decimal digits
PRECISION = 50
#: a reference this close to a rounding boundary, in ulps of its float, is
#: exempt: the concurrence read is within about 6 ulps of its reference
BOUNDARY_ULPS = 8
#: the largest distance of a JSON value from its reference, in ulps of the
#: reference's float, over the 91x61 sweep under every convention.  The
#: grid values are the inputs themselves.  `paper` and `quadrature`, whose
#: exponents are computed from sigma directly, measure 4.10 and 1.37; the
#: others measure 1.21, 2.54, 5.32 and 5.00.
JSON_ULPS = {
    "theta_deg": 0,
    "delay_um": 0,
    "spatial_overlap": 2,
    "overlap_paper": 5,
    "overlap_quadrature": 2,
    "c_closed_form": 3,
    "c_wootters_normalized": 7,
    "e_p": 6,
}
#: the points of the `concurrence` test: the product and balanced angles,
#: generic ones, negative and large values
CONCURRENCE_POINTS = (
    (0.0, 0.0), (10.0, 30.0), (22.5, 0.0), (22.5, 70.0), (33.3, 123.4),
    (45.0, 60.0), (-12.5, -75.0), (67.5, 300.0),
)
#: the option sets of the `hom` test: the default scan, a shallower and
#: wider dip, the baselines at which CI recovers the exact dip, a dip off
#: center on another grid, and every dip parameter moved at once
HOM_OPTIONS = (
    (),
    ("--visibility", "0.91", "--fwhm-um", "137"),
    ("--baseline", "1e-20"),
    ("--baseline", "1e100"),
    ("--center-um", "-20", "--delay-grid", "-200:200:41"),
    ("--visibility", "0.5", "--fwhm-um", "15", "--baseline", "37.5", "--center-um", "3"),
)
_SWEEP_GRIDS = (cli._parse_grid(THETA_GRID), cli._parse_grid(DELAY_GRID))
_HALF = Decimal("0.5")
_MICRO = Decimal("1e-6")


def _references(convention, thetas, delays):
    """The exact columns of every point of the grid `thetas` x `delays`, in
    row order, as Decimals."""
    sigma = Decimal(DEFAULT_SIGMA_UM)
    per_delay = []
    for delay in delays:
        l = Decimal(delay)
        ov = Decimal(optics.gaussian_overlap(delay, convention, DEFAULT_SIGMA_UM))
        paper = (-(l * l) / (2 * sigma * sigma)).exp()  # exp(-2 (delta l)^2)
        quadrature = (-(l * l) / (8 * sigma * sigma)).exp()  # exp(-(delta l)^2 / 2)
        per_delay.append((l, paper, quadrature, ov * ov))
    for theta in thetas:
        alphas, _ = optics.spatial_amplitudes_from_theta(theta)
        s, c = Decimal(alphas.a_l.real), Decimal(alphas.a_r.real)
        s2c2 = s * s * c * c
        w11 = s**4 + c**4
        p11 = w11 / (s2c2 + w11 + s2c2)
        for l, paper, quadrature, ov2 in per_delay:
            concurrence = 2 * s2c2 * ov2 / w11
            yield (
                Decimal(theta), l, 4 * s2c2, paper, quadrature, 4 * s2c2 * ov2,
                concurrence, p11 * concurrence,
            )


def _unit_12g(reference: Decimal) -> Decimal:
    """The last of the 12 significant digits `%.12g` prints of `reference`."""
    return Decimal(1).scaleb(reference.adjusted() - 11)


def _printed(reference: Decimal, unit: Decimal) -> Decimal:
    """`reference` rounded half-even to a multiple of `unit`, as `%.12g`
    with `_unit_12g` and `%.6f` with 1e-6 print it."""
    if not reference:
        return reference
    return reference.quantize(unit, ROUND_HALF_EVEN)


def _near_a_boundary(reference: Decimal, unit: Decimal) -> bool:
    """Whether `reference` lies within `BOUNDARY_ULPS` ulps of a midpoint
    between two neighbouring multiples of `unit`."""
    if not reference:
        return False
    distance = abs(abs(reference / unit % 1) - _HALF) * unit
    return distance <= BOUNDARY_ULPS * Decimal(math.ulp(float(reference)))


def _run(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == EXIT_OK
    return out.getvalue()


def _sweep(convention, fmt) -> str:
    argv = ["sweep", "--theta-grid", THETA_GRID, "--delay-grid", DELAY_GRID]
    return _run(argv + ["--overlap-convention", convention, "--format", fmt])


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_every_printed_exact_digit_of_the_sweep_is_true(convention):
    header, *rows = csv.reader(io.StringIO(_sweep(convention, "csv")))
    assert tuple(header) == SWEEP_COLUMNS
    wrong = {name: [] for name in SWEEP_COLUMNS}
    exempt = dict.fromkeys(SWEEP_COLUMNS, 0)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        references = list(_references(convention, *_SWEEP_GRIDS))
        assert len(rows) == len(references) == 91 * 61
        for row, reference in zip(rows, references):
            for name, cell, ref in zip(SWEEP_COLUMNS, row, reference):
                if _near_a_boundary(ref, _unit_12g(ref)):
                    exempt[name] += 1
                elif Decimal(cell) != _printed(ref, _unit_12g(ref)):
                    wrong[name].append((row[0], row[1], cell, f"{ref:.15e}"))
    print(f"{convention}: cells within {BOUNDARY_ULPS} ulps of a rounding boundary: {exempt}")
    counts = {name: len(cells) for name, cells in wrong.items() if cells}
    assert not counts, (counts, {name: cells[:3] for name, cells in wrong.items() if cells})


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_every_exact_json_value_of_the_sweep_is_within_its_ulp_bound(convention):
    rows = json.loads(_sweep(convention, "json"))["rows"]
    worst = dict.fromkeys(SWEEP_COLUMNS, Decimal(0))
    with localcontext() as ctx:
        ctx.prec = PRECISION
        references = list(_references(convention, *_SWEEP_GRIDS))
        assert len(rows) == len(references) == 91 * 61
        for row, reference in zip(rows, references):
            for name, ref in zip(SWEEP_COLUMNS, reference):
                # Decimal(float) is exact, and an exact zero is 0 ulps from 0.0
                error = abs(Decimal(row[name]) - ref)
                if error:
                    error /= Decimal(math.ulp(float(ref)))
                worst[name] = max(worst[name], error)
    print(f"{convention}: largest distance in ulps: { {k: f'{v:.2f}' for k, v in worst.items()} }")
    over = {name: f"{worst[name]:.2f}" for name in SWEEP_COLUMNS if worst[name] > JSON_ULPS[name]}
    assert not over, over


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_every_printed_digit_of_the_concurrence_command_is_true(convention):
    wrong, exempt = [], 0
    with localcontext() as ctx:
        ctx.prec = PRECISION
        for theta, delay in CONCURRENCE_POINTS:
            argv = ["concurrence", "--theta-deg", repr(theta), f"--delay-um={delay!r}"]
            out = _run(argv + ["--overlap-convention", convention])
            printed = [line.split("=") for line in out.splitlines()]
            (t, l, spatial, paper, quadrature, _, c, e_p), = _references(
                convention, [theta], [delay]
            )
            # the optical law's C is sin^2(4 theta) exp(-l^2 / (2 sigma^2)),
            # the spatial factor times the paper overlap
            references = (
                t, l, Decimal(DEFAULT_SIGMA_UM), spatial, paper, quadrature, spatial * paper,
                c, e_p,
            )
            assert [name.strip() for name, _ in printed] == [
                "theta_deg", "delay_um", "sigma_um", "spatial_overlap", "overlap_paper",
                "overlap_quadrature", "C", "C_wootters", "E_P",
            ]
            for (name, cell), ref in zip(printed, references):
                if _near_a_boundary(ref, _MICRO):
                    exempt += 1
                elif Decimal(cell.strip()) != _printed(ref, _MICRO):
                    wrong.append((theta, delay, name.strip(), cell.strip(), f"{ref:.15e}"))
    print(f"{convention}: lines within {BOUNDARY_ULPS} ulps of a rounding boundary: {exempt}")
    assert not wrong, wrong


@pytest.mark.parametrize("options", HOM_OPTIONS, ids=lambda options: " ".join(options) or "default")
def test_every_printed_digit_of_the_exact_hom_table_is_true(options):
    args = cli.build_parser().parse_args(["hom", *options])
    out = _run(["hom", *options])
    header, *rows = csv.reader(line for line in out.splitlines() if not line.startswith("fit:"))
    assert header == ["delay_um", "counts"]
    assert len(rows) == len(args.delay_grid)
    wrong, exempt = [], 0
    with localcontext() as ctx:
        ctx.prec = PRECISION
        baseline, visibility = Decimal(args.baseline), Decimal(args.visibility)
        center = Decimal(args.center_um)
        w = Decimal(args.fwhm_um / GAUSSIAN_FWHM_FACTOR)  # the program's float width
        for row, delay in zip(rows, args.delay_grid):
            l = Decimal(delay)
            counts = baseline * (1 - visibility * (-((l - center) ** 2) / (2 * w * w)).exp())
            for cell, ref in zip(row, (l, counts)):
                if _near_a_boundary(ref, _unit_12g(ref)):
                    exempt += 1
                elif Decimal(cell) != _printed(ref, _unit_12g(ref)):
                    wrong.append((row[0], cell, f"{ref:.15e}"))
    print(f"hom {options}: cells within {BOUNDARY_ULPS} ulps of a rounding boundary: {exempt}")
    assert not wrong, wrong
