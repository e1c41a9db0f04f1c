"""Every printed exact digit of `sweep` is a true digit.

Each exact CSV column of the 91x61 sweep is evaluated in stdlib `decimal` at
50 digits, from the same float inputs the program starts from: the grid
values, the width sigma, the mode amplitudes (sin 2t, cos 2t) as
`optics.spatial_amplitudes_from_theta` gives them, and the overlap of the
chosen convention as `optics.gaussian_overlap` gives it.  `Decimal(float)`
is exact, so the reference carries no rounding of the program's own.  For
these inputs the pair's dist vectors are unit vectors with that overlap, so
the (1,1) block reads

    rho[1,1] = s^4,  rho[2,2] = c^4,  |rho[1,2]| = s^2 c^2 ov^2,

the concurrence is 2 s^2 c^2 ov^2 / (s^4 + c^4), P(1,1) is
(s^4 + c^4) / (s^2 + c^2)^2 and E_P their product.

A cell must equal `%.12g` of its reference.  A reference within
`BOUNDARY_ULPS` float ulps of a `%.12g` rounding boundary may print either
neighbour, so such a cell is exempt; the test counts and prints them.
"""

import contextlib
import csv
import io
import math
from decimal import ROUND_HALF_EVEN, Decimal, localcontext

import pytest

from twoboson import cli, optics
from twoboson.cli import EXIT_OK, SWEEP_COLUMNS, main
from twoboson.optics import DEFAULT_SIGMA_UM

THETA_GRID, DELAY_GRID = "0:45:91", "0:300:61"
#: working precision of the reference, in decimal digits
PRECISION = 50
#: a reference this close to a rounding boundary, in ulps of its float, is
#: exempt: the concurrence read is within about 6 ulps of its reference
BOUNDARY_ULPS = 8
_HALF = Decimal("0.5")


def _references(convention):
    """The exact columns of every grid point, in row order, as Decimals."""
    thetas, delays = cli._parse_grid(THETA_GRID), cli._parse_grid(DELAY_GRID)
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


def _printed(reference: Decimal) -> Decimal:
    """`%.12g` of `reference`: rounded half-even to 12 significant digits."""
    if not reference:
        return reference
    return reference.quantize(Decimal(1).scaleb(reference.adjusted() - 11), ROUND_HALF_EVEN)


def _near_a_boundary(reference: Decimal) -> bool:
    """Whether `reference` lies within `BOUNDARY_ULPS` ulps of a midpoint
    between two 12-digit neighbours."""
    if not reference:
        return False
    unit = Decimal(1).scaleb(reference.adjusted() - 11)
    distance = abs(abs(reference / unit % 1) - _HALF) * unit
    return distance <= BOUNDARY_ULPS * Decimal(math.ulp(float(reference)))


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_every_printed_exact_digit_of_the_sweep_is_true(convention):
    out = io.StringIO()
    argv = ["sweep", "--theta-grid", THETA_GRID, "--delay-grid", DELAY_GRID]
    with contextlib.redirect_stdout(out):
        assert main(argv + ["--overlap-convention", convention]) == EXIT_OK
    header, *rows = csv.reader(io.StringIO(out.getvalue()))
    assert tuple(header) == SWEEP_COLUMNS
    wrong = {name: [] for name in SWEEP_COLUMNS}
    exempt = dict.fromkeys(SWEEP_COLUMNS, 0)
    with localcontext() as ctx:
        ctx.prec = PRECISION
        references = list(_references(convention))
        assert len(rows) == len(references) == 91 * 61
        for row, reference in zip(rows, references):
            for name, cell, ref in zip(SWEEP_COLUMNS, row, reference):
                if _near_a_boundary(ref):
                    exempt[name] += 1
                elif Decimal(cell) != _printed(ref):
                    wrong[name].append((row[0], row[1], cell, f"{ref:.15e}"))
    print(f"{convention}: cells within {BOUNDARY_ULPS} ulps of a rounding boundary: {exempt}")
    counts = {name: len(cells) for name, cells in wrong.items() if cells}
    assert not counts, (counts, {name: cells[:3] for name, cells in wrong.items() if cells})
