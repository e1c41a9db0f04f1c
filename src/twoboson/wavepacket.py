"""Gaussian wavepacket widths and overlap conventions, without numpy.

A wavepacket of delay-length width sigma has spectral width
delta = 1/(2 sigma).  This module holds the default width, the one table
from overlap convention to exponent scale, whose keys are the convention
names, and the width check.  It imports nothing, so the `twoboson` front end
parses its defaults, choices and `--delta` before any physics module loads.
`optics` imports these names back, as the same objects.
"""

#: width (um) whose 2*sqrt(2 ln 2)*sigma FWHM is 140 um
DEFAULT_SIGMA_UM = 59.45

#: the delay -> |<phi_A|phi_B>| mappings of `optics.gaussian_overlap`, each
#: exp(-l^2 / (scale sigma^2)) with its scale here: 'paper' is
#: exp(-2 delta^2 l^2) and 'quadrature' exp(-delta^2 l^2 / 2), with
#: delta^2 = 1/(4 sigma^2)
OVERLAP_SCALE = {"fitted": 4.0, "paper": 2.0, "quadrature": 8.0}
#: the convention names, in the table's order
OVERLAP_CONVENTIONS = tuple(OVERLAP_SCALE)


def check_sigma(sigma_um: float) -> None:
    """Refuse a delay-length width that is not positive, nan included."""
    if not sigma_um > 0.0:
        raise ValueError("sigma must be positive")


def sigma_to_delta(sigma_um: float) -> float:
    """Spectral width from delay-length width, sigma = 1/(2 delta)."""
    check_sigma(sigma_um)
    return 1.0 / (2.0 * sigma_um)


def delta_to_sigma(delta: float) -> float:
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return 1.0 / (2.0 * delta)
