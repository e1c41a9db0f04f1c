"""Gaussian wavepacket widths and overlap conventions, without numpy.

A wavepacket of delay-length width sigma has spectral width
delta = 1/(2 sigma).  These are the names the command-line parser needs for
its defaults, choices and `--delta`; this module imports nothing, so the
`twoboson` front end parses its arguments before any physics module loads.
`optics` imports every name here back, and `optics.DEFAULT_SIGMA_UM` and the
rest are these same objects.
"""

#: width (um) whose 2*sqrt(2 ln 2)*sigma FWHM is 140 um
DEFAULT_SIGMA_UM = 59.45

#: delay -> |<phi_A|phi_B>| mappings of `optics.gaussian_overlap`
OVERLAP_CONVENTIONS = ("fitted", "paper", "quadrature")


def sigma_to_delta(sigma_um: float) -> float:
    """Spectral width from delay-length width, sigma = 1/(2 delta)."""
    if not sigma_um > 0.0:
        raise ValueError("sigma must be positive")
    return 1.0 / (2.0 * sigma_um)


def delta_to_sigma(delta: float) -> float:
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return 1.0 / (2.0 * delta)
