"""Photonic implementation: Gaussian wavepackets, dips, counts, and fits.

The entangling interferometer prepares the mode amplitudes with a half-wave
plate at angle theta,

    alpha_L = beta_R = sin(2 theta),   alpha_R = beta_L = cos(2 theta),

and tunes indistinguishability with a path delay l between two Gaussian
wavepackets of width sigma (spectral width delta = 1/(2 sigma)).
`gaussian_overlap` maps a delay to an overlap under three conventions:

    * 'fitted'      exp(-l^2 / (4 sigma^2)) -- squares to the optical law's
                                              Gaussian factor
    * 'paper'       exp(-2 delta^2 l^2)    -- the printed closed form
    * 'quadrature'  exp(-delta^2 l^2 / 2)  -- direct Gaussian integration of
                                              the spectral amplitudes

'paper' and 'quadrature' disagree by a factor of 4 in the exponent; all are
exposed, nothing is silently reconciled.  The optical concurrence law
C(theta, l) = sin^2(4 theta) exp(-l^2 / (2 sigma^2)) is implemented verbatim;
the closed-form concurrence fed the 'fitted' overlap reproduces it exactly.
`DEFAULT_SIGMA_UM`, `OVERLAP_CONVENTIONS`, `sigma_to_delta` and
`delta_to_sigma` are the `wavepacket` objects, which the command-line parser
reads without loading numpy; each convention's exponent scale and the width
check are `wavepacket`'s too.

The experiment is defined here once, and the commands and the `verification`
suites call the same functions: `prepared_distributions` gives the (up,
down) pair the interferometer prepares at every point of a grid of mode
amplitudes and overlaps, each angle's spin-up particle and each overlap's
distinguishability pair and <phi_B|phi_A> built once for the whole grid,
and `hom_coincidence` the one
Hong-Ou-Mandel coincidence law, baseline * (1 - V x), for a number or an
array of indistinguishabilities x = |<phi_A|phi_B>|^2.  Its visibility V is
a free parameter, or `hom_visibility` of the theta merge, in closed form
from the two-photon amplitudes; its x is an overlap squared, or
`gaussian_dip` over a delay scan.

The rest of the module is desk-scale experiment plumbing: Poisson count
simulation, a damped Gauss-Newton Gaussian-dip fitter, and Monte Carlo
error bars.  A Monte Carlo draws one (runs, n) count block from
`simulate_counts`, the only place a generator is created.  A block
estimator maps it to one value per run at once: `xstate_concurrence` in
closed form, and `fit_gaussian_dip`.  The fitter takes the whole block at
every stage: the delays are sorted once into one axis that every row
shares, every row is fitted in one lockstep Gauss-Newton loop with one
stacked least-squares step per round, from one stacked Householder QR, and
one iteration count over all its passes, and one stacked pass builds every
fitted row's result and its covariance from the QR triangle of its
Jacobian.  A Poisson-weighted row ends at the fixed point of reweighting
from its own model, which solves the Poisson score equation wherever the
model is at least 1; its observed-weight pass is only the seed of that
one, and hands over at the looser `FIT_SEED_TOL`.  Each row gets the bits
of its own fit.  An unweighted row is fitted, and its covariance worked, in
units of a power of two near its largest count, so an exact dip is
recovered at any count scale the float range holds.  The fitter is the one
place that decides each row's outcome, a `FitResult` or a `FitError`, the
rules for a dip the scan does not resolve included.  A row that ends
unconverged gets its error as it leaves the lockstep loop (at the cap, a
`FitConvergenceError` that carries only its message), and a converged row
its outcome in the stacked result pass.
`monte_carlo_errorbars` reduces those outcomes to the visibility and FWHM
error bars, leaving out the runs that are a `FitError`.  No hidden global
state.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple, Sequence

import numpy as np

from .core_state import (
    ATOL_EXACT, DistVector, SingleParticleState, SpatialAmplitudes, Spin, SpinDensityMatrix,
)
from . import entanglement
from .wavepacket import DEFAULT_SIGMA_UM, OVERLAP_CONVENTIONS, OVERLAP_SCALE, check_sigma
from .wavepacket import delta_to_sigma, sigma_to_delta

#: FWHM of a Gaussian exp(-x^2/(2 w^2)) is this factor times w
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))


class FitError(RuntimeError):
    """Base class for dip-fit failures."""


class NoDipError(FitError):
    """The data carry no dip to fit."""


class FitConvergenceError(FitError):
    """Iteration cap hit; the message alone names the best residual seen."""


class EstimatorError(RuntimeError):
    """More than `MAX_FAILED_FRACTION` of the runs of a Monte Carlo failed."""


def gaussian_overlap(l_um: float, convention: str, sigma_um: float) -> float:
    """Scalar overlap of two identical Gaussian wavepackets delayed by l.

    See the module docstring for the three conventions.  All equal 1 at
    l = 0 and decay monotonically.  Each is computed from sigma directly,
    delta^2 = 1/(4 sigma^2) written into the exponent, since a rounded
    delta = 1/(2 sigma) is an error that the exponent amplifies.
    """
    scale = OVERLAP_SCALE.get(convention)
    if scale is None:
        raise ValueError(
            f"unknown overlap convention {convention!r}; pick one of {OVERLAP_CONVENTIONS}"
        )
    check_sigma(sigma_um)
    return math.exp(-(l_um**2) / (scale * sigma_um**2))


def spatial_amplitudes_from_theta(
    theta_deg: float,
) -> tuple[SpatialAmplitudes, SpatialAmplitudes]:
    """Half-wave-plate parameterization: alpha = (sin 2t, cos 2t) and
    beta = (cos 2t, sin 2t), automatically unit norm for any theta."""
    t = math.radians(theta_deg)
    s, c = math.sin(2.0 * t), math.cos(2.0 * t)
    return SpatialAmplitudes(s, c), SpatialAmplitudes(c, s)


def spatial_overlap_factor(theta_deg: float) -> float:
    """4 |alpha_L alpha_R beta_L beta_R|, which reduces to sin^2(4 theta)."""
    alphas, betas = spatial_amplitudes_from_theta(theta_deg)
    return 4.0 * abs(alphas.a_l * alphas.a_r * betas.a_l * betas.a_r)


def concurrence_optical(theta_deg: float, l_um: float, sigma_um: float) -> float:
    """C = sin^2(4 theta) exp(-l^2 / (2 sigma^2))."""
    check_sigma(sigma_um)
    t = math.radians(theta_deg)
    return math.sin(4.0 * t) ** 2 * math.exp(-(l_um**2) / (2.0 * sigma_um**2))


#: phi_A of every pair `dist_vectors_for_overlap` builds: the first basis
#: vector, one immutable vector that every overlap's pair shares, as the
#: detector amplitudes `DETECTOR_L` and `DETECTOR_R` are shared
PHI_A = DistVector((1.0 + 0j, 0j))


def dist_vectors_for_overlap(overlap: complex) -> tuple[DistVector, DistVector]:
    """A concrete pair of two-dimensional unit vectors with
    <phi_A|phi_B> = overlap: the shared `PHI_A` and a new phi_B."""
    mag = abs(overlap)
    if mag > 1.0 + ATOL_EXACT:
        raise ValueError(f"|overlap| = {mag:.12g} exceeds 1")
    rest = math.sqrt(max(0.0, 1.0 - mag**2))
    return PHI_A, DistVector((complex(overlap), rest + 0j))


def prepared_distributions(modes, overlaps):
    """`entanglement.number_distribution` of every pair the interferometer
    prepares on the grid `modes` x `overlaps`: spin up in the modes `alphas`
    with phi_A, and spin down in the modes `betas` with phi_B, where
    (phi_A, phi_B) is `dist_vectors_for_overlap(overlap)`.

    Yields, for each `(alphas, betas)` in `modes`, the list of the
    distributions at each overlap in `overlaps`, in order, so that a caller
    holds one row of the grid at a time.  An overlap's phi_B and its
    <phi_B|phi_A> are built once for every row, and a row's spin-up particle
    once for every overlap; a point makes only its spin-down particle and its
    `number_distribution` pass, which reads the same bits it would compute
    for that pair alone."""
    columns = []
    for overlap in overlaps:
        phi_a, phi_b = dist_vectors_for_overlap(overlap)
        columns.append((phi_b, phi_b.overlap(phi_a)))
    for alphas, betas in modes:
        spin_up = SingleParticleState(alphas, Spin.UP, PHI_A)
        yield [
            entanglement.number_distribution(
                spin_up, SingleParticleState(betas, Spin.DOWN, phi_b), overlap_ba
            )
            for phi_b, overlap_ba in columns
        ]


# ---------------------------------------------------------------------------
# Hong-Ou-Mandel
# ---------------------------------------------------------------------------


def hom_visibility(theta_deg: float) -> float:
    """Two-photon interference visibility of the theta-parameterized merge.

    The merge sends photon A to (sin 2t, cos 2t) and photon B to
    (cos 2t, -sin 2t) over the two outputs, so the coincidence weight is
    s^4 + c^4 for fully distinguishable photons and (c^2 - s^2)^2 for
    indistinguishable ones.  Its fractional drop is
    V = 2 s^2 c^2 / (s^4 + c^4), which equals 1 for the balanced merge at
    theta = 22.5 deg.
    """
    t = math.radians(theta_deg)
    s2, c2 = math.sin(2.0 * t) ** 2, math.cos(2.0 * t) ** 2
    return 2.0 * s2 * c2 / (s2**2 + c2**2)


def hom_coincidence(visibility: float, indistinguishability, baseline: float):
    """Coincidence level baseline * (1 - visibility * x) of a Hong-Ou-Mandel
    scan, for a number or an array of indistinguishabilities
    x = |<phi_A|phi_B>|^2, each clipped to [0, 1].  `hom_visibility` gives
    the visibility of the theta-parameterized merge, and `gaussian_dip` the
    x of a delay scan."""
    if not 0.0 <= visibility <= 1.0:
        raise ValueError("visibility must lie in [0, 1]")
    x = np.asarray(indistinguishability, dtype=float)
    outside = ~((x >= -ATOL_EXACT) & (x <= 1.0 + ATOL_EXACT))
    if np.any(outside):
        raise ValueError(f"indistinguishability = {x[outside][0]:.12g} outside [0, 1]")
    if not baseline > 0.0:
        raise ValueError("baseline must be positive")
    return baseline * (1.0 - visibility * np.clip(x, 0.0, 1.0))


def gaussian_dip(delays, fwhm_um: float, center_um: float) -> np.ndarray:
    """The indistinguishability exp(-(l - c)^2 / (2 w^2)) at each delay l of a
    scan whose Gaussian dip has FWHM `fwhm_um` = `GAUSSIAN_FWHM_FACTOR` w and
    center c.  Each exponent is worked in Python float arithmetic, so a
    square that overflows or a zero width raises `ArithmeticError`; np.exp
    takes them at once."""
    w = fwhm_um / GAUSSIAN_FWHM_FACTOR
    return np.exp([-((l - center_um) ** 2) / (2.0 * w**2) for l in delays])


# ---------------------------------------------------------------------------
# counts, fitting, error bars
# ---------------------------------------------------------------------------


def simulate_counts(rates: np.ndarray, seed, runs: int) -> np.ndarray:
    """A (runs, n) block of Poisson counts with mean `rates`, one row per run.

    `seed` is an int or a sequence such as [seed, row_index].  Row k equals
    the k-th sequential draw of a fresh generator, so row 0 does not depend
    on `runs`, which has no default.  A rate too large for numpy's Poisson
    sampler raises `ValueError` naming the largest rate."""
    if np.any(rates < 0.0):
        raise ValueError("count rates must be nonnegative")
    rng = np.random.default_rng(seed)  # a bad seed's error is not the sampler's
    try:
        return rng.poisson(rates, size=(runs, len(rates)))
    except ValueError as exc:  # numpy's "lam value too large"
        raise ValueError(
            f"cannot draw Poisson counts at a largest rate of "
            f"{float(np.max(rates)):.6g} ({exc})"
        ) from exc


#: Margin applied to quoted 1-sigma uncertainties of counting-noise fits.
#: Ground-truth Monte Carlo calibration (Poisson-resampled dips fitted back
#: against known parameters) shows the linearized errors run up to ~10% below
#: the true estimator spread in the low-count dip bottom, so quoted intervals
#: carry this factor to keep their coverage at or above nominal.
ERRORBAR_CALIBRATION = 1.10


@dataclasses.dataclass(frozen=True)
class FitResult:
    """Converged dip fit count(l) = baseline - depth * exp(-(l-center)^2/(2 w^2)).

    `fwhm_um` is 2 sqrt(2 ln 2) w, `visibility` is depth/baseline, `residual`
    is the final (weighted) sum of squared residuals.  The *_err fields are
    1-sigma parameter uncertainties; for counting-noise fits they are quoted
    conservatively (see `fit_gaussian_dip`) so that +/-1 sigma intervals
    cover the truth at no less than the nominal 68% rate.
    """

    baseline: float
    depth: float
    center_um: float
    fwhm_um: float
    visibility: float
    residual: float
    baseline_err: float
    depth_err: float
    center_err: float
    fwhm_err: float
    visibility_err: float
    n_iter: int


#: the names of the float fields of a `FitResult`, in the order of the
#: columns `_fit_results` stacks them in
_RESULT_FIELDS = tuple(f.name for f in dataclasses.fields(FitResult))[:-1]


def _dip_terms(p: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(u, g, model) at each row of the (k, 4) parameters p over the delays
    l, as (k, n) arrays: u = l - center, g = exp(-u^2 / (2 w^2)) and
    model = base - depth * g."""
    u = l - p[:, 2:3]
    g = np.exp(-(u**2) / (2.0 * p[:, 3:4] ** 2))
    return u, g, p[:, :1] - p[:, 1:2] * g


def _dip_jac(p: np.ndarray, u: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The (k, n, 4) d model / d (base, depth, center, w) at each row of p,
    the columns 1, -g, -depth g u / w^2 and -depth g u^2 / w^3, from the `u`
    and `g` of `_dip_terms` at the same p."""
    w = p[:, 3:4]
    dg = -p[:, 1:2] * g
    out = np.empty(u.shape + (4,))
    out[:, :, 0] = 1.0
    np.negative(g, out=out[:, :, 1])
    np.divide(dg * u, w**2, out=out[:, :, 2])
    np.divide(dg * u**2, w**3, out=out[:, :, 3])
    return out


def _objective(p, l, y, sig):
    """Weighted sum of squares at each row of p, with the (u, g, residual)
    the Jacobian there is built from."""
    u, g, model = _dip_terms(p, l)
    r = (model - y) / sig
    return (r**2).sum(axis=1), u, g, r


#: [0 | I], the right-hand side [Q^T (-r) | I] of `_gn_steps` before its
#: first column is filled in; its identity also stands in for a singular R
_STEP_RHS = np.hstack((np.zeros((4, 1)), np.eye(4)))


def _gn_steps(jw: np.ndarray, r: np.ndarray) -> np.ndarray:
    """The (k, 4) minimum-norm least-squares steps of the (k, n, 4) weighted
    Jacobians and (k, n) residuals.

    One stacked Householder QR of each [jw, -r] gives the 4x4 triangle R of
    jw and Q^T (-r), and one stacked solve gives the step R^-1 Q^T (-r) and
    R^-1.  Like an SVD, this is backward stable and does not square the
    condition number, as the normal equations do.  A row whose R is
    singular, or whose 2-norm condition number may reach 1 / rcond, with
    rcond = eps * max(n, 4), takes its step from the pseudo-inverse
    instead (`np.linalg.pinv`, SVD-based), which drops the singular values
    up to rcond times the largest, the default cutoff of numpy's
    least-squares solver; the condition number is judged by a bound that
    never understates it.  LAPACK works on each matrix alone, so a row's
    step does not depend on the other rows.  The QR, the solve and the
    bound take the whole stack, with no copy of a row: the right-hand sides
    are filled into copies of the module-level [0 | I], and a singular R is
    written over with its identity in place.  Raises `LinAlgError` if any
    row's SVD on that route does not converge."""
    rcond = np.finfo(float).eps * max(jw.shape[1], 4)
    tri = np.linalg.qr(np.concatenate((jw, -r[:, :, None]), axis=2), mode="r")
    r_tri = tri[:, :4, :4]
    # a zero on the diagonal makes R singular: such an R is solved as the
    # identity, and its row takes the pseudo-inverse route below
    singular = (np.diagonal(r_tri, axis1=1, axis2=2) == 0.0).any(axis=1)
    r_tri[singular] = _STEP_RHS[:, 1:]
    # [step | R^-1] at once
    rhs = np.repeat(_STEP_RHS[None], len(tri), axis=0)
    rhs[:, :, 0] = tri[:, :4, 4]
    x = np.linalg.solve(r_tri, rhs)
    # cond_2(R) <= |R|_F |R^-1|_F <= 16 max|R| max|R^-1|, the products of
    # largest entries, which neither underflow nor overflow where the squares
    # of the Frobenius norms would; the factor 2 covers the rounding of R^-1,
    # and a bound that is not finite fails the test
    bound = 32.0 * np.abs(r_tri).max(axis=(1, 2)) * np.abs(x[:, :, 1:]).max(axis=(1, 2))
    near = singular | ~(bound < 1.0 / rcond)
    step = x[:, :, 0]
    if near.any():
        # rcond by position: numpy 1.x has no rtol keyword, and numpy 2 means
        # to deprecate the rcond one
        step[near] = (np.linalg.pinv(jw[near], rcond) @ -r[near][:, :, None])[:, :, 0]
    return step


#: the line search's step lengths 1, 1/2, ..., 2**-30, in the chunks it
#: tries them in
_STEP_CHUNKS = np.split(np.ldexp(1.0, -np.arange(31)), [1, 3, 7, 15, 23])
#: Gauss-Newton iterations `fit_gaussian_dip` spends on a row, over all its
#: passes, before the row fails with `FitConvergenceError`
FIT_MAX_ITER = 200
#: relative step below which a Gauss-Newton pass has converged
FIT_STEP_TOL = 1e-10
#: relative step below which a Poisson-weighted row's observed-weight pass,
#: only the seed of its reweighted pass, hands over to that pass; the
#: reweighted pass ends at a fixed point that does not depend on its start
FIT_SEED_TOL = 1e-5


class DipFits(NamedTuple):
    """What `fit_gaussian_dip` gives for a block of count rows."""

    #: per row, its `FitResult` or the `FitError` its fit ends in
    outcomes: list
    #: Gauss-Newton iterations the block ran: every iteration of every row,
    #: whatever its outcome
    n_iter: int


def fit_gaussian_dip(delays, counts, poisson_weights: bool = False) -> DipFits:
    """Least-squares Gaussian dip fit via damped Gauss-Newton of each row of
    a (runs, n) count block over the n `delays`.

    The delays are sorted once, and each row's counts with them, by count
    among equal delays, so the points may come in any order and every row
    shares the one sorted delay axis.  The rows are fitted in lockstep, with
    array operations over the rows still iterating, and each row gets the
    bits a block of that row alone gives: a row's outcome never depends on
    the other rows.  A round's reweighting and stacked step run on the
    whole working arrays; the line search's update, and a row that ends,
    are gathered and scattered by a mask (see `_descend`).

    Initialization is data-driven: baseline from the mean of the outer 20%
    of points, depth from baseline minus the minimum, center at the minimum,
    width from the half-depth crossings.  Each Gauss-Newton step is halved
    until the residual decreases, so the objective is monotone; a pass
    stops when the relative step falls below `FIT_STEP_TOL` (a weighted
    row's seed pass below `FIT_SEED_TOL`, see below).  A row keeps
    one iteration count over all its passes; at `FIT_MAX_ITER` it ends in a
    `FitConvergenceError` whose message alone names its residual.  The
    line search evaluates only the model terms; the Jacobian is built from
    the terms of the accepted point, so no trial point builds a Jacobian
    and no iteration recomputes an exponential.  Each round takes every
    row's step from one stacked Householder QR of its weighted Jacobian and
    residual; only a row whose Jacobian is singular or near it takes the
    minimum-norm step of the SVD-based pseudo-inverse (see `_gn_steps`).
    One stacked pass builds every fitted row's result and covariance, the
    covariance from the QR triangle R of the (weighted) Jacobian as
    R^-1 R^-T, which does not square the Jacobian's condition number as the
    inverse of J^T J does, and checks the rules below as masks over the
    stacked fields.

    An unweighted row is fitted, and its covariance worked, in units of the
    power of two just above its largest count, and only its count-valued
    fields (baseline, depth, their errors and the residual) are scaled back
    to counts; the scaling is exact, so an exact dip is recovered at any
    count scale whose residual fits in a float.  A Poisson-weighted
    row is fitted in counts, the unit of its weights' floor.

    With `poisson_weights` the fit is iteratively reweighted: a first pass
    uses 1/sqrt(max(count, 1)) weights, then one more pass rebuilds the
    weights from the current model at the start of every round, and each
    round's line search compares sums of squares at that round's weights,
    until the step converges below `FIT_STEP_TOL`.  That pass ends at the
    fixed point of the reweighting, where J^T W (y - model) = 0 with
    W = 1 / max(model, 1): the Poisson likelihood's score equation wherever
    the model is at least 1.  The fixed point does not depend on where the
    pass starts, so the observed-weight pass is only its seed: it hands
    over once its relative step falls below `FIT_SEED_TOL`, and
    `FIT_MAX_ITER` counts both passes.  Observed-count weights pull the
    curve toward downward count fluctuations; model-based weights remove
    that bias.
    Quoted uncertainties for this mode are deliberately conservative: a
    robust covariance built on the small-count variance (1 + sqrt(m + 0.75))^2
    per point, the usual max(1, chi^2/dof) scale, and the Monte-Carlo-derived
    `ERRORBAR_CALIBRATION` margin.  They are meant for accept/reject
    decisions, so they err on the side of over-coverage.

    A row's outcome is its `FitResult`, or the `FitError` its fit ends in,
    checked in this order: `NoDipError` for data with no dip; a plain
    `FitError` for a least-squares step whose weighted Jacobian or residual
    is not finite, as weighted counts near the float range give, or whose
    solve raises `LinAlgError`, which ends that row's fit and no other;
    `FitConvergenceError` at the iteration cap, whose message names the
    residual in counts.  These three end a row unconverged, and `_descend`
    gives them as the row leaves its working arrays.  The rest are the
    rules for a converged fit, masks over the stacked fields of the result
    pass: `NoDipError` for a converged depth <= 0; a plain `FitError` for a fit
    any of whose fields is not finite, as counts near the float range give;
    with `poisson_weights` only, `NoDipError` for a converged fit whose
    FWHM is wider than the span of `delays` or whose baseline is <= 0, which
    resolves no dip; and, weighted or not, `NoDipError` for a converged fit
    whose FWHM is narrower than the smallest spacing of the distinct
    `delays`, a spike between the scanned points that resolves no dip
    either.  An unweighted (exact) fit of a dip wider than the scan is
    reported as it converged.
    `n_iter` is every iteration the block ran, whatever each row's outcome.
    Bad input (fewer than 5 distinct delays, negative counts, a block of the
    wrong shape) raises `ValueError` for the whole block.
    """
    l = np.asarray(delays, dtype=float)
    y = np.asarray(counts, dtype=float)
    n_distinct = len(set(l.tolist()))  # np.unique would import numpy.ma
    if n_distinct < 5:
        raise ValueError(f"need at least 5 distinct delays to fit a dip, got {n_distinct}")
    if y.ndim != 2 or y.shape[1] != len(l):
        raise ValueError(f"counts must be a (runs, {len(l)}) block, got shape {y.shape}")
    if np.any(y < 0.0):
        raise ValueError("counts must be nonnegative")
    y = np.take_along_axis(y, np.lexsort((y, np.broadcast_to(l, y.shape))), axis=1)
    l = np.sort(l)
    # an overflow to inf or nan, or a zero baseline, ends in the finiteness
    # check of `_fit_results`, not in a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # an unweighted row is fitted in units of 2**e, with 2**(e-1) <= its
        # largest count < 2**e, so its fit does not depend on the count scale;
        # ldexp scales exactly.  A weighted row stays in counts, the unit of
        # its weights' floor sqrt(max(count, 1)).
        e = np.zeros(len(y), dtype=int) if poisson_weights else np.frexp(y.max(axis=1))[1]
        y = np.ldexp(y, -e[:, None])
        p, sse, n_iter, outcomes = _descend(l, y, e, poisson_weights)
        fitted = [i for i, o in enumerate(outcomes) if o is None]
        results = _fit_results(
            p[fitted], l, y[fitted], sse[fitted], n_iter[fitted], e[fitted], poisson_weights
        )
    for i, outcome in zip(fitted, results):
        outcomes[i] = outcome
    return DipFits(outcomes, int(n_iter.sum()))


def _descend(l: np.ndarray, y: np.ndarray, e: np.ndarray, poisson_weights: bool):
    """Damped Gauss-Newton on every row of the (runs, n) counts `y`, in the
    units of 2**e, over the sorted delay axis `l`, in lockstep.

    Returns, per row, the final parameters, sum of squares and iterations,
    and the `FitError` of a row that ends unconverged, or None for one that
    converged: no dip at the data-driven start, which leaves the row
    unfitted, a failed step, or the cap (see `fit_gaussian_dip`).  Each
    round takes one step on every row still iterating.  A row that ends a
    pass leaves the working arrays in the one exit block, unless it is a
    Poisson-weighted row whose first pass converged, to `FIT_SEED_TOL`:
    that row goes on to its reweighted pass, whose weights are rebuilt
    from the current model every round.

    Each stage of a round takes the whole working arrays, so its fixed cost
    is paid once per round, not per mask.  The reweighting builds every
    row's model and weights, and `np.where` gives them to the reweighted
    rows only.  Every row's step comes from one `_gn_steps` stack: a row
    whose Jacobian or residual is not finite is zeroed in place, and its
    step is not taken.  The line search gathers each row's accepted
    candidate and scatters it into the working arrays.
    """
    runs, n = y.shape
    n_edge = max(1, int(round(0.1 * n)))
    base0 = np.mean(np.concatenate((y[:, :n_edge], y[:, -n_edge:]), axis=1), axis=1)
    i_min = np.argmin(y, axis=1)
    depth0 = base0 - y.min(axis=1)
    no_dip = (depth0 <= 0.0) | (np.ptp(y, axis=1) == 0.0)
    below = y < (base0 - depth0 / 2.0)[:, None]
    # l is sorted, so the first and last delay below the half level are the
    # smallest and largest
    first = np.argmax(below, axis=1)
    last = n - 1 - np.argmax(below[:, ::-1], axis=1)
    span = np.where(below.sum(axis=1) >= 2, l[last] - l[first], 0.0)
    w0 = np.where(span > 0.0, span / GAUSSIAN_FWHM_FACTOR, (l[-1] - l[0]) / 6.0)
    final_p = np.stack((base0, depth0, l[i_min], w0), axis=1)
    final_sse = np.zeros(runs)
    final_it = np.zeros(runs, dtype=int)
    ended = [NoDipError("no dip detected") if nd else None for nd in no_dip.tolist()]

    # the working arrays: entry k of each belongs to block row row[k]
    row = np.flatnonzero(~no_dip)
    p, y = final_p[row], y[row]
    sig = np.sqrt(np.maximum(y, 1.0)) if poisson_weights else np.ones_like(y)
    sse, u, g, r = _objective(p, l, y, sig)
    it = np.zeros(len(row), dtype=int)  # over all of the row's passes
    reweighted = np.zeros(len(row), dtype=bool)  # on its model-weighted pass

    while row.size:
        it += 1
        # a reweighted row's weights come from its current model, so its pass
        # ends where J^T W (y - model) = 0, W = 1 / max(model, 1); the model
        # is built from the g of the current point, with no new exponential;
        # a round with no reweighted row skips it
        if reweighted.any():
            on = reweighted[:, None]
            model = p[:, :1] - p[:, 1:2] * g
            sig = np.where(on, np.sqrt(np.maximum(model, 1.0)), sig)
            r = np.where(on, (model - y) / sig, r)
            sse = np.where(reweighted, (r**2).sum(axis=1), sse)
        jw = _dip_jac(p, u, g)
        jw /= sig[:, :, None]
        # a row whose Jacobian or residual is not finite, as counts near the
        # float range give, never reaches LAPACK, which would print its
        # complaint to stdout ahead of the table: its problem is zeroed, and
        # its step is not taken
        finite = np.isfinite(jw).all(axis=(1, 2)) & np.isfinite(r).all(axis=1)
        for k in np.flatnonzero(~finite):
            ended[row[k]] = FitError(
                "least-squares step failed: the Jacobian or residual is not finite"
            )
        jw[~finite], r[~finite] = 0.0, 0.0
        try:
            step = _gn_steps(jw, r)
        except np.linalg.LinAlgError:
            # find the rows that raised: a stack of one row gives that row
            # the bits the whole stack gives it
            step = np.full((len(row), 4), np.nan)
            for k in np.flatnonzero(finite):
                try:
                    step[k] = _gn_steps(jw[k : k + 1], r[k : k + 1])
                except np.linalg.LinAlgError as exc:  # ends this row's fit only
                    ended[row[k]] = FitError(f"least-squares step failed: {exc}")
        step[~finite] = np.nan
        del jw  # freed before the line search allocates its candidates
        # per row: does its pass end this round, and has it converged
        ends = ~np.isfinite(step).all(axis=1)
        conv = np.zeros(len(row), dtype=bool)
        # line search: a row takes the first step length that does not raise
        # its sum of squares; the lengths are tried in chunks, each row's in
        # order, so a row that halves its step many times takes few rounds
        search = np.flatnonzero(~ends)
        for lengths in _STEP_CHUNKS:
            if not search.size:
                break
            k = len(lengths)
            # the working arrays themselves where every row searches, else a copy
            # of the searching rows'
            rows_in = slice(None) if search.size == len(row) else search
            at = rows_in if k == 1 else np.repeat(search, k)
            cand = (p[rows_in, None] + lengths[:, None] * step[rows_in, None]).reshape(-1, 4)
            # a collapsed width leaves the model undefined: such a candidate
            # is never taken, and is evaluated at harmless parameters instead
            collapsed = np.abs(cand[:, 3]) < 1e-12
            cand_sse, cand_u, cand_g, cand_r = _objective(
                np.where(collapsed[:, None], 1.0, cand), l, y[at], sig[at]
            )
            accept = ((cand_sse <= sse[at]) & ~collapsed).reshape(-1, k)
            hit = accept.any(axis=1)
            nth = np.argmax(accept, axis=1)[hit]  # the length each row takes
            took = search[hit]
            move = lengths[nth, None] * step[took]
            rel_step = np.linalg.norm(move, axis=1) / np.maximum(
                np.linalg.norm(p[took], axis=1), 1.0
            )
            seeding = ~reweighted[took] & poisson_weights  # on the observed-weight pass
            conv[took] = ends[took] = rel_step < np.where(seeding, FIT_SEED_TOL, FIT_STEP_TOL)
            pick = np.flatnonzero(hit) * k + nth  # into the candidates
            p[took] = cand[pick]
            sse[took], u[took], g[took], r[took] = (
                cand_sse[pick], cand_u[pick], cand_g[pick], cand_r[pick]
            )
            search = search[~hit]
        conv[search] = ends[search] = True  # no descent direction left: local minimum
        ends |= it >= FIT_MAX_ITER
        # a converged first pass of a weighted row goes on to its reweighted
        # pass, unless the cap, which counts both passes, ends it unconverged
        again = conv & ~reweighted & poisson_weights
        conv &= ~again
        again &= it < FIT_MAX_ITER
        reweighted |= again
        out = ends & ~again
        if out.any():
            done = row[out]
            final_p[done], final_sse[done], final_it[done] = p[out], sse[out], it[out]
            for k in np.flatnonzero(out & ~conv):
                if ended[row[k]] is None:  # the cap, with the residual in counts
                    ended[row[k]] = FitConvergenceError(
                        f"no convergence after {FIT_MAX_ITER} iterations "
                        f"(best residual {np.ldexp(sse[k], 2 * e[row[k]]):.6g})"
                    )
            keep = ~out
            row, p, y, sig, sse, u, g, r, it, reweighted = (
                a[keep] for a in (row, p, y, sig, sse, u, g, r, it, reweighted)
            )
    return final_p, final_sse, final_it, ended


def _inverses(a: np.ndarray) -> np.ndarray:
    """The inverse of each matrix of the stack `a`.  Only if the stack
    raises `LinAlgError` is each matrix inverted alone, with the
    pseudo-inverse for one that is singular."""
    try:
        return np.linalg.inv(a)
    except np.linalg.LinAlgError:
        out = np.empty_like(a)
        for k, m in enumerate(a):
            try:
                out[k] = np.linalg.inv(m)
            except np.linalg.LinAlgError:
                out[k] = np.linalg.pinv(m)
        return out


def _fit_results(
    p: np.ndarray, l: np.ndarray, y: np.ndarray, sse: np.ndarray, n_iter: np.ndarray,
    e: np.ndarray, poisson_weights: bool,
) -> list:
    """The outcome of each converged row of the (k, 4) final parameters p:
    its `FitResult`, with the parameter covariance there, from one stacked
    pass over the rows, or the `FitError` that result ends in.  Each row is
    worked in the units of 2**e it was fitted in, and only its count-valued
    fields are scaled back to counts.  The rules `fit_gaussian_dip` lists
    for a converged fit are masks over the stacked fields, checked in its
    order, and only a row that fails one builds its message."""
    p = np.column_stack((p[:, :3], np.abs(p[:, 3])))
    base, depth, center, w = p.T
    u, g, model = _dip_terms(p, l)
    jac = _dip_jac(p, u, g)
    dof = max(len(l) - 4, 1)
    # each row's covariance is F^T F, and only the factor F is formed.
    # (J^T J)^-1 is R^-1 R^-T, R the QR triangle of J, without forming J^T J,
    # which squares the condition number of J; a singular R gives its
    # pseudo-inverse R^+ (see `_inverses`), and R^+ R^+T is that of J^T J
    if poisson_weights:
        m = np.maximum(model, 1.0)
        w_inv_var = 1.0 / m
        chi2 = np.sum(w_inv_var * (model - y) ** 2, axis=1)
        # the sandwich bread J^T M J bread, M = W^2 (1 + sqrt(m + 0.75))^2,
        # bread = (J^T W J)^-1, times max(1, chi2 / dof) and the calibration
        # margin squared: F = M^(1/2) J bread times the square roots
        r_inv = _inverses(np.linalg.qr(jac * np.sqrt(w_inv_var)[..., None], mode="r"))
        factor = (jac * ((1.0 + np.sqrt(m + 0.75)) * w_inv_var)[..., None]) @ (
            r_inv @ r_inv.transpose(0, 2, 1)
        )
        factor *= (np.sqrt(np.maximum(1.0, chi2 / dof)) * ERRORBAR_CALIBRATION)[:, None, None]
    else:  # unit weights: (J^T J)^-1 sse / dof, F = R^-T sqrt(sse / dof)
        r_inv = _inverses(np.linalg.qr(jac, mode="r"))
        factor = r_inv.transpose(0, 2, 1) * np.sqrt(sse / dof)[:, None, None]
    # the variances as sums of squares, which lose no digits to cancellation:
    # the diagonal of F^T F, and the delta-method variance |F g|^2 of
    # depth / base, g = (-vis, 1, 0, 0) / base, divided by the baseline last
    # so that no power of a large baseline overflows to inf
    perr = np.sqrt((factor**2).sum(axis=1))
    vis = np.where(base != 0.0, depth / base, np.inf)
    var_vis = np.where(
        base != 0.0,
        ((factor[:, :, 1] - vis[:, None] * factor[:, :, 0]) ** 2).sum(axis=1) / base / base,
        np.inf,
    )
    fields = np.column_stack((
        np.ldexp(base, e), np.ldexp(depth, e), center, GAUSSIAN_FWHM_FACTOR * w, vis,
        np.ldexp(sse, 2 * e), np.ldexp(perr[:, 0], e), np.ldexp(perr[:, 1], e), perr[:, 2],
        GAUSSIAN_FWHM_FACTOR * perr[:, 3], np.sqrt(var_vis),
    ))
    outcomes = [FitResult(*f, n) for f, n in zip(fields.tolist(), n_iter.tolist())]
    # the rules, each row's first failed one deciding its outcome
    span = l[-1] - l[0]
    gaps = np.diff(l)
    spacing = gaps[gaps > 0.0].min()  # of the distinct delays
    base, fwhm = fields[:, 0], fields[:, 3]
    no_depth = fields[:, 1] <= 0.0
    not_finite = ~np.isfinite(fields)
    unresolved = poisson_weights & ((base <= 0.0) | (fwhm > span))  # the scan rule
    narrow = fwhm < spacing
    for i in np.flatnonzero(no_depth | not_finite.any(axis=1) | unresolved | narrow).tolist():
        result = outcomes[i]
        if no_depth[i]:
            outcomes[i] = NoDipError("no dip detected")
        elif not_finite[i].any():
            names = ", ".join(_RESULT_FIELDS[j] for j in np.flatnonzero(not_finite[i]))
            outcomes[i] = FitError(f"fit is not finite: {names}")
        elif unresolved[i]:
            outcomes[i] = NoDipError(
                f"fitted FWHM {result.fwhm_um:.6g} um and baseline "
                f"{result.baseline:.6g} resolve no dip over a {span:.6g} um scan"
            )
        else:
            outcomes[i] = NoDipError(
                f"fitted FWHM {result.fwhm_um:.6g} um is narrower than the "
                f"{spacing:.6g} um delay spacing and resolves no dip"
            )
    return outcomes


#: largest share of Monte Carlo runs that may be a `FitError` and be left
#: out of the error bar
MAX_FAILED_FRACTION = 0.1


def monte_carlo_errorbars(
    outcomes: Sequence,
) -> tuple[tuple[tuple[float, float], tuple[float, float]], int]:
    """Error bars over the per-run `outcomes` of one `fit_gaussian_dip`
    call: ((visibility mean, stddev), (fwhm_um mean, stddev)) and the count
    of runs left out.  A run that is a `FitError` is left out, up to
    `MAX_FAILED_FRACTION` of the runs; more raise `EstimatorError` naming
    the count and the first failed run."""
    n_runs = len(outcomes)
    if n_runs < 2:
        raise ValueError("need at least 2 runs for an error bar")
    failures = [f"run {run}: {o}" for run, o in enumerate(outcomes) if isinstance(o, FitError)]
    values = [(o.visibility, o.fwhm_um) for o in outcomes if not isinstance(o, FitError)]
    if len(failures) > MAX_FAILED_FRACTION * n_runs:
        raise EstimatorError(
            f"{len(failures)} of {n_runs} resample fits failed, more than "
            f"{MAX_FAILED_FRACTION:.0%}; first on {failures[0]}"
        )
    columns = np.array(values, dtype=float).T.copy()  # one contiguous row per quantity
    stats = tuple((float(np.mean(c)), float(np.std(c, ddof=1))) for c in columns)
    return stats, len(failures)


def xstate_rates(rho: SpinDensityMatrix, shots: float) -> np.ndarray:
    """Mean counts of the four coincidence channels of a real-coherence state.

    The post-selected family produced by the interferometer has support only
    on the middle block with a real off-diagonal, so four channels determine
    it: the two populations and the rates in the (|ud> +/- |du>)/sqrt(2)
    superposition basis, in that order, clipped at 0.
    """
    p = float(rho.matrix[1, 1].real)
    r = float(rho.matrix[2, 2].real)
    q = complex(rho.matrix[1, 2])
    scale = max(abs(p), abs(r), abs(q), 1e-300)
    if abs(q.imag) > 1e-9 * scale:
        raise ValueError("count-channel estimator requires a real coherence")
    plus = (p + r) / 2.0 + q.real
    minus = (p + r) / 2.0 - q.real
    return np.clip(np.array([p, r, plus, minus]) * shots, 0.0, None)


def xstate_no_coincidence(counts: np.ndarray) -> np.ndarray:
    """Whether each run of a (runs, 4) block of `xstate_rates` channel
    counts observed no coincidence: no count in either population channel,
    so that its p + r is 0."""
    return counts[:, 0] + counts[:, 1] == 0


def xstate_concurrence(counts: np.ndarray) -> np.ndarray:
    """Concurrence min(1, 2|q| / (p + r)) of each run of a (runs, 4) block of
    `xstate_rates` channel counts, as a (runs,) column; 0 for a run that
    observed no coincidences (see `xstate_no_coincidence`), which gives no
    entanglement evidence."""
    n_ud, n_du, n_plus, n_minus = counts.T
    total = n_ud + n_du
    none = xstate_no_coincidence(counts)
    q_hat = (n_plus.astype(float) - n_minus.astype(float)) / 2.0
    c = 2.0 * np.abs(q_hat) / np.where(none, 1, total)  # no 0/0 warning
    return np.where(none, 0.0, np.minimum(1.0, c))
