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

The rest of the module is desk-scale experiment plumbing: Hong-Ou-Mandel dip
levels (visibility in closed form from the two-photon merge amplitudes),
Poisson count simulation, a damped Gauss-Newton Gaussian-dip fitter, and
Monte Carlo error bars.  A Monte Carlo draws one (runs, n) count block from
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
model is at least 1.  Each row gets the bits of its own fit.  An unweighted
row is fitted, and its covariance worked, in units of a power of two near
its largest count, so an exact dip is recovered at any count scale the
float range holds.  The fitter is the one place that decides each row's
outcome, a `FitResult` or a `FitError`, the rule for a dip the scan does
not resolve included.
`monte_carlo_errorbars` reduces those outcomes to the visibility and FWHM
error bars, leaving out the runs that are a `FitError`.  No hidden global
state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .core_state import ATOL_EXACT, DistVector, SpatialAmplitudes, SpinDensityMatrix

#: FWHM of a Gaussian exp(-x^2/(2 w^2)) is this factor times w
GAUSSIAN_FWHM_FACTOR = 2.0 * math.sqrt(2.0 * math.log(2.0))

#: width (um) whose 2*sqrt(2 ln 2)*sigma FWHM is 140 um
DEFAULT_SIGMA_UM = 59.45

#: delay -> |<phi_A|phi_B>| mappings of `gaussian_overlap`
OVERLAP_CONVENTIONS = ("fitted", "paper", "quadrature")


class FitError(RuntimeError):
    """Base class for dip-fit failures."""


class NoDipError(FitError):
    """The data carry no dip to fit."""


class FitConvergenceError(FitError):
    """Iteration cap hit; `best` holds the best parameters seen so far."""

    def __init__(self, message: str, best: "FitResult"):
        super().__init__(message)
        self.best = best


class EstimatorError(RuntimeError):
    """More than `MAX_FAILED_FRACTION` of the runs of a Monte Carlo failed."""


def sigma_to_delta(sigma_um: float) -> float:
    """Spectral width from delay-length width, sigma = 1/(2 delta)."""
    if not sigma_um > 0.0:
        raise ValueError("sigma must be positive")
    return 1.0 / (2.0 * sigma_um)


def delta_to_sigma(delta: float) -> float:
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    return 1.0 / (2.0 * delta)


def gaussian_overlap(l_um: float, convention: str, sigma_um: float) -> float:
    """Scalar overlap of two identical Gaussian wavepackets delayed by l.

    See the module docstring for the three conventions.  All equal 1 at
    l = 0 and decay monotonically.
    """
    if convention not in OVERLAP_CONVENTIONS:
        raise ValueError(
            f"unknown overlap convention {convention!r}; pick one of {OVERLAP_CONVENTIONS}"
        )
    delta = sigma_to_delta(sigma_um)  # also rejects a non-positive sigma
    if convention == "fitted":
        return math.exp(-(l_um**2) / (4.0 * sigma_um**2))
    x = (delta * l_um) ** 2
    return math.exp(-2.0 * x) if convention == "paper" else math.exp(-0.5 * x)


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
    if not sigma_um > 0.0:
        raise ValueError("sigma must be positive")
    t = math.radians(theta_deg)
    return math.sin(4.0 * t) ** 2 * math.exp(-(l_um**2) / (2.0 * sigma_um**2))


def dist_vectors_for_overlap(overlap: complex) -> tuple[DistVector, DistVector]:
    """A concrete pair of two-dimensional unit vectors with
    <phi_A|phi_B> = overlap."""
    mag = abs(overlap)
    if mag > 1.0 + ATOL_EXACT:
        raise ValueError(f"|overlap| = {mag:.12g} exceeds 1")
    rest = math.sqrt(max(0.0, 1.0 - mag**2))
    return DistVector((1.0 + 0j, 0j)), DistVector((complex(overlap), rest + 0j))


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


def hom_coincidence(theta_deg: float, overlap: float, baseline: float) -> float:
    """Coincidence level baseline * (1 - V(theta) * overlap^2)."""
    if not 0.0 - ATOL_EXACT <= overlap <= 1.0 + ATOL_EXACT:
        raise ValueError(f"overlap = {overlap:.12g} outside [0, 1]")
    if not baseline > 0.0:
        raise ValueError("baseline must be positive")
    ov = min(max(overlap, 0.0), 1.0)
    return baseline * (1.0 - hom_visibility(theta_deg) * ov**2)


# ---------------------------------------------------------------------------
# counts, fitting, error bars
# ---------------------------------------------------------------------------


def simulate_counts(rates: np.ndarray, seed, runs: int = 1) -> np.ndarray:
    """A (runs, n) block of Poisson counts with mean `rates`, one row per run.

    `seed` is an int or a sequence such as [seed, row_index].  Row k equals
    the k-th sequential draw of a fresh generator, so row 0 does not depend
    on `runs`.  A rate too large for numpy's Poisson sampler raises
    `ValueError` naming the largest rate."""
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


@dataclass(frozen=True)
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
    step does not depend on the other rows.  Raises `LinAlgError` if any
    row's SVD on that route does not converge."""
    rcond = np.finfo(float).eps * max(jw.shape[1], 4)
    tri = np.linalg.qr(np.concatenate((jw, -r[:, :, None]), axis=2), mode="r")
    r_tri, eye = tri[:, :4, :4], np.broadcast_to(np.eye(4), (len(jw), 4, 4))
    # a zero on the diagonal makes R singular: such an R is solved as the
    # identity, and its row takes the pseudo-inverse route below
    singular = (np.diagonal(r_tri, axis1=1, axis2=2) == 0.0).any(axis=1)
    # [step | R^-1] at once
    x = np.linalg.solve(
        np.where(singular[:, None, None], eye, r_tri), np.concatenate((tri[:, :4, 4:], eye), axis=2)
    )
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
    the other rows.

    Initialization is data-driven: baseline from the mean of the outer 20%
    of points, depth from baseline minus the minimum, center at the minimum,
    width from the half-depth crossings.  Each Gauss-Newton step is halved
    until the residual decreases, so the objective is monotone; a pass
    stops when the relative step falls below `FIT_STEP_TOL`.  A row keeps
    one iteration count over all its passes and fails with the best-so-far
    parameters once it reaches `FIT_MAX_ITER`.  The
    line search evaluates only the model terms; the Jacobian is built from
    the terms of the accepted point, so no trial point builds a Jacobian
    and no iteration recomputes an exponential.  Each round takes every
    row's step from one stacked Householder QR of its weighted Jacobian and
    residual; only a row whose Jacobian is singular or near it takes the
    minimum-norm step of the SVD-based pseudo-inverse (see `_gn_steps`).
    One stacked pass builds every fitted row's result and covariance, the
    covariance from the QR triangle R of the (weighted) Jacobian as
    R^-1 R^-T, which does not square the Jacobian's condition number as the
    inverse of J^T J does.

    An unweighted row is fitted, and its covariance worked, in units of the
    power of two just above its largest count, and only its count-valued
    fields (baseline, depth, their errors and the residual) are scaled back
    to counts; the scaling is exact, so an exact dip is recovered at any
    count scale whose residual fits in a float.  A Poisson-weighted
    row is fitted in counts, the unit of its weights' floor.

    With `poisson_weights` the fit is iteratively reweighted: a first pass
    uses 1/sqrt(max(count, 1)) weights until its step converges, then one
    more pass rebuilds the weights from the current model at the start of
    every round, and each round's line search compares sums of squares at
    that round's weights, until the step converges again.  That pass ends at
    the fixed point of the reweighting, where J^T W (y - model) = 0 with
    W = 1 / max(model, 1): the Poisson likelihood's score equation wherever
    the model is at least 1.  Observed-count weights pull the curve toward
    downward count fluctuations; model-based weights remove that bias.
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
    `FitConvergenceError` at the iteration cap;
    `NoDipError` for a converged depth <= 0; a plain `FitError` for a fit
    any of whose fields is not finite, as counts near the float range give;
    and, with `poisson_weights` only, `NoDipError` for a converged fit whose
    FWHM is wider than the span of `delays` or whose baseline is <= 0, which
    resolves no dip.  An unweighted (exact) fit is reported as it converged.
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
    # an overflow to inf or nan, or a zero baseline, ends in the finiteness
    # check of `_outcome`, not in a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        return _fit_rows(np.sort(l), y, poisson_weights)


def _fit_rows(l: np.ndarray, y: np.ndarray, poisson_weights: bool) -> DipFits:
    """`fit_gaussian_dip` of the (runs, n) counts `y` over the sorted delay
    axis `l`, each row in that order."""
    # an unweighted row is fitted in units of 2**e, with 2**(e-1) <= its
    # largest count < 2**e, so its fit does not depend on the count scale;
    # ldexp scales exactly.  A weighted row stays in counts, the unit of its
    # weights' floor sqrt(max(count, 1)).
    e = np.zeros(len(y), dtype=int) if poisson_weights else np.frexp(y.max(axis=1))[1]
    y = np.ldexp(y, -e[:, None])
    p, sse, n_iter, converged, outcomes = _descend(l, y, poisson_weights)
    fitted = [i for i, o in enumerate(outcomes) if o is None]
    results = _fit_results(
        p[fitted], l, y[fitted], sse[fitted], n_iter[fitted], e[fitted], poisson_weights
    )
    for i, result in zip(fitted, results):
        outcomes[i] = _outcome(result, converged[i], l[-1] - l[0], poisson_weights)
    return DipFits(outcomes, int(n_iter.sum()))


def _descend(l: np.ndarray, y: np.ndarray, poisson_weights: bool):
    """Damped Gauss-Newton on every row of the (runs, n) counts `y` over the
    sorted delay axis `l`, in lockstep.

    Returns, per row, the final parameters, sum of squares, iterations and
    whether the fit converged, and the `FitError` that ended it before any
    result, or None: the data-driven start found no dip, which leaves the
    row unfitted, or a step failed, because the row's Jacobian or residual
    was not finite or its solve raised `LinAlgError`.
    Each round takes one step on every row still iterating.  A row that
    ends a pass leaves the working arrays, unless it is a Poisson-weighted
    row whose first pass converged: that row goes on to its reweighted
    pass, whose weights are rebuilt from the current model every round.
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
    final_conv = np.zeros(runs, dtype=bool)
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
        # is built from the g of the current point, with no new exponential
        model = p[reweighted, :1] - p[reweighted, 1:2] * g[reweighted]
        sig[reweighted] = np.sqrt(np.maximum(model, 1.0))
        r[reweighted] = (model - y[reweighted]) / sig[reweighted]
        sse[reweighted] = (r[reweighted] ** 2).sum(axis=1)
        jw = _dip_jac(p, u, g)
        jw /= sig[:, :, None]
        # a row whose Jacobian or residual is not finite, as counts near the
        # float range give, never reaches LAPACK, which would print its
        # complaint to stdout ahead of the table
        finite = np.isfinite(jw).all(axis=(1, 2)) & np.isfinite(r).all(axis=1)
        for k in np.flatnonzero(~finite):
            ended[row[k]] = FitError(
                "least-squares step failed: the Jacobian or residual is not finite"
            )
        step = np.full((len(row), 4), np.nan)
        try:
            step[finite] = _gn_steps(jw[finite], r[finite])
        except np.linalg.LinAlgError:
            # find the rows that raised: a stack of one row gives that row
            # the bits the whole stack gives it
            for k in np.flatnonzero(finite):
                try:
                    step[k] = _gn_steps(jw[k : k + 1], r[k : k + 1])
                except np.linalg.LinAlgError as exc:  # ends this row's fit only
                    ended[row[k]] = FitError(f"least-squares step failed: {exc}")
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
            conv[took] = ends[took] = rel_step < FIT_STEP_TOL
            pick = np.flatnonzero(hit) * k + nth  # into the candidates
            p[took] = cand[pick]
            sse[took], u[took], g[took], r[took] = (
                cand_sse[pick], cand_u[pick], cand_g[pick], cand_r[pick]
            )
            search = search[~hit]
        conv[search] = ends[search] = True  # no descent direction left: local minimum
        ends |= it >= FIT_MAX_ITER
        # a converged first pass of a weighted row goes on to its reweighted pass
        again = ends & conv & ~reweighted & poisson_weights
        reweighted |= again
        out = ends & ~again
        if out.any():
            done = row[out]
            final_p[done], final_sse[done] = p[out], sse[out]
            final_it[done], final_conv[done] = it[out], conv[out]
            keep = ~out
            row, p, y, sig, sse, u, g, r, it, reweighted = (
                a[keep] for a in (row, p, y, sig, sse, u, g, r, it, reweighted)
            )
    return final_p, final_sse, final_it, final_conv, ended


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
    """The `FitResult` of each row of the (k, 4) final parameters p, with
    the parameter covariance there, from one stacked pass over the rows.
    Each row is worked in the units of 2**e it was fitted in, and only its
    count-valued fields are scaled back to counts."""
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
    return [FitResult(*f, n) for f, n in zip(fields.tolist(), n_iter.tolist())]


def _outcome(result: FitResult, converged: bool, span: float, poisson_weights: bool):
    """A fitted row's outcome: its `result`, or the `FitError` the result
    ends in, checked in the order `fit_gaussian_dip` lists."""
    if not converged:
        return FitConvergenceError(
            f"no convergence after {FIT_MAX_ITER} iterations "
            f"(best residual {result.residual:.6g})",
            best=result,
        )
    if result.depth <= 0.0:
        return NoDipError("no dip detected")
    not_finite = [name for name, value in vars(result).items() if not math.isfinite(value)]
    if not_finite:
        return FitError(f"fit is not finite: {', '.join(not_finite)}")
    if poisson_weights and (result.baseline <= 0.0 or result.fwhm_um > span):
        return NoDipError(
            f"fitted FWHM {result.fwhm_um:.6g} um and baseline "
            f"{result.baseline:.6g} resolve no dip over a {span:.6g} um scan"
        )
    return result


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


def xstate_concurrence(counts: np.ndarray) -> np.ndarray:
    """Concurrence min(1, 2|q| / (p + r)) of each run of a (runs, 4) block of
    `xstate_rates` channel counts, as a (runs,) column; 0 for a run that
    observed no coincidences, which gives no entanglement evidence."""
    n_ud, n_du, n_plus, n_minus = counts.T
    total = n_ud + n_du
    none = total == 0
    q_hat = (n_plus.astype(float) - n_minus.astype(float)) / 2.0
    c = 2.0 * np.abs(q_hat) / np.where(none, 1, total)  # no 0/0 warning
    return np.where(none, 0.0, np.minimum(1.0, c))
