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
`simulate_counts`, the only place a generator is created; a block estimator
such as `xstate_concurrence` maps it to one value per run, and
`monte_carlo_errorbars` reduces it row by row through a per-run fit.  No
hidden global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

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
    """An estimator failed during Monte Carlo resampling."""


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
    """(u, g, model) at parameters p: u = l - center, g = exp(-u^2 / (2 w^2))
    and model = base - depth * g."""
    base, depth, center, w = p[0], p[1], p[2], p[3]  # cheaper than unpacking p
    u = l - center
    g = np.exp(-(u**2) / (2.0 * w**2))
    return u, g, base - depth * g


def _dip_jac(p: np.ndarray, u: np.ndarray, g: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill the (n, 4) array `out` with d model / d (base, depth, center, w),
    the columns 1, -g, -depth g u / w^2 and -depth g u^2 / w^3, from the `u`
    and `g` of `_dip_terms` at the same p, and return it."""
    depth, w = p[1], p[3]
    dg = -depth * g
    out[:, 0] = 1.0
    np.negative(g, out=out[:, 1])
    np.divide(dg * u, w**2, out=out[:, 2])
    np.divide(dg * u**2, w**3, out=out[:, 3])
    return out


#: Gauss-Newton iterations `fit_gaussian_dip` spends, over all its passes,
#: before it gives up with `FitConvergenceError`
FIT_MAX_ITER = 200
#: relative step below which a Gauss-Newton pass has converged
FIT_STEP_TOL = 1e-10


def fit_gaussian_dip(delays, counts, poisson_weights: bool = False) -> FitResult:
    """Least-squares Gaussian dip fit via damped Gauss-Newton.

    `delays` and `counts` are equal-length arrays in any order; the points
    are sorted by delay, and by count among equal delays.

    Initialization is data-driven: baseline from the mean of the outer 20%
    of points, depth from baseline minus the minimum, center at the minimum,
    width from the half-depth crossings.  Each Gauss-Newton step is halved
    until the residual decreases, so the objective is monotone; iteration
    stops when the relative step falls below `FIT_STEP_TOL` and fails with
    the best-so-far parameters after `FIT_MAX_ITER` total iterations.  The
    line search evaluates only the model terms; the Jacobian is filled
    into one preallocated array from the terms of the accepted point, so no
    trial point builds a Jacobian and no iteration recomputes an exponential.

    With `poisson_weights` the fit is iteratively reweighted: a first pass
    uses 1/sqrt(max(count, 1)) weights, then the weights are rebuilt
    from the fitted model and the fit repeated.  Observed-count weights pull
    the curve toward downward count fluctuations; model-based weights remove
    that bias.  Quoted uncertainties for this mode are deliberately
    conservative: a robust covariance built on the small-count variance
    (1 + sqrt(m + 0.75))^2 per point, the usual max(1, chi^2/dof) scale, and
    the Monte-Carlo-derived `ERRORBAR_CALIBRATION` margin.  They are meant
    for accept/reject decisions, so they err on the side of over-coverage.

    A fit any of whose fields is not finite, as counts near the float range
    give, raises `FitError`.
    """
    l = np.asarray(delays, dtype=float)
    y = np.asarray(counts, dtype=float)
    order = np.lexsort((y, l))
    if len(order) < 5:
        raise ValueError(f"need at least 5 points to fit a dip, got {len(order)}")
    l, y = l[order], y[order]
    if np.any(y < 0.0):
        raise ValueError("counts must be nonnegative")
    # an overflow to inf or nan ends in the finiteness check below, not in
    # a RuntimeWarning
    with np.errstate(over="ignore", invalid="ignore"):
        result, converged = _fit_dip(l, y, poisson_weights)
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {FIT_MAX_ITER} iterations "
            f"(best residual {result.residual:.6g})",
            best=result,
        )
    if result.depth <= 0.0:
        raise NoDipError("no dip detected")
    not_finite = [name for name, value in vars(result).items() if not math.isfinite(value)]
    if not_finite:
        raise FitError(f"fit is not finite: {', '.join(not_finite)}")
    return result


def _fit_dip(
    l: np.ndarray, y: np.ndarray, poisson_weights: bool
) -> tuple[FitResult, bool]:
    """The Gauss-Newton fit of `fit_gaussian_dip` on sorted delays `l` and
    counts `y`, and whether it converged."""
    n = len(l)
    n_edge = max(1, int(round(0.1 * n)))
    base0 = float(np.mean(np.concatenate((y[:n_edge], y[-n_edge:]))))
    i_min = int(np.argmin(y))
    depth0 = base0 - float(y[i_min])
    if depth0 <= 0.0 or float(np.ptp(y)) == 0.0:
        raise NoDipError("no dip detected")
    center0 = float(l[i_min])
    half_level = base0 - depth0 / 2.0
    below = l[y < half_level]
    span = float(below.max() - below.min()) if below.size >= 2 else 0.0
    w0 = span / GAUSSIAN_FWHM_FACTOR if span > 0.0 else (l[-1] - l[0]) / 6.0

    def descend(
        p: np.ndarray, sig: np.ndarray, budget: int
    ) -> tuple[np.ndarray, float, int, bool]:
        """Damped Gauss-Newton on the fixed-weight objective."""

        def objective(q: np.ndarray) -> tuple[float, tuple]:
            """Weighted sum of squares at q, with the (u, g, residual) the
            Jacobian at q is built from."""
            u, g, model = _dip_terms(q, l)
            r = (model - y) / sig
            return float((r**2).sum()), (u, g, r)

        sse, (u, g, r) = objective(p)
        jac = np.empty((n, 4))
        used = 0
        converged = False
        while used < budget:
            used += 1
            jw = _dip_jac(p, u, g, jac) / sig[:, None]
            step, *_ = np.linalg.lstsq(jw, -r, rcond=None)
            if not np.isfinite(step).all():
                break
            alpha = 1.0
            accepted = False
            while alpha >= 2.0**-30:
                cand = p + alpha * step
                if abs(cand[3]) < 1e-12:  # collapsed width, model undefined
                    alpha /= 2.0
                    continue
                cand_sse, cand_terms = objective(cand)
                if cand_sse <= sse:
                    accepted = True
                    break
                alpha /= 2.0
            if not accepted:
                converged = True  # no descent direction left: local minimum
                break
            # the 2-norm as np.linalg.norm computes it for a real vector
            move = alpha * step
            rel_step = math.sqrt(move.dot(move)) / max(math.sqrt(p.dot(p)), 1.0)
            p, sse, (u, g, r) = cand, cand_sse, cand_terms
            if rel_step < FIT_STEP_TOL:
                converged = True
                break
        return p, sse, used, converged

    p = np.array([base0, depth0, center0, w0])
    if poisson_weights:
        sig = np.sqrt(np.maximum(y, 1.0))
        p, sse, it, converged = descend(p, sig, FIT_MAX_ITER)
        if converged:
            for _ in range(2):  # reweight from the fitted model
                sig = np.sqrt(np.maximum(_dip_terms(p, l)[2], 1.0))
                p, sse, used, converged = descend(p, sig, max(FIT_MAX_ITER - it, 1))
                it += used
                if not converged:
                    break
    else:
        sig = np.ones_like(y)
        p, sse, it, converged = descend(p, sig, FIT_MAX_ITER)

    base, depth, center, w = p[0], p[1], p[2], abs(p[3])

    # parameter covariance at the solution
    p = np.array([base, depth, center, w])
    u, g, model = _dip_terms(p, l)
    jac = _dip_jac(p, u, g, np.empty((n, 4)))
    dof = max(n - 4, 1)
    if poisson_weights:
        m = np.maximum(model, 1.0)
        w_inv_var = 1.0 / m
        var_pt = (1.0 + np.sqrt(m + 0.75)) ** 2
        normal = (jac * w_inv_var[:, None]).T @ jac
        try:
            bread = np.linalg.inv(normal)
        except np.linalg.LinAlgError:
            bread = np.linalg.pinv(normal)
        meat = (jac * (w_inv_var * var_pt * w_inv_var)[:, None]).T @ jac
        chi2 = float(np.sum(w_inv_var * (model - y) ** 2))
        cov = bread @ meat @ bread
        cov = cov * max(1.0, chi2 / dof) * ERRORBAR_CALIBRATION**2
    else:
        jw = jac / sig[:, None]
        try:
            cov = np.linalg.inv(jw.T @ jw)
        except np.linalg.LinAlgError:
            cov = np.linalg.pinv(jw.T @ jw)
        cov = cov * (sse / dof)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
    vis = depth / base if base != 0.0 else math.inf
    # delta-method variance of depth / base, divided by the baseline last so
    # that no power of a large baseline (base**3 from about 6e102) overflows
    # to inf and drops a term
    var_vis = (
        (vis**2 * cov[0, 0] + cov[1, 1] - 2.0 * vis * cov[0, 1]) / base / base
    ) if base != 0.0 else math.inf
    result = FitResult(
        baseline=float(base),
        depth=float(depth),
        center_um=float(center),
        fwhm_um=float(GAUSSIAN_FWHM_FACTOR * w),
        visibility=float(vis),
        residual=float(sse),
        baseline_err=float(perr[0]),
        depth_err=float(perr[1]),
        center_err=float(perr[2]),
        fwhm_err=float(GAUSSIAN_FWHM_FACTOR * perr[3]),
        visibility_err=float(math.sqrt(max(var_vis, 0.0))),
        n_iter=it,
    )
    return result, converged


#: largest share of Monte Carlo runs whose estimator may raise `FitError`
#: and be left out of the error bar
MAX_FAILED_FRACTION = 0.1


def monte_carlo_errorbars(
    counts: np.ndarray, estimator: Callable[[np.ndarray], tuple[float, ...]]
) -> tuple[tuple[tuple[float, float], ...], int]:
    """Apply `estimator` to each row of a `simulate_counts` block; return
    (stats, failed), with one (mean, stddev) pair over the runs in `stats`
    per entry of the estimator's tuple.  A run whose estimator raises
    `FitError` is left out and counted in `failed`, up to
    `MAX_FAILED_FRACTION` of the runs; any other estimator exception
    propagates, tagged with the failing run index."""
    runs = len(counts)
    if runs < 2:
        raise ValueError("need at least 2 runs for an error bar")
    values = []
    failures = []
    for run, row in enumerate(counts):
        try:
            values.append(estimator(row))
        except FitError as exc:
            failures.append(f"run {run}: {exc}")
        except Exception as exc:
            raise EstimatorError(f"estimator failed on run {run}: {exc}") from exc
    if len(failures) > MAX_FAILED_FRACTION * runs:
        raise EstimatorError(
            f"estimator failed on {len(failures)} of {runs} runs, more than "
            f"{MAX_FAILED_FRACTION:.0%}; first on {failures[0]}"
        )
    columns = np.array(values, dtype=float).T.copy()  # one contiguous row per entry
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
