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
`simulate_counts`, the only place a generator is created, and
`monte_carlo_errorbars` reduces it row by row.  No hidden global state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

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


def dist_vectors_for_overlap(
    overlap: complex, dim: int = 2
) -> tuple[DistVector, DistVector]:
    """A concrete pair of unit vectors with <phi_A|phi_B> = overlap."""
    mag = abs(overlap)
    if mag > 1.0 + ATOL_EXACT:
        raise ValueError(f"|overlap| = {mag:.12g} exceeds 1")
    if dim < 2:
        raise ValueError("need at least two basis states to dial an overlap")
    rest = math.sqrt(max(0.0, 1.0 - mag**2))
    a = [0j] * dim
    b = [0j] * dim
    a[0] = 1.0 + 0j
    b[0] = complex(overlap)
    b[1] = rest + 0j
    return DistVector(tuple(a)), DistVector(tuple(b))


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
    on `runs`."""
    if np.any(rates < 0.0):
        raise ValueError("count rates must be nonnegative")
    return np.random.default_rng(seed).poisson(rates, size=(runs, len(rates)))


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


def _dip_model_and_jac(p: np.ndarray, l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    base, depth, center, w = p
    u = l - center
    g = np.exp(-(u**2) / (2.0 * w**2))
    model = base - depth * g
    jac = np.column_stack(
        (
            np.ones_like(l),
            -g,
            -depth * g * u / w**2,
            -depth * g * u**2 / w**3,
        )
    )
    return model, jac


def fit_gaussian_dip(
    points: Sequence[tuple[float, float]],
    poisson_weights: bool = False,
    max_iter: int = 200,
    step_tol: float = 1e-10,
) -> FitResult:
    """Least-squares Gaussian dip fit via damped Gauss-Newton.

    Initialization is data-driven: baseline from the mean of the outer 20%
    of points, depth from baseline minus the minimum, center at the minimum,
    width from the half-depth crossings.  Each Gauss-Newton step is halved
    until the residual decreases, so the objective is monotone; iteration
    stops when the relative step falls below `step_tol` and fails with the
    best-so-far parameters after `max_iter` total iterations.

    With `poisson_weights` the fit is iteratively reweighted: a first pass
    uses 1/sqrt(max(count, 1)) weights, then the weights are rebuilt
    from the fitted model and the fit repeated.  Observed-count weights pull
    the curve toward downward count fluctuations; model-based weights remove
    that bias.  Quoted uncertainties for this mode are deliberately
    conservative: a robust covariance built on the small-count variance
    (1 + sqrt(m + 0.75))^2 per point, the usual max(1, chi^2/dof) scale, and
    the Monte-Carlo-derived `ERRORBAR_CALIBRATION` margin.  They are meant
    for accept/reject decisions, so they err on the side of over-coverage.
    """
    pts = sorted((float(l), float(y)) for l, y in points)
    if len(pts) < 5:
        raise ValueError(f"need at least 5 points to fit a dip, got {len(pts)}")
    l = np.array([p[0] for p in pts])
    y = np.array([p[1] for p in pts])
    if np.any(y < 0.0):
        raise ValueError("counts must be nonnegative")

    n = len(pts)
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

        def objective(q: np.ndarray) -> float:
            model, _ = _dip_model_and_jac(q, l)
            return float(np.sum(((model - y) / sig) ** 2))

        sse = objective(p)
        used = 0
        converged = False
        while used < budget:
            used += 1
            model, jac = _dip_model_and_jac(p, l)
            r = (model - y) / sig
            jw = jac / sig[:, None]
            step, *_ = np.linalg.lstsq(jw, -r, rcond=None)
            if not np.all(np.isfinite(step)):
                break
            alpha = 1.0
            accepted = False
            while alpha >= 2.0**-30:
                cand = p + alpha * step
                if abs(cand[3]) < 1e-12:  # collapsed width, model undefined
                    alpha /= 2.0
                    continue
                cand_sse = objective(cand)
                if cand_sse <= sse:
                    accepted = True
                    break
                alpha /= 2.0
            if not accepted:
                converged = True  # no descent direction left: local minimum
                break
            rel_step = np.linalg.norm(alpha * step) / max(np.linalg.norm(p), 1.0)
            p, sse = cand, cand_sse
            if rel_step < step_tol:
                converged = True
                break
        return p, sse, used, converged

    p = np.array([base0, depth0, center0, w0])
    if poisson_weights:
        sig = np.sqrt(np.maximum(y, 1.0))
        p, sse, it, converged = descend(p, sig, max_iter)
        if converged:
            for _ in range(2):  # reweight from the fitted model
                model, _ = _dip_model_and_jac(p, l)
                sig = np.sqrt(np.maximum(model, 1.0))
                p, sse, used, converged = descend(p, sig, max(max_iter - it, 1))
                it += used
                if not converged:
                    break
    else:
        sig = np.ones_like(y)
        p, sse, it, converged = descend(p, sig, max_iter)

    base, depth, center, w = p[0], p[1], p[2], abs(p[3])

    # parameter covariance at the solution
    model, jac = _dip_model_and_jac(np.array([base, depth, center, w]), l)
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
    var_vis = (
        (depth / base**2) ** 2 * cov[0, 0]
        + (1.0 / base) ** 2 * cov[1, 1]
        - 2.0 * (depth / base**3) * cov[0, 1]
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
    if not converged:
        raise FitConvergenceError(
            f"no convergence after {max_iter} iterations "
            f"(best residual {sse:.6g})",
            best=result,
        )
    if depth <= 0.0:
        raise NoDipError("no dip detected")
    return result


#: largest share of Monte Carlo runs whose estimator may raise `FitError`
#: and be left out of the error bar
MAX_FAILED_FRACTION = 0.1


def monte_carlo_errorbars(
    counts: np.ndarray,
    estimator: Callable[[np.ndarray], float | tuple[float, ...]],
):
    """Apply `estimator` to each row of a `simulate_counts` block; return
    ((mean, stddev), failed) over the runs.  A tuple-valued estimator gets
    one (mean, stddev) pair per entry.  A run whose estimator raises
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
    stats = tuple((float(np.mean(c)), float(np.std(c, ddof=1))) for c in np.atleast_2d(columns))
    return (stats[0] if columns.ndim == 1 else stats), len(failures)


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


def xstate_concurrence(counts: np.ndarray) -> float:
    """Concurrence 2|q| / (p + r) rebuilt from one row of `xstate_rates`
    channel counts; 0 when no coincidences were observed."""
    n_ud, n_du, n_plus, n_minus = counts
    total = n_ud + n_du
    if total == 0:
        return 0.0  # no coincidences observed, no entanglement evidence
    q_hat = (float(n_plus) - float(n_minus)) / 2.0
    return float(min(1.0, 2.0 * abs(q_hat) / total))
