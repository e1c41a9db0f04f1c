"""Wavepacket overlaps, the optical concurrence law, simulated interference
dips, Poisson counts, the dip fitter, and Monte Carlo error bars."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, optimize

from twoboson.core_state import ATOL_EXACT, SpinDensityMatrix
from twoboson.entanglement import concurrence_closed_form
from twoboson.optics import (
    DEFAULT_SIGMA_UM,
    GAUSSIAN_FWHM_FACTOR,
    OVERLAP_CONVENTIONS,
    EstimatorError,
    FitConvergenceError,
    NoDipError,
    concurrence_optical,
    delta_to_sigma,
    dist_vectors_for_overlap,
    fit_gaussian_dip,
    gaussian_overlap,
    hom_coincidence,
    hom_visibility,
    monte_carlo_errorbars,
    sigma_to_delta,
    simulate_counts,
    spatial_amplitudes_from_theta,
    spatial_overlap_factor,
    xstate_concurrence,
    xstate_rates,
)

RT2 = math.sqrt(0.5)


def _dip_rates(visibility, fwhm_um, baseline=1000.0, n=61, span=300.0, center=0.0):
    w = fwhm_um / GAUSSIAN_FWHM_FACTOR
    delays = np.linspace(-span, span, n)
    rates = baseline * (1.0 - visibility * np.exp(-((delays - center) ** 2) / (2.0 * w**2)))
    return delays, rates


# --- angles and amplitudes ---------------------------------------------------


def test_balanced_angle_gives_equal_magnitudes():
    alphas, betas = spatial_amplitudes_from_theta(22.5)
    for a in (alphas.a_l, alphas.a_r, betas.a_l, betas.a_r):
        assert abs(a) == pytest.approx(RT2, abs=ATOL_EXACT)
    assert spatial_overlap_factor(22.5) == pytest.approx(1.0, abs=ATOL_EXACT)


def test_zero_angle_sends_everything_one_way():
    alphas, _ = spatial_amplitudes_from_theta(0.0)
    assert alphas.a_l == 0.0
    assert spatial_overlap_factor(0.0) == pytest.approx(0.0, abs=ATOL_EXACT)


def test_fifteen_degrees():
    assert spatial_overlap_factor(15.0) == pytest.approx(
        math.sin(math.radians(60.0)) ** 2, abs=ATOL_EXACT
    )


@given(theta=st.floats(min_value=-90.0, max_value=90.0))
def test_theta_amplitudes_are_always_normalized(theta):
    alphas, betas = spatial_amplitudes_from_theta(theta)
    assert alphas.norm_sq() == pytest.approx(1.0, abs=ATOL_EXACT)
    assert betas.norm_sq() == pytest.approx(1.0, abs=ATOL_EXACT)


# --- wavepacket overlaps -----------------------------------------------------


def test_overlap_is_one_at_zero_delay():
    for convention in OVERLAP_CONVENTIONS:
        assert gaussian_overlap(0.0, convention, 50.0) == 1.0


def test_paper_overlap_half_point():
    # exp(-2 delta^2 l^2) = 1/2 at delta*l = sqrt(ln2 / 2) / ... solved directly
    delta = 0.013
    l = math.sqrt(math.log(2.0) / 2.0) / delta
    sigma = delta_to_sigma(delta)
    assert gaussian_overlap(l, "paper", sigma) == pytest.approx(0.5, abs=1e-12)


def test_quadrature_overlap_matches_adaptive_integration():
    # reference: overlap integral of two identical Gaussian spectra delayed
    # by l, integrated adaptively over the whole line
    rng = np.random.default_rng(61)
    for _ in range(12):
        delta = float(rng.uniform(0.003, 0.03))
        l = float(rng.uniform(-250.0, 250.0))

        def integrand(w):
            pdf = math.exp(-(w**2) / (2.0 * delta**2)) / (delta * math.sqrt(2.0 * math.pi))
            return pdf * math.cos(w * l)

        expected, err = integrate.quad(integrand, -np.inf, np.inf)
        assert err < 1e-8  # estimate only; actual agreement is checked below
        quad = gaussian_overlap(l, "quadrature", delta_to_sigma(delta))
        assert quad == pytest.approx(expected, abs=1e-9)


def test_overlap_rejects_unknown_convention():
    with pytest.raises(ValueError, match="convention"):
        gaussian_overlap(10.0, "guess", 50.0)


def test_overlap_rejects_a_non_positive_width():
    for convention in OVERLAP_CONVENTIONS:
        with pytest.raises(ValueError, match="sigma must be positive"):
            gaussian_overlap(10.0, convention, 0.0)


def test_sigma_delta_conversion_round_trip():
    assert delta_to_sigma(sigma_to_delta(59.45)) == pytest.approx(59.45, abs=1e-12)
    assert sigma_to_delta(50.0) == pytest.approx(0.01, abs=1e-15)


def test_fitted_overlap_squares_to_the_optical_factor():
    for l in (0.0, 25.0, 140.0, 300.0):
        assert gaussian_overlap(l, "fitted", 59.45) ** 2 == pytest.approx(
            math.exp(-(l**2) / (2.0 * 59.45**2)), abs=1e-15
        )


# --- the optical law ----------------------------------------------------------


def test_optical_law_is_maximal_at_the_balanced_point():
    assert concurrence_optical(22.5, 0.0, DEFAULT_SIGMA_UM) == pytest.approx(
        1.0, abs=ATOL_EXACT
    )


def test_optical_law_dies_at_zero_angle():
    assert concurrence_optical(0.0, 17.0, DEFAULT_SIGMA_UM) == pytest.approx(
        0.0, abs=ATOL_EXACT
    )


def test_optical_law_half_maximum_delay():
    sigma = 59.45
    l_half = sigma * math.sqrt(2.0 * math.log(2.0))
    assert concurrence_optical(22.5, l_half, sigma) == pytest.approx(0.5, abs=1e-12)


@given(
    theta=st.floats(min_value=0.0, max_value=90.0),
    l=st.floats(min_value=-400.0, max_value=400.0),
)
def test_optical_law_equals_the_closed_form_splice(theta, l):
    sigma = DEFAULT_SIGMA_UM
    alphas, betas = spatial_amplitudes_from_theta(theta)
    spliced = concurrence_closed_form(alphas, betas, gaussian_overlap(l, "fitted", sigma))
    assert concurrence_optical(theta, l, sigma) == pytest.approx(spliced, abs=1e-12)


@given(l=st.floats(min_value=0.0, max_value=400.0))
def test_optical_law_is_even_in_delay(l):
    assert concurrence_optical(22.5, l, 59.45) == concurrence_optical(22.5, -l, 59.45)


@given(theta=st.floats(min_value=0.0, max_value=45.0))
def test_optical_law_is_periodic_in_theta(theta):
    a = concurrence_optical(theta, 10.0, 59.45)
    b = concurrence_optical(theta + 45.0, 10.0, 59.45)
    assert a == pytest.approx(b, abs=1e-12)


def test_dist_vectors_realize_the_requested_overlap():
    for ov in (0.0, 0.3 + 0.4j, 1.0):
        da, db = dist_vectors_for_overlap(ov)
        assert da.overlap(db) == pytest.approx(complex(ov), abs=ATOL_EXACT)
        assert da.norm_sq() == pytest.approx(1.0, abs=ATOL_EXACT)
        assert db.norm_sq() == pytest.approx(1.0, abs=ATOL_EXACT)
    with pytest.raises(ValueError):
        dist_vectors_for_overlap(1.5)


# --- two-photon interference level --------------------------------------------


def test_balanced_merge_interferes_perfectly():
    assert hom_visibility(22.5) == pytest.approx(1.0, abs=ATOL_EXACT)
    assert hom_coincidence(22.5, 1.0, 1000.0) == pytest.approx(0.0, abs=1e-9)


def test_distinguishable_photons_sit_at_baseline():
    assert hom_coincidence(22.5, 0.0, 1000.0) == pytest.approx(1000.0, abs=ATOL_EXACT)


def test_half_overlap_halves_the_balanced_dip():
    assert hom_coincidence(22.5, RT2, 1000.0) == pytest.approx(500.0, abs=1e-9)


def test_unbalanced_merge_visibility():
    # closed form 2 s^2 c^2 / (s^4 + c^4) for the theta-parameterized merge
    for theta in (10.0, 22.5, 30.0):
        t = math.radians(theta)
        s, c = math.sin(2.0 * t), math.cos(2.0 * t)
        expected = 2.0 * s**2 * c**2 / (s**4 + c**4)
        assert hom_visibility(theta) == pytest.approx(expected, abs=1e-12)


def test_coincidence_is_monotone_in_overlap():
    levels = [hom_coincidence(22.5, ov, 800.0) for ov in np.linspace(0.0, 1.0, 25)]
    assert all(b <= a for a, b in zip(levels, levels[1:]))
    with pytest.raises(ValueError):
        hom_coincidence(22.5, 1.2, 800.0)


# --- count simulation ----------------------------------------------------------


def test_zero_rates_give_zero_counts():
    counts = simulate_counts(np.zeros(3), seed=1)
    assert counts.tolist() == [[0, 0, 0]]


def test_counts_are_reproducible_for_a_fixed_seed():
    rates = 3.0 * (50.0 + np.abs(np.linspace(-100, 100, 11)))
    a = simulate_counts(rates, seed=9, runs=4)
    b = simulate_counts(rates, seed=9, runs=4)
    assert a.shape == (4, 11)
    assert np.array_equal(a, b)


@pytest.mark.parametrize("seed", [0, 1, [7, 3], 1001])
def test_block_rows_are_sequential_draws(seed):
    _, rates = _dip_rates(0.91, 137.0)
    for r in (rates, np.array([250.0, 250.0, 480.0, 20.0])):
        rng = np.random.default_rng(seed)
        sequential = np.array([rng.poisson(r) for _ in range(30)])
        assert np.array_equal(simulate_counts(r, seed, 30), sequential)
        assert np.array_equal(simulate_counts(r, seed, 2)[0], sequential[0])
        assert np.array_equal(simulate_counts(r, seed)[0], sequential[0])


def test_sample_mean_tracks_the_rate():
    counts = simulate_counts(np.full(10_000, 1000.0), seed=0)
    assert abs(counts.mean() - 1000.0) <= 3.0 * math.sqrt(1000.0)


def test_negative_rates_are_rejected():
    with pytest.raises(ValueError, match="negative"):
        simulate_counts(np.array([-1.0]), seed=0)


# --- dip fitting ----------------------------------------------------------------


def test_noiseless_dip_is_recovered_exactly():
    for vis, fwhm in ((0.99, 132.0), (0.91, 137.0)):
        delays, rates = _dip_rates(vis, fwhm)
        for weighted in (False, True):
            fit = fit_gaussian_dip(list(zip(delays, rates)), poisson_weights=weighted)
            assert fit.visibility == pytest.approx(vis, rel=1e-9)
            assert fit.fwhm_um == pytest.approx(fwhm, rel=1e-9)
            assert fit.baseline == pytest.approx(1000.0, rel=1e-9)
            assert abs(fit.center_um) < 1e-6


def test_offcenter_dip_center_is_found():
    delays, rates = _dip_rates(0.8, 120.0, center=42.0)
    fit = fit_gaussian_dip(list(zip(delays, rates)))
    assert fit.center_um == pytest.approx(42.0, abs=1e-6)


def test_flat_data_raises_no_dip():
    with pytest.raises(NoDipError, match="no dip detected"):
        fit_gaussian_dip([(float(l), 100.0) for l in range(-30, 31)])


def test_too_few_points_rejected():
    with pytest.raises(ValueError, match="at least 5"):
        fit_gaussian_dip([(0.0, 1.0), (1.0, 2.0)])


def test_negative_counts_rejected():
    with pytest.raises(ValueError, match="nonnegative"):
        fit_gaussian_dip([(float(l), -1.0) for l in range(-10, 11)])


def test_iteration_cap_raises_with_best_so_far():
    delays, rates = _dip_rates(0.95, 130.0)
    counts = np.random.default_rng(3).poisson(rates)
    with pytest.raises(FitConvergenceError) as excinfo:
        fit_gaussian_dip(list(zip(delays, counts)), max_iter=1)
    best = excinfo.value.best
    assert best is not None
    assert best.n_iter == 1
    assert 0.5 < best.visibility < 1.5  # the partial answer is still sane


def test_noised_width_recovery_rate():
    # Poisson noise at the usual count scale: the width lands within 5% of
    # truth essentially always; demand it in at least 95 of 100 trials
    delays, rates = _dip_rates(0.99, 132.0)
    good = 0
    for s in range(100):
        counts = np.random.default_rng([77, s]).poisson(rates)
        fit = fit_gaussian_dip(list(zip(delays, counts)), poisson_weights=True)
        good += abs(fit.fwhm_um - 132.0) / 132.0 <= 0.05
    assert good >= 95


def test_fit_agrees_with_reference_optimizer():
    # same unweighted least-squares problem handed to an independent solver
    delays, rates = _dip_rates(0.9, 140.0)
    counts = np.random.default_rng(8).poisson(rates).astype(float)
    fit = fit_gaussian_dip(list(zip(delays, counts)))

    def model(l, base, depth, center, w):
        return base - depth * np.exp(-((l - center) ** 2) / (2.0 * w**2))

    popt, _ = optimize.curve_fit(
        model,
        delays,
        counts,
        p0=(1000.0, 900.0, 0.0, 140.0 / GAUSSIAN_FWHM_FACTOR),
        maxfev=10_000,
    )
    assert fit.baseline == pytest.approx(popt[0], rel=1e-6)
    assert fit.depth == pytest.approx(popt[1], rel=1e-6)
    assert fit.center_um == pytest.approx(popt[2], abs=1e-4)
    assert fit.fwhm_um == pytest.approx(GAUSSIAN_FWHM_FACTOR * abs(popt[3]), rel=1e-6)


def test_quoted_errors_cover_the_truth_at_nominal_rates():
    # ground-truth calibration of the reported uncertainties: over many
    # Poisson realizations, the 1-sigma interval must cover the truth at
    # least as often as a calibrated interval would (68%), by design margin
    delays, rates = _dip_rates(0.91, 137.0)
    inside_v = inside_f = 0
    runs = 150
    rng = np.random.default_rng(1234)
    for _ in range(runs):
        counts = rng.poisson(rates)
        fit = fit_gaussian_dip(list(zip(delays, counts)), poisson_weights=True)
        inside_v += abs(fit.visibility - 0.91) <= fit.visibility_err
        inside_f += abs(fit.fwhm_um - 137.0) <= fit.fwhm_err
    assert inside_v / runs >= 0.68
    assert inside_f / runs >= 0.68


# --- count-channel concurrence estimator ------------------------------------------


def _middle_block_state(q: complex) -> "SpinDensityMatrix":
    m = np.zeros((4, 4), dtype=complex)
    m[1, 1] = m[2, 2] = 0.25
    m[1, 2] = q
    m[2, 1] = np.conj(q)
    return SpinDensityMatrix(m, 0.5)


def test_concurrence_estimator_is_unbiased_within_its_spread():
    rho = _middle_block_state(0.25)  # maximally entangled after normalization
    counts = simulate_counts(xstate_rates(rho, 1000.0), 11, 100)
    draws = np.array([xstate_concurrence(row) for row in counts])
    assert abs(draws.mean() - 1.0) <= draws.std(ddof=1)
    assert draws.std(ddof=1) < 0.1  # at 1000 shots this is a tight channel


def test_no_coincidences_means_no_entanglement_evidence():
    rho = _middle_block_state(0.25)
    counts = simulate_counts(xstate_rates(rho, 1e-4), 4)
    assert counts[0, :2].tolist() == [0, 0]
    assert xstate_concurrence(counts[0]) == 0.0
    assert xstate_concurrence(np.array([0, 0, 3, 1])) == 0.0


def test_channel_rates_of_the_middle_block():
    # populations 0.25 and 0.25, coherence 0.1: plus/minus channels 0.35/0.15
    rates = xstate_rates(_middle_block_state(0.1), 100.0)
    assert rates == pytest.approx([25.0, 25.0, 35.0, 15.0], abs=1e-12)
    assert xstate_concurrence(np.array([25, 25, 35, 15])) == pytest.approx(0.4)


def test_estimator_rejects_complex_coherence():
    rho = _middle_block_state(0.25j)
    with pytest.raises(ValueError, match="real coherence"):
        xstate_rates(rho, 10.0)


# --- Monte Carlo error bars ------------------------------------------------------


def test_constant_estimator_has_zero_spread():
    counts = simulate_counts(np.array([100.0]), 2, 20)
    assert monte_carlo_errorbars(counts, lambda c: 7.5) == ((7.5, 0.0), 0)


def test_poisson_spread_matches_the_analytic_width():
    (mean, std), failed = monte_carlo_errorbars(
        simulate_counts(np.array([100.0]), 5, 100), lambda counts: float(counts[0])
    )
    assert failed == 0
    assert abs(std - 10.0) / 10.0 <= 0.2  # sqrt(100), within 20%
    assert abs(mean - 100.0) <= 3.0


def test_estimator_failures_carry_the_run_index():
    def boom(counts):
        raise RuntimeError("bad batch")

    with pytest.raises(EstimatorError, match="run 0"):
        monte_carlo_errorbars(simulate_counts(np.array([10.0]), 3, 4), boom)


def _fails_on_runs(bad_runs):
    """Estimator over a block whose row k is [k]; its fit fails on `bad_runs`."""

    def estimator(row):
        if int(row[0]) in bad_runs:
            raise NoDipError("no dip detected")
        return float(row[0])

    return estimator


def test_failed_fits_are_left_out_and_counted():
    counts = np.arange(20.0)[:, None]
    (mean, std), failed = monte_carlo_errorbars(counts, _fails_on_runs({3, 11}))
    kept = [v for v in range(20) if v not in (3, 11)]
    assert failed == 2
    assert mean == float(np.mean(kept))
    assert std == float(np.std(kept, ddof=1))


def test_too_many_failed_fits_abort_with_the_count_and_the_first_failure():
    counts = np.arange(20.0)[:, None]
    with pytest.raises(EstimatorError, match="3 of 20 runs.*first on run 4: no dip"):
        monte_carlo_errorbars(counts, _fails_on_runs({4, 9, 15}))


def test_tuple_estimator_matches_separate_scalar_runs():
    counts = simulate_counts(np.array([50.0, 60.0, 70.0]), 4, 30)

    def first(counts):
        return float(counts[0]) / 3.0

    def spread(counts):
        return float(np.ptp(counts))

    together, failed = monte_carlo_errorbars(counts, lambda c: (first(c), spread(c)))
    assert failed == 0
    assert together == (
        monte_carlo_errorbars(counts, first)[0],
        monte_carlo_errorbars(counts, spread)[0],
    )


def test_needs_at_least_two_runs():
    with pytest.raises(ValueError, match="2 runs"):
        monte_carlo_errorbars(simulate_counts(np.array([10.0]), 0, 1), lambda c: 0.0)
