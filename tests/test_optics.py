"""Wavepacket overlaps, the optical concurrence law, simulated interference
dips, Poisson counts, the dip fitter, and Monte Carlo error bars."""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import integrate, optimize

from twoboson import optics
from twoboson.core_state import (
    ATOL_EXACT, DistVector, SingleParticleState, SpatialAmplitudes, Spin, SpinDensityMatrix,
)
from twoboson.entanglement import concurrence_closed_form, number_distribution
from twoboson.optics import (
    DEFAULT_SIGMA_UM,
    GAUSSIAN_FWHM_FACTOR,
    OVERLAP_CONVENTIONS,
    EstimatorError,
    FitConvergenceError,
    FitError,
    FitResult,
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
from twoboson.optics import _dip_jac, _dip_terms, _gn_steps

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
    assert alphas.overlap(alphas).real == pytest.approx(1.0, abs=ATOL_EXACT)
    assert betas.overlap(betas).real == pytest.approx(1.0, abs=ATOL_EXACT)


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
        assert da.overlap(da).real == pytest.approx(1.0, abs=ATOL_EXACT)
        assert db.overlap(db).real == pytest.approx(1.0, abs=ATOL_EXACT)
    with pytest.raises(ValueError):
        dist_vectors_for_overlap(1.5)


def test_a_prepared_grid_reads_the_bits_of_each_pair_built_alone():
    # the grid shares phi_A, each row's spin-up particle and each overlap's
    # phi_B and <phi_B|phi_A>; a point still reads the bits of its pair built
    # alone, from a (1, 0) vector of its own
    rng = np.random.default_rng(34)

    def unit_modes():
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        return SpatialAmplitudes(*(v / np.linalg.norm(v)).tolist())

    modes = [spatial_amplitudes_from_theta(theta) for theta in (0.0, 10.0, 22.5)]
    modes += [(unit_modes(), unit_modes()) for _ in range(4)]
    overlaps = [0.0, 1.0, 0.3 + 0.4j, -0.5j]
    overlaps += [rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi)) for _ in range(4)]
    rows = list(optics.prepared_distributions(modes, overlaps))
    assert [len(row) for row in rows] == [len(overlaps)] * len(modes)
    for (alphas, betas), row in zip(modes, rows):
        for overlap, nd in zip(overlaps, row):
            _, phi_b = dist_vectors_for_overlap(overlap)
            alone = number_distribution(
                SingleParticleState(alphas, Spin.UP, DistVector((1.0 + 0j, 0j))),
                SingleParticleState(betas, Spin.DOWN, phi_b),
            )
            assert nd.state.matrix.tobytes() == alone.state.matrix.tobytes()
            assert np.complex128(nd.coherence).tobytes() == np.complex128(alone.coherence).tobytes()
            assert list(nd.probabilities.items()) == list(alone.probabilities.items())


# --- two-photon interference level --------------------------------------------


def test_balanced_merge_interferes_perfectly():
    assert hom_visibility(22.5) == pytest.approx(1.0, abs=ATOL_EXACT)
    assert hom_coincidence(hom_visibility(22.5), 1.0, 1000.0) == pytest.approx(0.0, abs=1e-9)


def test_distinguishable_photons_sit_at_baseline():
    level = hom_coincidence(hom_visibility(22.5), 0.0, 1000.0)
    assert level == pytest.approx(1000.0, abs=ATOL_EXACT)


def test_half_overlap_halves_the_balanced_dip():
    # overlap 1/sqrt(2), so an indistinguishability of 1/2
    level = hom_coincidence(hom_visibility(22.5), RT2**2, 1000.0)
    assert level == pytest.approx(500.0, abs=1e-9)


def test_unbalanced_merge_visibility():
    # closed form 2 s^2 c^2 / (s^4 + c^4) for the theta-parameterized merge
    for theta in (10.0, 22.5, 30.0):
        t = math.radians(theta)
        s, c = math.sin(2.0 * t), math.cos(2.0 * t)
        expected = 2.0 * s**2 * c**2 / (s**4 + c**4)
        assert hom_visibility(theta) == pytest.approx(expected, abs=1e-12)


def test_coincidence_is_monotone_in_overlap():
    v = hom_visibility(22.5)
    levels = [hom_coincidence(v, ov**2, 800.0) for ov in np.linspace(0.0, 1.0, 25)]
    assert all(b <= a for a, b in zip(levels, levels[1:]))
    with pytest.raises(ValueError):
        hom_coincidence(v, 1.2, 800.0)


def test_coincidence_of_an_array_is_the_coincidence_of_each_value():
    x = np.linspace(0.0, 1.0, 7)
    levels = hom_coincidence(0.7, x, 300.0)
    assert levels.tolist() == [float(hom_coincidence(0.7, v, 300.0)) for v in x]
    # a roundoff step past either end is clipped, a real one refused
    clipped = hom_coincidence(0.7, [-1e-15, 1.0 + 1e-15], 300.0)
    assert clipped.tolist() == hom_coincidence(0.7, [0.0, 1.0], 300.0).tolist()
    with pytest.raises(ValueError, match="indistinguishability = 1.2 outside"):
        hom_coincidence(0.7, [0.5, 1.2], 300.0)
    with pytest.raises(ValueError, match="indistinguishability = nan outside"):
        hom_coincidence(0.7, [0.5, math.nan], 300.0)


@pytest.mark.parametrize("visibility", (-0.1, 1.5, math.nan))
def test_coincidence_refuses_a_visibility_outside_the_unit_interval(visibility):
    with pytest.raises(ValueError, match=r"^visibility must lie in \[0, 1\]$"):
        hom_coincidence(visibility, 0.5, 1000.0)


def test_coincidence_refuses_a_baseline_that_is_not_positive():
    with pytest.raises(ValueError, match="baseline must be positive"):
        hom_coincidence(0.5, 0.5, 0.0)


def test_gaussian_dip_is_the_squared_fitted_overlap_of_its_width():
    # a dip of FWHM 2 sqrt(2 ln 2) sigma is the 'fitted' overlap squared
    delays = [-300.0, -75.5, 0.0, 12.0, 140.0]
    dip = optics.gaussian_dip(delays, GAUSSIAN_FWHM_FACTOR * DEFAULT_SIGMA_UM, 0.0)
    squared = [gaussian_overlap(l, "fitted", DEFAULT_SIGMA_UM) ** 2 for l in delays]
    assert dip == pytest.approx(squared, rel=1e-14)
    assert optics.gaussian_dip([7.0], 30.0, 7.0).tolist() == [1.0]  # 1 at its center


@pytest.mark.parametrize(
    "delays, fwhm_um, exc",
    (([0.0, 10.0], 1e-300, ZeroDivisionError), ([0.0, 1e300], 10.0, OverflowError)),
)
def test_gaussian_dip_raises_for_a_zero_width_or_an_overflowing_square(delays, fwhm_um, exc):
    # the CLI turns either into exit code 2
    with pytest.raises(exc):
        optics.gaussian_dip(delays, fwhm_um, 0.0)


# --- count simulation ----------------------------------------------------------


def test_zero_rates_give_zero_counts():
    counts = simulate_counts(np.zeros(3), seed=1, runs=1)
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


def test_sample_mean_tracks_the_rate():
    counts = simulate_counts(np.full(10_000, 1000.0), seed=0, runs=1)
    assert abs(counts.mean() - 1000.0) <= 3.0 * math.sqrt(1000.0)


def test_negative_rates_are_rejected():
    with pytest.raises(ValueError, match="negative"):
        simulate_counts(np.array([-1.0]), seed=0, runs=1)


def test_rates_beyond_the_poisson_sampler_name_the_largest_rate():
    with pytest.raises(ValueError, match=r"largest rate of 2e\+300 \(lam value too large\)"):
        simulate_counts(np.array([5.0, 2e300, 1e300]), seed=0, runs=1)


# --- dip fitting ----------------------------------------------------------------


@pytest.mark.parametrize(
    "p", ([1000.0, 900.0, 5.0, 58.0], [20.0, 15.0, -40.0, -30.0])
)
def test_dip_model_and_jacobian(p):
    p = np.array(p)
    l = np.linspace(-150.0, 150.0, 31)
    (u,), (g,), (model,) = _dip_terms(p[None], l)
    base, depth, center = p[:3]
    w = p[3:]  # one entry, whose powers the fit takes as array powers
    assert np.array_equal(u, l - center)
    assert np.array_equal(g, np.exp(-(u**2) / (2.0 * w**2)))
    assert np.array_equal(model, base - depth * g)
    (jac,) = _dip_jac(p[None], u[None], g[None])
    # every entry, bit for bit
    assert np.array_equal(jac[:, 0], np.ones(len(l)))
    assert np.array_equal(jac[:, 1], -g)
    assert np.array_equal(jac[:, 2], -depth * g * u / w**2)
    assert np.array_equal(jac[:, 3], -depth * g * u**2 / w**3)
    for k in range(4):
        h = 1e-5 * max(abs(p[k]), 1.0)
        dp = np.zeros(4)
        dp[k] = h
        central = (_dip_terms((p + dp)[None], l)[2] - _dip_terms((p - dp)[None], l)[2])[0] / (
            2.0 * h
        )
        assert np.max(np.abs(central - jac[:, k])) <= 1e-6 * np.max(np.abs(jac[:, k]))


def test_stacked_dip_terms_match_each_row_alone():
    ps = np.array([[1000.0, 900.0, 5.0, 58.0], [20.0, 15.0, -40.0, -30.0], [3.0, 2.5, 0.1, 1e-3]])
    l = np.linspace(-150.0, 150.0, 31)
    stacked = _dip_terms(ps, l)
    jac = _dip_jac(ps, stacked[0], stacked[1])
    for i, p in enumerate(ps):
        alone = _dip_terms(p[None], l)
        for got, want in zip(stacked, alone):
            assert got[i].tobytes() == want[0].tobytes()
        assert jac[i].tobytes() == _dip_jac(p[None], alone[0], alone[1])[0].tobytes()


def test_noiseless_dip_is_recovered_exactly(fit_row):
    # an unweighted fit does not depend on the count scale; a weighted one
    # is fitted in counts, where its weights floor at 1
    for baseline in (1000.0, 1e-100, 1e-20, 1e-12, 1e100, 1e150):
        for vis, fwhm in ((0.99, 132.0), (0.91, 137.0)):
            delays, rates = _dip_rates(vis, fwhm, baseline)
            for weighted in (False, True) if baseline == 1000.0 else (False,):
                fit = fit_row(delays, rates, poisson_weights=weighted)
                assert fit.visibility == pytest.approx(vis, rel=1e-9)
                assert fit.fwhm_um == pytest.approx(fwhm, rel=1e-9)
                assert fit.baseline == pytest.approx(baseline, rel=1e-9)
                assert abs(fit.center_um) < 1e-6


def test_offcenter_dip_center_is_found(fit_row):
    delays, rates = _dip_rates(0.8, 120.0, center=42.0)
    fit = fit_row(delays, rates)
    assert fit.center_um == pytest.approx(42.0, abs=1e-6)


def test_flat_data_raises_no_dip(fit_row):
    with pytest.raises(NoDipError, match="no dip detected"):
        fit_row(np.arange(-30.0, 31.0), np.full(61, 100.0))


def test_too_few_points_rejected(fit_row):
    with pytest.raises(ValueError, match="at least 5 distinct delays to fit a dip, got 2"):
        fit_row([0.0, 1.0], [1.0, 2.0])
    with pytest.raises(ValueError, match="at least 5 distinct delays to fit a dip, got 2"):
        fit_row([0.0, 0.0, 0.0, 0.0, 300.0], [1.0, 1.0, 1.0, 1.0, 2.0])


def test_negative_counts_rejected(fit_row):
    with pytest.raises(ValueError, match="nonnegative"):
        fit_row(np.arange(-10.0, 11.0), np.full(21, -1.0))


def _fit_bits(fit) -> bytes:
    return np.array(dataclasses.astuple(fit), dtype=float).tobytes()


@pytest.mark.parametrize("poisson_weights", (False, True))
def test_fit_does_not_depend_on_the_order_of_its_points(poisson_weights, fit_row):
    delays, rates = _dip_rates(0.91, 137.0)
    counts = np.random.default_rng(12).poisson(rates)
    # the same grid with delay 0 repeated, each copy with its own count
    repeated = (np.append(delays, delays[30]), np.append(counts, counts[30] + 40))
    for l, y in ((delays, counts), repeated):
        # sorted as tuples of (delay, count) are, ties included
        sorted_l, sorted_y = (np.array(v) for v in zip(*sorted(zip(l.tolist(), y.tolist()))))
        want = _fit_bits(fit_row(sorted_l, sorted_y, poisson_weights))
        for order in (np.random.default_rng(4).permutation(len(l)), np.arange(len(l))[::-1]):
            assert _fit_bits(fit_row(l[order], y[order], poisson_weights)) == want


def _outcome_bits(outcome):
    """A fit outcome as comparable values: a result's bytes, or an error's
    type and message, which for a capped row holds its residual."""
    if isinstance(outcome, FitError):
        return type(outcome), str(outcome)
    return _fit_bits(outcome)


@pytest.mark.parametrize("max_iter", (optics.FIT_MAX_ITER, 3))
@pytest.mark.parametrize("poisson_weights", (False, True))
def test_each_row_of_a_block_fits_as_it_would_alone(poisson_weights, max_iter, monkeypatch):
    monkeypatch.setattr(optics, "FIT_MAX_ITER", max_iter)
    delays, rates = _dip_rates(0.95, 130.0)
    rng = np.random.default_rng(5)
    block = np.vstack(
        [
            rng.poisson(rates, (3, 61)),  # about 1000 counts
            rng.poisson(0.004 * rates, (4, 61)),  # 4 and 5 counts: some fits fail
            rng.poisson(0.005 * rates, (4, 61)),
            np.full((1, 61), 100.0),  # flat: no dip
            # weighted, its Jacobian is not finite; unweighted, it is fitted
            # in units of a power of two, and its residual in counts overflows
            1e305 * rates[None],
            1e300 * rates[None],  # overflows: not finite
        ]
    )
    fits = fit_gaussian_dip(delays, block, poisson_weights)
    alone = [fit_gaussian_dip(delays, row[None], poisson_weights) for row in block]
    assert [_outcome_bits(o) for o in fits.outcomes] == [
        _outcome_bits(one.outcomes[0]) for one in alone
    ]
    # the block's iterations are every iteration of every row, whatever its
    # outcome
    assert fits.n_iter == sum(one.n_iter for one in alone)
    for o, one in zip(fits.outcomes, alone):
        if isinstance(o, FitConvergenceError):
            assert one.n_iter == max_iter
        elif isinstance(o, FitResult):
            assert one.n_iter == o.n_iter
        elif str(o).startswith("fitted FWHM "):  # the scan rule is for weighted fits
            assert poisson_weights
    # the flat row never takes a step; every other row does, whatever its
    # outcome
    assert [one.n_iter == 0 for one in alone] == [i == len(block) - 3 for i in range(len(block))]
    kinds = {type(o) for o in fits.outcomes}
    # unweighted, the two rows near the float range are fitted in units of a
    # power of two like any other row, so at a cap of 3 they hit it too
    at_cap = max_iter == 3 and not poisson_weights
    if max_iter == 3:
        assert kinds == {FitConvergenceError, NoDipError} | (set() if at_cap else {FitError})
    else:
        assert kinds == {FitResult, FitConvergenceError, NoDipError, FitError}
        assert any(isinstance(o, FitResult) for o in fits.outcomes[3:11])
    assert str(fits.outcomes[-3]) == "no dip detected"
    if at_cap:
        assert [str(o) for o in fits.outcomes[-2:]] == [
            "no convergence after 3 iterations (best residual inf)"
        ] * 2
    else:
        assert str(fits.outcomes[-2]) == (
            "least-squares step failed: the Jacobian or residual is not finite"
            if poisson_weights
            else "fit is not finite: residual"
        )
        assert str(fits.outcomes[-1]).startswith("fit is not finite: ")


@pytest.mark.parametrize("poisson_weights", (False, True))
def test_a_least_squares_step_that_raises_ends_that_row_only(poisson_weights, monkeypatch):
    delays, rates = _dip_rates(0.95, 130.0)
    block = np.random.default_rng(6).poisson(rates, (4, 61))
    alone = [fit_gaussian_dip(delays, row[None], poisson_weights).outcomes[0] for row in block]
    qr = np.linalg.qr
    stacks = []

    def recorded(a, mode):
        stacks.append(a.copy())
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", recorded)
    fit_gaussian_dip(delays, block[1:2], poisson_weights)
    # row 1's weighted Jacobian and residual [jw, -r] at its second step,
    # which its fit alone meets and, with the same bits, the block's fit too
    failing = stacks[1][0].tobytes()
    sizes = []

    def failing_on_row_1s_second_step(a, mode):
        sizes.append(len(a))
        if any(m.tobytes() == failing for m in a):
            # as the SVD of a row on the pseudo-inverse route can raise
            raise np.linalg.LinAlgError("SVD did not converge")
        return qr(a, mode)

    monkeypatch.setattr(np.linalg, "qr", failing_on_row_1s_second_step)
    fits = fit_gaussian_dip(delays, block, poisson_weights)
    # the second round's stack of 4 raises, so that round's rows are solved
    # one at a time; row 1's fit ends there and 3 rows go on
    assert sizes[:7] == [4, 4, 1, 1, 1, 1, 3]
    assert type(fits.outcomes[1]) is FitError
    assert str(fits.outcomes[1]) == "least-squares step failed: SVD did not converge"
    for i in (0, 2, 3):
        assert _fit_bits(fits.outcomes[i]) == _fit_bits(alone[i])


@pytest.mark.parametrize("alone_too", (False, True))
@pytest.mark.parametrize("poisson_weights", (False, True))
def test_a_stacked_inverse_that_raises_inverts_each_row_alone(
    poisson_weights, alone_too, monkeypatch
):
    delays, rates = _dip_rates(0.95, 130.0)
    block = np.random.default_rng(6).poisson(rates, (4, 61))
    alone = [fit_gaussian_dip(delays, row[None], poisson_weights).outcomes[0] for row in block]
    inv = np.linalg.inv
    triangles = []

    def recorded(a):
        triangles.append(a.copy())
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", recorded)
    fit_gaussian_dip(delays, block[2:3], poisson_weights)
    # the QR triangle of row 2's (weighted) Jacobian, which its fit alone
    # inverts as a stack of one for its covariance; the steps solve theirs
    ((failing,),) = triangles
    shapes = []

    def failing_on_row_2(a):
        shapes.append(a.shape)
        # a stack that holds row 2's triangle raises; with `alone_too`, so
        # does that triangle alone, which leaves it the pseudo-inverse
        if any(m.tobytes() == failing.tobytes() for m in a.reshape(-1, 4, 4)) and (
            a.ndim == 3 or alone_too
        ):
            raise np.linalg.LinAlgError("Singular matrix")
        return inv(a)

    monkeypatch.setattr(np.linalg, "inv", failing_on_row_2)
    fits = fit_gaussian_dip(delays, block, poisson_weights)
    # the stack of 4 raises, so each row's triangle is inverted alone
    assert shapes == [(4, 4, 4)] + [(4, 4)] * 4
    if alone_too:  # as row 2's fit alone, from the pseudo-inverse
        want = fit_gaussian_dip(delays, block[2:3], poisson_weights).outcomes[0]
        assert _fit_bits(want) != _fit_bits(alone[2])
        alone[2] = want
    assert [_fit_bits(o) for o in fits.outcomes] == [_fit_bits(o) for o in alone]


def test_gauss_newton_steps_are_least_squares_steps():
    rng = np.random.default_rng(11)
    for k in (1, 3, 8):
        jw, r = rng.normal(size=(k, 61, 4)), rng.normal(size=(k, 61))
        jw[:, :, 2] *= 1e3  # columns of unequal scale, still well conditioned
        steps = _gn_steps(jw, r)
        for step, a, b in zip(steps, jw, r):
            want = np.linalg.lstsq(a, -b, rcond=None)[0]
            assert np.linalg.norm(step - want) <= 1e-12 * np.linalg.norm(want)


def test_near_singular_steps_are_the_pseudo_inverses_and_no_row_sees_another():
    rng = np.random.default_rng(12)
    jw, r = rng.normal(size=(5, 61, 4)), rng.normal(size=(5, 61))
    jw[1, :, 3] = 0.0  # R singular: a zero on its diagonal
    # a condition number of about 1e15, above 1 / rcond
    u, _, vt = np.linalg.svd(jw[3], full_matrices=False)
    jw[3] = (u * [1.0, 1e-3, 1e-8, 1e-15]) @ vt
    assert np.linalg.cond(jw[3]) > 1e14
    steps = _gn_steps(jw, r)
    rcond = np.finfo(float).eps * 61
    for i in (1, 3):
        assert steps[i].tobytes() == (np.linalg.pinv(jw[i], rcond) @ -r[i]).tobytes()
    for i in range(5):
        assert steps[i].tobytes() == _gn_steps(jw[i : i + 1], r[i : i + 1])[0].tobytes()
    # the pseudo-inverse drops the singular direction: a minimum-norm step
    assert abs(steps[1][3]) <= 1e-12 * np.abs(steps[1]).max()


def test_a_block_of_no_rows_has_no_outcomes():
    delays, _ = _dip_rates(0.95, 130.0)
    assert fit_gaussian_dip(delays, np.empty((0, 61))) == ([], 0)


def test_a_block_must_match_its_delays():
    delays, rates = _dip_rates(0.95, 130.0)
    with pytest.raises(ValueError, match=r"\(runs, 61\) block, got shape \(61,\)"):
        fit_gaussian_dip(delays, rates)
    with pytest.raises(ValueError, match=r"got shape \(1, 60\)"):
        fit_gaussian_dip(delays, rates[None, :60])


def test_a_fit_that_is_not_finite_is_a_fit_error(fit_row):
    # counts near the float range overflow the sums of squares; any
    # RuntimeWarning would fail the test under the test settings.  An
    # unweighted fit's errors are worked in its units of a power of two, so
    # only its residual in counts overflows
    delays, rates = _dip_rates(0.95, 130.0)
    for poisson_weights, match in ((False, "fit is not finite: residual$"), (True, "_err")):
        with pytest.raises(FitError, match=match) as excinfo:
            fit_row(delays, 1e300 * rates, poisson_weights)
        assert type(excinfo.value) is FitError


def test_visibility_error_does_not_depend_on_a_large_count_scale(fit_row):
    # at these scales the fit takes the same steps; a power of the baseline
    # that overflowed used to drop the covariance term of the visibility
    # error from about 6e102 on
    delays, rates = _dip_rates(0.9, 130.0)
    counts = np.random.default_rng(8).poisson(rates).astype(float)
    errs = [
        fit_row(delays, scale * counts).visibility_err
        for scale in (1e100, 1e104, 1e150)
    ]
    assert errs == pytest.approx([errs[0]] * 3, rel=1e-9)


def test_an_unweighted_fit_and_its_errors_scale_with_a_power_of_two(fit_row):
    # the fit and its covariance are worked in units of a power of two near
    # the largest count, so only the count-valued fields scale, exactly, and
    # at 2**-1000 no error underflows to 0
    delays, rates = _dip_rates(0.9, 130.0)
    counts = np.random.default_rng(8).poisson(rates).astype(float)
    want = fit_row(delays, counts)
    assert want.visibility_err > 0.0
    for k in (-1000, -300, 300):
        scaled = dataclasses.replace(
            want,
            residual=np.ldexp(want.residual, 2 * k),
            **{
                f: np.ldexp(getattr(want, f), k)
                for f in ("baseline", "depth", "baseline_err", "depth_err")
            },
        )
        assert _fit_bits(fit_row(delays, np.ldexp(counts, k))) == _fit_bits(scaled)


def _result_pass(delays, block, poisson_weights, monkeypatch):
    """Fit `block` and return what the result pass took and gave: the final
    parameters (width made positive), the fitted counts and sums of squares
    in their units of 2**e, e, and the results."""
    seen = []
    fit_results = optics._fit_results

    def recorded(p, l, y, sse, n_iter, e, pw):
        seen.append((p, y, sse, e, fit_results(p, l, y, sse, n_iter, e, pw)))
        return seen[-1][-1]

    monkeypatch.setattr(optics, "_fit_results", recorded)
    fit_gaussian_dip(delays, block, poisson_weights)
    ((p, y, sse, e, results),) = seen
    return np.column_stack((p[:, :3], np.abs(p[:, 3]))), y, sse, e, results


def _errors(result) -> np.ndarray:
    return np.array([
        result.baseline_err, result.depth_err, result.center_err, result.fwhm_err,
        result.visibility_err,
    ])


def test_unweighted_fit_errors_match_an_svd_of_the_jacobian(monkeypatch):
    # visibility 1 and a dip wider than the scan: the Jacobians reach
    # condition numbers of about 1e9, where inverting J^T J lost up to every
    # digit of the errors
    delays, rates = _dip_rates(1.0, 2000.0, baseline=500.0)
    p, _, sse, e, results = _result_pass(delays, simulate_counts(rates, 0, 100), False, monkeypatch)
    u, g, _ = _dip_terms(p, delays)
    for jac, (base, depth, _, _), s2, k, result in zip(
        _dip_jac(p, u, g), p, sse / (len(delays) - 4), e, results
    ):
        # the covariance V S^-2 V^T s2; the visibility variance |S^-1 V^T g|^2 s2,
        # g = (-vis, 1, 0, 0) / base, as a sum of squares
        _, sv, vt = np.linalg.svd(jac, full_matrices=False)
        perr = np.sqrt(s2 * ((vt / sv[:, None]) ** 2).sum(axis=0))
        a = vt @ [-depth / base, 1.0, 0.0, 0.0] / sv
        want = [
            np.ldexp(perr[0], k), np.ldexp(perr[1], k), perr[2], GAUSSIAN_FWHM_FACTOR * perr[3],
            np.sqrt(s2 * (a @ a)) / base,
        ]
        assert _errors(result) == pytest.approx(want, rel=1e-6)


def test_weighted_fit_errors_are_the_sandwich_covariance(monkeypatch):
    delays, rates = _dip_rates(0.91, 137.0)
    p, y, _, _, results = _result_pass(delays, simulate_counts(rates, 1, 20), True, monkeypatch)
    u, g, model = _dip_terms(p, delays)
    for jac, m, y_row, (base, depth, _, _), result in zip(
        _dip_jac(p, u, g), np.maximum(model, 1.0), y, p, results
    ):
        bread = np.linalg.inv(jac.T @ (jac / m[:, None]))
        meat = jac.T @ (jac * ((1.0 + np.sqrt(m + 0.75)) ** 2 / m**2)[:, None])
        chi2 = np.sum((m - y_row) ** 2 / m)
        cov = bread @ meat @ bread * max(1.0, chi2 / (len(delays) - 4)) * optics.ERRORBAR_CALIBRATION**2
        perr = np.sqrt(np.diag(cov))
        grad = np.array([-depth / base**2, 1.0 / base, 0.0, 0.0])
        want = [*perr[:3], GAUSSIAN_FWHM_FACTOR * perr[3], np.sqrt(grad @ cov @ grad)]
        assert _errors(result) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("baseline", (1000.0, 50.0))
def test_a_weighted_fit_is_the_fixed_point_of_model_reweighting(baseline):
    # at the returned parameters the reweighted score J^T W (y - model),
    # W = 1 / max(model, 1), vanishes: the Poisson score equation wherever
    # the model is at least 1.  Two reweighted passes stopped short of it by
    # up to 2e-4 of the scale here at a baseline of 1000 and 2e-2 at 50
    delays, rates = _dip_rates(0.91, 137.0, baseline)
    block = simulate_counts(rates, 1, 100)
    outcomes = fit_gaussian_dip(delays, block, poisson_weights=True).outcomes
    assert all(isinstance(o, FitResult) for o in outcomes)
    for fit, y in zip(outcomes, block):
        w = fit.fwhm_um / GAUSSIAN_FWHM_FACTOR
        p = np.array([[fit.baseline, fit.depth, fit.center_um, w]])
        u, g, (model,) = _dip_terms(p, delays)
        (jac,) = _dip_jac(p, u, g)
        weights = 1.0 / np.maximum(model, 1.0)
        score = jac.T @ (weights * (y - model))
        scale = np.abs(jac).T @ (weights * np.abs(y - model))
        assert np.all(np.abs(score) <= 1e-6 * scale)


@pytest.mark.parametrize("baseline, at_least", ((3.0, 326), (5.0, 479), (10.0, 500)))
def test_low_count_weighted_fits_keep_their_yield(baseline, at_least):
    # counts of a few per point: of 500 rows (seeds 0-4), no fewer may be a
    # `FitResult` than the fit gives with its seed pass handed over at
    # `FIT_SEED_TOL` and the delay-spacing rule
    delays, rates = _dip_rates(1.0, 132.0, baseline)
    fitted = sum(
        isinstance(o, FitResult)
        for seed in range(5)
        for o in fit_gaussian_dip(delays, simulate_counts(rates, seed, 100), True).outcomes
    )
    assert fitted >= at_least


#: each fitted value of a `FitResult` and its quoted 1-sigma error
_QUOTED = (
    ("baseline", "baseline_err"), ("depth", "depth_err"), ("center_um", "center_err"),
    ("fwhm_um", "fwhm_err"), ("visibility", "visibility_err"),
)


@pytest.mark.parametrize("baseline", (3.0, 5.0, 10.0))
def test_the_seed_pass_hands_over_early_at_no_cost(baseline, monkeypatch):
    # the reweighted pass ends at a fixed point that does not depend on
    # where it starts: a seed pass that runs on to FIT_STEP_TOL, as the
    # reference, loses no fit to the early hand-over and moves none by as
    # much as 1e-6 of its quoted error, in more iterations
    delays, rates = _dip_rates(1.0, 132.0, baseline)
    blocks = [simulate_counts(rates, seed, 100) for seed in range(5)]
    with monkeypatch.context() as m:
        m.setattr(optics, "FIT_SEED_TOL", optics.FIT_STEP_TOL)
        references = [fit_gaussian_dip(delays, block, True) for block in blocks]
    for block, reference in zip(blocks, references):
        fits = fit_gaussian_dip(delays, block, True)
        assert fits.n_iter < reference.n_iter
        for got, want in zip(fits.outcomes, reference.outcomes):
            if isinstance(want, FitResult):
                assert isinstance(got, FitResult)
                for value, err in _QUOTED:
                    moved = abs(getattr(got, value) - getattr(want, value))
                    assert moved < 1e-6 * getattr(want, err)


def test_a_resample_whose_fit_is_not_finite_is_left_out(fit_row):
    delays, rates = _dip_rates(0.95, 130.0)
    block = simulate_counts(rates, 5, 20).astype(float)
    block[7] *= 1e300
    fits = fit_gaussian_dip(delays, block, poisson_weights=True)

    ((mean, _), _), failed = monte_carlo_errorbars(fits.outcomes)
    kept = [fit_row(delays, row, True).visibility for i, row in enumerate(block) if i != 7]
    assert failed == 1
    assert mean == float(np.mean(kept))


def test_a_counting_noise_fit_wider_than_the_scan_resolves_no_dip(fit_row):
    # the count table of `hom --fwhm-um 2000 --noisy --seed 3`
    delays, rates = _dip_rates(1.0, 2000.0)
    counts = simulate_counts(rates, 3, 1)[0]
    with pytest.raises(NoDipError) as excinfo:
        fit_row(delays, counts, poisson_weights=True)
    assert str(excinfo.value) == (
        "fitted FWHM 1392 um and baseline 500.85 resolve no dip over a 600 um scan"
    )
    # an unweighted fit is reported as it converged
    assert isinstance(fit_row(delays, counts), FitResult)


@pytest.mark.parametrize("poisson_weights", (False, True))
def test_a_fit_narrower_than_the_delay_spacing_resolves_no_dip(poisson_weights, fit_row):
    # one low point on a flat 1000-count scan converges to a spike a few um
    # wide between 10 um steps; listing every delay twice adds zero gaps,
    # which are not a spacing
    delays = np.linspace(-300.0, 300.0, 61)
    counts = np.full(61, 1000.0)
    counts[30] = 10.0
    for d, y in ((delays, counts), (np.tile(delays, 2), np.tile(counts, 2))):
        with pytest.raises(NoDipError, match=r"narrower than the 10 um delay spacing"):
            fit_row(d, y, poisson_weights)


def test_iteration_cap_ends_a_row_with_its_residual(monkeypatch):
    monkeypatch.setattr(optics, "FIT_MAX_ITER", 1)
    delays, rates = _dip_rates(0.95, 130.0)
    counts = np.random.default_rng(3).poisson(rates)
    fits = fit_gaussian_dip(delays, [counts])
    (error,) = fits.outcomes
    assert isinstance(error, FitConvergenceError)
    # the residual in counts, the one a result at the cap would hold
    assert str(error) == "no convergence after 1 iterations (best residual 24872.4)"
    assert not hasattr(error, "best")
    assert fits.n_iter == 1


@pytest.mark.parametrize("poisson_weights, max_iter", ((True, optics.FIT_MAX_ITER), (False, 3)))
def test_no_capped_row_reaches_the_result_pass(poisson_weights, max_iter, monkeypatch):
    # the block `hom --noisy --baseline 4 --seed 1` fits: weighted, some of
    # its rows run to the cap; unweighted, a cap of 3 stops most of them
    monkeypatch.setattr(optics, "FIT_MAX_ITER", max_iter)
    delays, rates = _dip_rates(1.0, 132.0, baseline=4.0)
    block = simulate_counts(rates, 1, 100).astype(float)
    seen = []
    fit_results = optics._fit_results

    def recorded(p, l, y, sse, n_iter, e, pw):
        # the rows' counts, in delay order, which is the block's
        seen.append(np.ldexp(y, e[:, None]))
        return fit_results(p, l, y, sse, n_iter, e, pw)

    monkeypatch.setattr(optics, "_fit_results", recorded)
    outcomes = fit_gaussian_dip(delays, block, poisson_weights).outcomes
    (passed,) = seen
    row_of = {row.tobytes(): i for i, row in enumerate(block)}
    assert len(row_of) == len(block)  # no two rows are alike
    capped = {i for i, o in enumerate(outcomes) if isinstance(o, FitConvergenceError)}
    assert capped and len(passed)
    assert capped.isdisjoint(row_of[row.tobytes()] for row in passed)


#: SHA-256 over every outcome of the low-count grid below, in order: a
#: `FitResult`'s fields as float bytes, an error's type and message.  Its
#: rows hand over from the seed pass at different rounds, some run to the
#: iteration cap and some end under the scan rule, so a change to the
#: lockstep round that moves any row's bits, or its outcome, shows here.
#: Taken on Python 3.11.7 with numpy 2.4.6, as are its 36,746 iterations;
#: another numpy's LAPACK may move the last bits
LOW_COUNT_GRID_FITS_SHA256 = "ae5468c14e69c8c23f485f356661513e64782c0a84c06ac106a652ef09ccc0dc"


def test_low_count_grid_fits_keep_their_bits():
    digest, n_iter = hashlib.sha256(), 0
    for baseline in (4.0, 10.0, 1000.0):
        delays, rates = _dip_rates(0.91, 137.0, baseline)
        for seed in (0, 1):
            for poisson_weights in (True, False):
                fits = fit_gaussian_dip(delays, simulate_counts(rates, seed, 100), poisson_weights)
                n_iter += fits.n_iter
                for o in fits.outcomes:
                    if isinstance(o, FitError):
                        digest.update(f"{type(o).__name__}: {o}".encode())
                    else:
                        digest.update(_fit_bits(o))
    assert n_iter == 36746
    assert digest.hexdigest() == LOW_COUNT_GRID_FITS_SHA256


def test_noised_width_recovery_rate(fit_row):
    # Poisson noise at the usual count scale: the width lands within 5% of
    # truth essentially always; demand it in at least 95 of 100 trials
    delays, rates = _dip_rates(0.99, 132.0)
    good = 0
    for s in range(100):
        counts = np.random.default_rng([77, s]).poisson(rates)
        fit = fit_row(delays, counts, poisson_weights=True)
        good += abs(fit.fwhm_um - 132.0) / 132.0 <= 0.05
    assert good >= 95


def test_fit_agrees_with_reference_optimizer(fit_row):
    # same unweighted least-squares problem handed to an independent solver
    delays, rates = _dip_rates(0.9, 140.0)
    counts = np.random.default_rng(8).poisson(rates).astype(float)
    fit = fit_row(delays, counts)

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
    block = np.array([rng.poisson(rates) for _ in range(runs)])  # the draws in order
    for fit in fit_gaussian_dip(delays, block, poisson_weights=True).outcomes:
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
    return SpinDensityMatrix(m)


def test_concurrence_estimator_is_unbiased_within_its_spread():
    rho = _middle_block_state(0.25)  # maximally entangled after normalization
    counts = simulate_counts(xstate_rates(rho, 1000.0), 11, 100)
    draws = xstate_concurrence(counts)
    assert draws.shape == (100,)
    assert abs(draws.mean() - 1.0) <= draws.std(ddof=1)
    assert draws.std(ddof=1) < 0.1  # at 1000 shots this is a tight channel


def test_no_coincidences_means_no_entanglement_evidence():
    rho = _middle_block_state(0.25)
    counts = simulate_counts(xstate_rates(rho, 1e-4), 4, 1)
    assert counts[0, :2].tolist() == [0, 0]
    assert xstate_concurrence(counts).tolist() == [0.0]
    assert xstate_concurrence(np.array([[0, 0, 3, 1]])).tolist() == [0.0]


def test_channel_rates_of_the_middle_block():
    # populations 0.25 and 0.25, coherence 0.1: plus/minus channels 0.35/0.15
    rates = xstate_rates(_middle_block_state(0.1), 100.0)
    assert rates == pytest.approx([25.0, 25.0, 35.0, 15.0], abs=1e-12)
    assert xstate_concurrence(np.array([[25, 25, 35, 15]])) == pytest.approx([0.4])


def test_estimator_rejects_complex_coherence():
    rho = _middle_block_state(0.25j)
    with pytest.raises(ValueError, match="real coherence"):
        xstate_rates(rho, 10.0)


# --- Monte Carlo error bars ------------------------------------------------------


def _a_fit(visibility: float, fwhm_um: float) -> FitResult:
    """A real `FitResult` that reads `visibility` and `fwhm_um`."""
    delays, rates = _dip_rates(0.95, 130.0)
    (fit,), _ = fit_gaussian_dip(delays, rates[None])
    return dataclasses.replace(fit, visibility=visibility, fwhm_um=fwhm_um)


def test_constant_estimator_has_zero_spread():
    outcomes = [_a_fit(0.75, 132.0)] * 20
    assert monte_carlo_errorbars(outcomes) == (((0.75, 0.0), (132.0, 0.0)), 0)


def test_poisson_spread_matches_the_analytic_width():
    counts = simulate_counts(np.array([100.0]), 5, 100)[:, 0]
    mean, std = float(np.mean(counts)), float(np.std(counts, ddof=1))
    assert abs(std - 10.0) / 10.0 <= 0.2  # sqrt(100), within 20%
    assert abs(mean - 100.0) <= 3.0


def _outcomes_failing_on(bad_runs):
    """20 per-run outcomes: run k reads visibility k and FWHM 100 + k, or
    is a `NoDipError` for `bad_runs`."""
    return [
        NoDipError("no dip detected") if v in bad_runs else _a_fit(float(v), 100.0 + v)
        for v in range(20)
    ]


def test_failed_fits_are_left_out_and_counted():
    ((vis_mean, vis_std), (fwhm_mean, fwhm_std)), failed = monte_carlo_errorbars(
        _outcomes_failing_on({3, 11})
    )
    kept = [float(v) for v in range(20) if v not in (3, 11)]
    assert failed == 2
    assert vis_mean == float(np.mean(kept))
    assert vis_std == float(np.std(kept, ddof=1))
    assert fwhm_mean == float(np.mean([100.0 + v for v in kept]))
    assert fwhm_std == float(np.std([100.0 + v for v in kept], ddof=1))


def test_too_many_failed_fits_abort_with_the_count_and_the_first_failure():
    with pytest.raises(EstimatorError) as excinfo:
        monte_carlo_errorbars(_outcomes_failing_on({4, 9, 15}))
    assert str(excinfo.value) == (
        "3 of 20 resample fits failed, more than 10%; first on run 4: no dip detected"
    )


def test_needs_at_least_two_runs():
    with pytest.raises(ValueError, match="2 runs"):
        monte_carlo_errorbars([_a_fit(0.75, 132.0)])
