"""Density matrix, concurrence (general and closed form), and the
occupation-weighted entanglement average."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoboson.core_state import (
    ATOL_EXACT,
    ATOL_PIPELINE,
    BasisMismatchError,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    SpinDensityMatrix,
    ValidationError,
)
from twoboson.entanglement import (
    NoPostSelectionSupportError,
    NotPostSelectedError,
    NumberDistribution,
    concurrence_closed_form,
    entanglement_of_particles,
    number_distribution,
    trace_out_distinguishability,
    wootters_concurrence,
)
from twoboson.fq_oracle import oracle_postselected_density, symmetrize
from twoboson.nolabel_algebra import (
    SpinConfigError,
    SymmetricTwoBosonState,
    expand_in_detector_basis,
    postselect_one_per_detector,
)
from twoboson.optics import (
    OVERLAP_CONVENTIONS,
    dist_vectors_for_overlap,
    gaussian_overlap,
    spatial_amplitudes_from_theta,
)
from twoboson.verification import random_states, random_updown_pairs

RT2 = math.sqrt(0.5)

BELL = np.zeros((4, 4), dtype=complex)
_v = np.array([0.0, 1.0, 1.0, 0.0]) / math.sqrt(2.0)
BELL[:] = np.outer(_v, _v)


def _pipeline_rho(theta_deg, overlap):
    alphas, betas = spatial_amplitudes_from_theta(theta_deg)
    da, db = dist_vectors_for_overlap(overlap)
    kept = postselect_one_per_detector(
        expand_in_detector_basis(
            SingleParticleState(alphas, Spin.UP, da),
            SingleParticleState(betas, Spin.DOWN, db),
        )
    )
    return trace_out_distinguishability(kept)


# --- distinguishability trace ------------------------------------------------


def test_trace_at_maximal_point_is_half_a_bell_projector():
    rho = _pipeline_rho(22.5, 1.0)
    expected = np.zeros((4, 4), dtype=complex)
    expected[1:3, 1:3] = 0.25
    assert np.allclose(rho.matrix, expected, atol=ATOL_EXACT)
    assert rho.weight == pytest.approx(0.5, abs=ATOL_EXACT)


def test_trace_with_orthogonal_dist_vectors_is_diagonal():
    rho = _pipeline_rho(10.0, 0.0)
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.allclose(off, 0.0, atol=ATOL_EXACT)


def test_trace_matches_oracle_on_random_draws():
    rng = np.random.default_rng(51)
    for d in (1, 2, 3):
        for _ in range(25):
            pa, pb = random_updown_pairs(rng, [d])[0]
            rho = trace_out_distinguishability(
                postselect_one_per_detector(expand_in_detector_basis(pa, pb))
            )
            oracle = oracle_postselected_density(symmetrize(pa, pb))
            assert np.allclose(rho.matrix, oracle.matrix, atol=1e-12)
            assert rho.weight == pytest.approx(oracle.weight, abs=1e-12)


def test_trace_rejects_double_occupancy_terms():
    rng = np.random.default_rng(52)
    pa, pb = random_updown_pairs(rng, [2])[0]
    with pytest.raises(NotPostSelectedError, match="post"):
        trace_out_distinguishability(expand_in_detector_basis(pa, pb))


def test_trace_of_empty_state_is_zero():
    rho = trace_out_distinguishability(SymmetricTwoBosonState(()))
    assert rho.weight == 0.0
    assert np.allclose(rho.matrix, 0.0)


def _dense_reference_pairs():
    """(up, down) pairs that reach the trace by every route: random draws at
    d = 1, 2, 3; states with exact-zero (and negative-zero) amplitudes; one
    whose two particles share one dist vector object, one
    whose two equal dist vectors are distinct objects; and the sweep family
    at angles -10 to 100 deg and negative delays under every convention,
    each delay's dist vectors shared by every angle, as `sweep` shares
    them."""
    rng = np.random.default_rng(24)
    pairs = random_updown_pairs(rng, [1 + k % 3 for k in range(60)])
    shared = DistVector((1.0, 0j))
    for a, b in (
        ((1.0, 0.0), (0.0, 1.0)),
        ((0.0, 1.0), (1.0, -0.0)),
        ((RT2, RT2), (complex(-0.0, RT2), RT2)),
        ((1.0, 0.0), (RT2, -RT2)),
    ):
        for da, db in (
            (shared, shared),
            (DistVector((1.0, 0j)), DistVector((0j, 1.0))),
            (DistVector((RT2, -0.0, RT2)), DistVector((0.0, 1j, -0.0))),
            (DistVector((RT2, RT2 * 1j)), DistVector((RT2, RT2 * 1j))),
        ):
            pairs.append(
                (
                    SingleParticleState(SpatialAmplitudes(*a), Spin.UP, da),
                    SingleParticleState(SpatialAmplitudes(*b), Spin.DOWN, db),
                )
            )
    for convention in OVERLAP_CONVENTIONS:
        phis = [
            dist_vectors_for_overlap(gaussian_overlap(delay, convention, 59.45))
            for delay in (-300.0, -70.0, -1e-3, 0.0, 42.0)
        ]
        for theta in np.linspace(-10.0, 100.0, 12):
            alphas, betas = spatial_amplitudes_from_theta(float(theta))
            for da, db in phis:
                pairs.append(
                    (
                        SingleParticleState(alphas, Spin.UP, da),
                        SingleParticleState(betas, Spin.DOWN, db),
                    )
                )
    return pairs


def test_number_distribution_matches_the_dense_reference_bit_for_bit(
    dense_trace, composed_distribution
):
    for pa, pb in _dense_reference_pairs():
        nd = number_distribution(pa, pb)
        reference = dense_trace(postselect_one_per_detector(expand_in_detector_basis(pa, pb)))
        assert nd.state.matrix.tobytes() == reference.matrix.tobytes()
        assert _bits([nd.state.weight]) == _bits([float(np.trace(reference.matrix).real)])
        # the direct pass against the composed expand -> postselect -> trace
        composed = composed_distribution(pa, pb)
        assert nd.state.matrix.tobytes() == composed.state.matrix.tobytes()
        assert _bits([nd.state.weight]) == _bits([composed.state.weight])
        assert list(nd.probabilities) == list(composed.probabilities)
        assert _bits(list(nd.probabilities.values())) == _bits(
            list(composed.probabilities.values())
        )


_SPIN_REFUSAL = "detector-basis expansion is defined for the (up, down) spin configuration, got "


@pytest.mark.parametrize(
    "spins, dims, error, message",
    [
        ((Spin.UP, Spin.UP), (1, 1), SpinConfigError, _SPIN_REFUSAL + "(up, up)"),
        ((Spin.DOWN, Spin.UP), (1, 1), SpinConfigError, _SPIN_REFUSAL + "(down, up)"),
        (
            (Spin.UP, Spin.DOWN), (2, 3), BasisMismatchError,
            "incompatible distinguishability bases: dimension 2 vs 3",
        ),
    ],
    ids=["up-up", "down-up", "dims-2-3"],
)
def test_number_distribution_refuses_what_the_expansion_refuses(spins, dims, error, message):
    pa = SingleParticleState(SpatialAmplitudes(RT2, RT2), spins[0], DistVector((1.0,) * dims[0]))
    pb = SingleParticleState(SpatialAmplitudes(RT2, -RT2), spins[1], DistVector((1.0,) * dims[1]))
    with pytest.raises(error) as direct:
        number_distribution(pa, pb)
    with pytest.raises(error) as composed:
        expand_in_detector_basis(pa, pb)
    assert str(direct.value) == str(composed.value) == message


# --- Wootters concurrence ----------------------------------------------------


def test_bell_state_has_unit_concurrence():
    assert wootters_concurrence([SpinDensityMatrix(BELL)], normalize=True)[0] == pytest.approx(
        1.0, abs=ATOL_EXACT
    )


def test_maximally_mixed_state_is_separable():
    rho = SpinDensityMatrix(np.eye(4, dtype=complex) / 4.0)
    assert wootters_concurrence([rho], normalize=True)[0] == pytest.approx(0.0, abs=ATOL_EXACT)


def _brute_force_concurrence(m: np.ndarray) -> float:
    # independent route: eigenvalues of the non-Hermitian product rho.rho~
    sy = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    flip = np.kron(sy, sy)
    tilde = flip @ m.conj() @ flip
    lams = np.sort(np.sqrt(np.clip(np.linalg.eigvals(m @ tilde).real, 0.0, None)))
    return float(max(0.0, lams[-1] - lams[-2] - lams[-3] - lams[-4]))


def test_werner_state_concurrence_against_brute_force():
    for p in (0.2, 1.0 / 3.0, 0.5, 0.8, 1.0):
        m = p * BELL + (1.0 - p) * np.eye(4, dtype=complex) / 4.0
        (got,) = wootters_concurrence([SpinDensityMatrix(m)], normalize=True)
        assert got == pytest.approx(_brute_force_concurrence(m), abs=1e-10)
        assert got == pytest.approx(max(0.0, (3.0 * p - 1.0) / 2.0), abs=1e-10)


def test_werner_half_is_a_quarter():
    m = 0.5 * BELL + 0.5 * np.eye(4, dtype=complex) / 4.0
    assert wootters_concurrence([SpinDensityMatrix(m)], normalize=True)[0] == pytest.approx(
        0.25, abs=1e-12
    )


def test_unnormalized_concurrence_scales_with_the_trace():
    rng = np.random.default_rng(53)
    rho = _pipeline_rho(float(rng.uniform(5.0, 40.0)), 0.8)
    (raw,) = wootters_concurrence([rho])
    (scaled,) = wootters_concurrence([SpinDensityMatrix(3.0 * rho.matrix)])
    assert scaled == pytest.approx(3.0 * raw, abs=1e-12)


def test_zero_weight_normalization_is_an_error():
    rho = SpinDensityMatrix(np.zeros((4, 4), dtype=complex))
    with pytest.raises(NoPostSelectionSupportError, match="no post-selection support"):
        wootters_concurrence([rho], normalize=True)
    assert wootters_concurrence([rho])[0] == 0.0  # raw reading stays defined


# --- closed form --------------------------------------------------------------


def test_closed_form_balanced_fully_indistinguishable_is_one():
    amps = SpatialAmplitudes(RT2, RT2)
    assert concurrence_closed_form(amps, amps, 1.0) == pytest.approx(1.0, abs=ATOL_EXACT)


def test_closed_form_vanishes_with_the_overlap():
    rng = np.random.default_rng(54)
    for _ in range(10):
        a, b = (s.spatial for s in random_states(rng, [2, 2]))
        assert concurrence_closed_form(a, b, 0.0) == 0.0


def test_closed_form_theta_section():
    alphas, betas = spatial_amplitudes_from_theta(11.25)
    assert concurrence_closed_form(alphas, betas, 1.0) == pytest.approx(0.5, abs=ATOL_EXACT)


def test_closed_form_rejects_overlarge_overlap():
    amps = SpatialAmplitudes(RT2, RT2)
    with pytest.raises(ValueError, match="exceeds 1"):
        concurrence_closed_form(amps, amps, 1.0 + 1e-6)


@given(
    theta=st.floats(min_value=0.0, max_value=45.0),
    ov=st.floats(min_value=0.0, max_value=1.0),
    phase=st.floats(min_value=0.0, max_value=2.0 * math.pi),
)
def test_closed_form_is_twice_the_raw_wootters_value(theta, ov, phase):
    overlap = ov * complex(math.cos(phase), math.sin(phase))
    rho = _pipeline_rho(theta, overlap)
    alphas, betas = spatial_amplitudes_from_theta(theta)
    closed = concurrence_closed_form(alphas, betas, overlap)
    assert closed == pytest.approx(2.0 * wootters_concurrence([rho])[0], abs=ATOL_PIPELINE)


@given(ov=st.floats(min_value=0.0, max_value=1.0))
def test_normalized_wootters_on_the_balanced_manifold(ov):
    rho = _pipeline_rho(22.5, ov)
    assert wootters_concurrence([rho], normalize=True)[0] == pytest.approx(
        ov**2, abs=ATOL_PIPELINE
    )


def _near_pure_overlaps(seed, n=200):
    """Overlaps with 1 - |overlap| log-uniform in [1e-16, 1e-1] and random
    phases, plus the 1 - |overlap| = 1e-7 point where a cut spectrum errs most."""
    rng = np.random.default_rng(seed)
    mags = np.concatenate(([1.0 - 1e-7], 1.0 - 10.0 ** rng.uniform(-16.0, -1.0, n)))
    return mags * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, n + 1))


def test_normalized_wootters_near_pure_states_on_the_balanced_manifold():
    for ov in _near_pure_overlaps(31):
        rho = _pipeline_rho(22.5, ov)
        assert wootters_concurrence([rho], normalize=True)[0] == pytest.approx(
            abs(ov) ** 2, abs=ATOL_PIPELINE
        )


def test_normalized_wootters_near_pure_states_off_the_manifold():
    # the (1,1) matrix is an X state with empty corners, so its concurrence
    # is 2 |rho_12| / (rho_11 + rho_22) (Yu & Eberly, QIC 7, 459, 2007)
    thetas = np.random.default_rng(32).uniform(0.0, 45.0, 201)
    for theta, ov in zip(thetas, _near_pure_overlaps(33)):
        rho = _pipeline_rho(float(theta), ov)
        m = rho.matrix
        x_state = 2.0 * abs(m[1, 2]) / (m[1, 1].real + m[2, 2].real)
        assert wootters_concurrence([rho], normalize=True)[0] == pytest.approx(
            x_state, abs=ATOL_PIPELINE
        )


def _bits(values) -> bytes:
    return np.asarray(values, dtype=float).tobytes()


def _stack_densities():
    """Pipeline matrices of random (up, down) pairs, random full-rank
    densities of varied trace, and near-pure matrices on and off the
    balanced manifold."""
    rng = np.random.default_rng(57)
    rhos = []
    for k in range(60):
        expansion = expand_in_detector_basis(*random_updown_pairs(rng, [1 + k % 3])[0])
        rhos.append(trace_out_distinguishability(postselect_one_per_detector(expansion)))
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rhos.append(SpinDensityMatrix(rng.uniform(0.1, 3.0) * a @ a.conj().T))
    thetas = np.concatenate((np.full(101, 22.5), rng.uniform(0.0, 45.0, 101)))
    overlaps = np.concatenate((_near_pure_overlaps(34, 100), _near_pure_overlaps(35, 100)))
    rhos += [_pipeline_rho(float(theta), ov) for theta, ov in zip(thetas, overlaps)]
    return rhos


@pytest.mark.parametrize("normalize", (False, True))
def test_stacked_wootters_is_the_single_state_call_bit_for_bit(normalize):
    rhos = _stack_densities()
    stacked = wootters_concurrence(rhos, normalize=normalize)
    assert stacked.shape == (len(rhos),)
    singles = [wootters_concurrence([rho], normalize=normalize) for rho in rhos]
    assert all(c.shape == (1,) and c.dtype == np.float64 for c in singles)
    assert _bits(stacked) == _bits(np.concatenate(singles))


@pytest.mark.parametrize("normalize", (False, True))
def test_a_stack_of_one_is_the_single_state_call(normalize):
    rhos = _stack_densities()
    stacked = wootters_concurrence(rhos, normalize=normalize)
    for k in range(0, len(rhos), 23):
        alone = wootters_concurrence([rhos[k]], normalize=normalize)
        assert alone.shape == (1,)
        assert _bits(alone) == _bits(stacked[k : k + 1])


def test_a_zero_weight_member_fails_the_normalized_stack():
    zero = SpinDensityMatrix(np.zeros((4, 4), dtype=complex))
    rhos = [SpinDensityMatrix(BELL), zero, SpinDensityMatrix(np.eye(4) / 4.0)]
    with pytest.raises(NoPostSelectionSupportError, match="no post-selection support"):
        wootters_concurrence(rhos, normalize=True)
    # the raw reading stays defined
    assert wootters_concurrence(rhos) == pytest.approx([1.0, 0.0, 0.0], abs=ATOL_EXACT)


@pytest.mark.parametrize("normalize", (False, True))
@pytest.mark.parametrize("entry", ((1, 2), (1, 1)), ids=("off-diagonal", "diagonal"))
def test_a_non_finite_entry_is_refused_raw_and_normalized(entry, normalize):
    # off the diagonal a nan used to read 0.0; on it, a zero-weight error
    # (normalized) or an SVD that did not converge (raw)
    m = np.eye(4, dtype=complex) / 4.0
    m[entry] = np.nan
    i, j = entry
    with pytest.raises(ValidationError, match=rf"matrix 0 has a non-finite entry .* at \[{i}, {j}\]"):
        wootters_concurrence([SpinDensityMatrix(m)], normalize=normalize)


def test_a_non_finite_member_fails_the_stack_by_its_index():
    m = np.eye(4, dtype=complex) / 4.0
    m[3, 0] = np.inf
    rhos = [SpinDensityMatrix(BELL), SpinDensityMatrix(m)]
    with pytest.raises(ValidationError, match=r"matrix 1 has a non-finite entry .* at \[3, 0\]"):
        wootters_concurrence(rhos)


def _e_p(nd):
    """E_P of one distribution, from its own stack-of-one concurrence."""
    return entanglement_of_particles([nd], wootters_concurrence([nd.state], normalize=True))


def test_stacked_entanglement_of_particles_is_the_single_call_bit_for_bit():
    rng = np.random.default_rng(58)
    pairs = random_updown_pairs(rng, [1 + k % 3 for k in range(40)])
    nds = [number_distribution(*pair) for pair in pairs]
    bunched = NumberDistribution(
        {(2, 0): 0.5, (1, 1): 0.0, (0, 2): 0.5}, SpinDensityMatrix(np.zeros((4, 4)))
    )
    singles = [_e_p(nd) for nd in nds] + [entanglement_of_particles([bunched], [0.0])]
    # stacked concurrences give the same bits as each sector's own
    concurrence = wootters_concurrence([nd.state for nd in nds], normalize=True)
    stacked = entanglement_of_particles(nds + [bunched], np.append(concurrence, 0.0))
    assert _bits(stacked) == _bits(np.concatenate(singles))
    assert _bits(entanglement_of_particles(nds, concurrence)) == _bits(stacked[:-1])


#: the cells of a 4x4 matrix outside the middle block of |L-up,R-down> and
#: |L-down,R-up>, as flat indices
_OUTSIDE_MIDDLE_BLOCK = [k for k in range(16) if not (k // 4 in (1, 2) and k % 4 in (1, 2))]


def test_the_x_state_read_is_the_wootters_concurrence_on_generic_pairs():
    # 10^4 generic (up, down) pairs, their dist vectors of dimension 1 to 3
    # with complex overlaps: every (1,1) matrix is an X-state with empty
    # corners, whose read equals the eigen route's normalized concurrence
    rng = np.random.default_rng(59)
    pairs = random_updown_pairs(rng, [1 + k % 3 for k in range(10_000)])
    nds = [number_distribution(*pair) for pair in pairs]
    for nd in nds:
        cells = nd.state.matrix.ravel()
        assert not cells[_OUTSIDE_MIDDLE_BLOCK].any()
        assert nd.coherence == cells[6]
    read = np.array([nd.concurrence for nd in nds])
    reference = wootters_concurrence([nd.state for nd in nds], normalize=True)
    assert np.max(np.abs(read - reference)) <= ATOL_EXACT
    assert np.all((read >= 0.0) & (read <= 1.0 + ATOL_EXACT))


def test_the_x_state_read_refuses_a_zero_weight_as_the_eigen_route_does():
    # both particles leave by L: the (1,1) sector has no weight
    da, db = dist_vectors_for_overlap(0.5)
    nd = number_distribution(
        SingleParticleState(SpatialAmplitudes(1.0, 0.0), Spin.UP, da),
        SingleParticleState(SpatialAmplitudes(1.0, 0.0), Spin.DOWN, db),
    )
    assert nd.state.weight == 0.0 and nd.probabilities[(1, 1)] == 0.0
    with pytest.raises(NoPostSelectionSupportError, match="weight = 0"):
        nd.concurrence
    with pytest.raises(NoPostSelectionSupportError, match="weight = 0"):
        wootters_concurrence([nd.state], normalize=True)


def test_the_x_state_read_refuses_an_overflowed_cell_as_the_eigen_route_does():
    # finite amplitudes whose products overflow leave nan cells and a nan
    # weight, which must not read as a weight of 0
    da, db = dist_vectors_for_overlap(0.5)
    nd = number_distribution(
        SingleParticleState(SpatialAmplitudes(1e200, 1e200), Spin.UP, da),
        SingleParticleState(SpatialAmplitudes(1e200, 1e200), Spin.DOWN, db),
    )
    with pytest.raises(ValidationError, match="non-finite"):
        nd.concurrence
    with pytest.raises(ValidationError, match="non-finite"):
        wootters_concurrence([nd.state], normalize=True)


def test_entanglement_of_particles_refuses_nan_probabilities():
    # the overflowed pair above has nan sector probabilities, which must not
    # read as an E_P of 0
    da, db = dist_vectors_for_overlap(0.5)
    nd = number_distribution(
        SingleParticleState(SpatialAmplitudes(1e200, 1e200), Spin.UP, da),
        SingleParticleState(SpatialAmplitudes(1e200, 1e200), Spin.DOWN, db),
    )
    assert all(math.isnan(p) for p in nd.probabilities.values())
    with pytest.raises(ValueError, match="sum to nan, not 1"):
        entanglement_of_particles([nd], [0.5])
    nan_sector = {(2, 0): math.nan, (1, 1): 1.0, (0, 2): 0.0}
    with pytest.raises(ValueError, match="sum to nan"):
        entanglement_of_particles([NumberDistribution(nan_sector, SpinDensityMatrix(BELL))], [1.0])


def test_a_distribution_built_from_a_matrix_alone_has_no_x_state_read():
    nd = NumberDistribution({(2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0}, SpinDensityMatrix(BELL))
    assert nd.coherence is None
    with pytest.raises(ValueError, match="wootters_concurrence"):
        nd.concurrence


def test_stacked_entanglement_of_particles_checks_every_distribution():
    good = NumberDistribution({(2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0}, SpinDensityMatrix(BELL))
    bad = NumberDistribution({(2, 0): 0.5, (1, 1): 0.2, (0, 2): 0.5}, SpinDensityMatrix(BELL))
    with pytest.raises(ValueError, match="sum"):
        entanglement_of_particles([good, bad, good], [1.0, 1.0, 1.0])


def test_closed_form_monotonicity():
    overlaps = np.linspace(0.0, 1.0, 21)
    thetas = np.linspace(0.0, 22.5, 16)  # sin^2(4 theta) increasing on this range
    alphas, betas = spatial_amplitudes_from_theta(17.0)
    values = [concurrence_closed_form(alphas, betas, ov) for ov in overlaps]
    assert all(b >= a for a, b in zip(values, values[1:]))
    values = [
        concurrence_closed_form(*spatial_amplitudes_from_theta(t), 0.9) for t in thetas
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


# --- occupation-weighted average ----------------------------------------------


def test_number_distribution_at_the_balanced_point():
    alphas, betas = spatial_amplitudes_from_theta(22.5)
    da, db = dist_vectors_for_overlap(1.0)
    nd = number_distribution(
        SingleParticleState(alphas, Spin.UP, da),
        SingleParticleState(betas, Spin.DOWN, db),
    )
    probs = nd.probabilities
    assert probs[(2, 0)] == pytest.approx(0.25, abs=ATOL_EXACT)
    assert probs[(1, 1)] == pytest.approx(0.50, abs=ATOL_EXACT)
    assert probs[(0, 2)] == pytest.approx(0.25, abs=ATOL_EXACT)
    assert _e_p(nd)[0] == pytest.approx(0.5, abs=ATOL_PIPELINE)


def test_pure_coincidence_bell_branch_gives_one():
    nd = NumberDistribution(
        {(2, 0): 0.0, (1, 1): 1.0, (0, 2): 0.0}, SpinDensityMatrix(BELL)
    )
    assert _e_p(nd)[0] == pytest.approx(1.0, abs=ATOL_EXACT)


def test_pure_bunching_gives_zero():
    nd = NumberDistribution(
        {(2, 0): 0.5, (1, 1): 0.0, (0, 2): 0.5},
        SpinDensityMatrix(np.zeros((4, 4), dtype=complex)),
    )
    # the sector without weight reads 0 whatever concurrence is passed
    assert entanglement_of_particles([nd], wootters_concurrence([nd.state]))[0] == 0.0
    assert entanglement_of_particles([nd], [1.0])[0] == 0.0
    with pytest.raises(NoPostSelectionSupportError):
        wootters_concurrence([nd.state], normalize=True)


def test_branch_probabilities_must_sum_to_one():
    nd = NumberDistribution(
        {(2, 0): 0.5, (1, 1): 0.2, (0, 2): 0.5}, SpinDensityMatrix(BELL)
    )
    with pytest.raises(ValueError, match="sum"):
        _e_p(nd)


def test_occupation_average_is_zero_for_distinguishable_particles():
    rng = np.random.default_rng(55)
    alphas, betas = spatial_amplitudes_from_theta(float(rng.uniform(1.0, 44.0)))
    da, db = dist_vectors_for_overlap(0.0)
    nd = number_distribution(
        SingleParticleState(alphas, Spin.UP, da),
        SingleParticleState(betas, Spin.DOWN, db),
    )
    assert _e_p(nd)[0] == pytest.approx(0.0, abs=ATOL_PIPELINE)


def test_probabilities_are_plain_floats():
    # keeps downstream JSON serialization honest
    rng = np.random.default_rng(56)
    pa, pb = random_updown_pairs(rng, [2])[0]
    nd = number_distribution(pa, pb)
    assert all(type(p) is float for p in nd.probabilities.values())
    assert all(type(e) is float for e in _e_p(nd).tolist())
