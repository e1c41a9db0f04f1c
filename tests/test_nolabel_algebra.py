"""Unordered-ket calculus cross-checked against the labeled-tensor oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoboson.core_state import (
    ATOL_EXACT,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    inner_single,
)
from twoboson.fq_oracle import labeled_inner, symmetrize, to_labeled
from twoboson.nolabel_algebra import (
    SpinConfigError,
    NotDetectorBasisError,
    contract_residual,
    expand_in_detector_basis,
    postselect_one_per_detector,
    project_single,
    symmetric_state,
    transition_two,
)
from twoboson.optics import dist_vectors_for_overlap, spatial_amplitudes_from_theta
from twoboson.verification import random_state, random_updown_pair

RT2 = math.sqrt(0.5)


def _state(a_l, a_r, spin, dist_amps):
    return SingleParticleState(
        SpatialAmplitudes(a_l, a_r), spin, DistVector(tuple(dist_amps))
    )


# --- transition rule -------------------------------------------------------


def test_transition_of_identical_pair_is_two():
    a = _state(RT2, RT2, Spin.UP, (1.0,))
    assert transition_two((a, a), (a, a)) == pytest.approx(2.0, abs=ATOL_EXACT)


def test_transition_with_matched_pairs_is_one():
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(0.0, 1.0, Spin.DOWN, (1.0,))
    # <C|A> = <D|B> = 1 while every cross overlap vanishes
    assert transition_two((a, b), (a, b)) == pytest.approx(1.0, abs=ATOL_EXACT)


def test_transition_matches_labeled_oracle_on_random_quadruples():
    rng = np.random.default_rng(31)
    for d in (1, 2, 3):
        for _ in range(40):
            a, b, c, e = (random_state(rng, d) for _ in range(4))
            direct = labeled_inner(symmetrize(c, e), symmetrize(a, b))
            assert transition_two((c, e), (a, b)) == pytest.approx(direct, abs=1e-12)


def test_transition_is_symmetric_within_bra_and_ket():
    rng = np.random.default_rng(32)
    a, b, c, e = (random_state(rng, 2) for _ in range(4))
    assert transition_two((c, e), (a, b)) == pytest.approx(
        transition_two((e, c), (a, b)), abs=ATOL_EXACT
    )
    assert transition_two((c, e), (a, b)) == pytest.approx(
        transition_two((c, e), (b, a)), abs=ATOL_EXACT
    )


# --- single-bra projection -------------------------------------------------


def test_projection_onto_orthogonal_partner():
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(0.0, 1.0, Spin.UP, (1.0,))
    residual = project_single(a, (a, b))
    assert len(residual) == 1
    coeff, state = residual[0]
    assert coeff == pytest.approx(RT2, abs=ATOL_EXACT)
    assert state == b


def test_projection_with_orthogonal_bra_is_empty():
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(0.0, 1.0, Spin.UP, (1.0,))
    c = _state(1.0, 0.0, Spin.DOWN, (1.0,))
    assert project_single(c, (a, b)) == ()


def test_projection_then_contraction_reproduces_the_transition_rule():
    rng = np.random.default_rng(33)
    for _ in range(40):
        a, b, c, e = (random_state(rng, 3) for _ in range(4))
        via_residual = contract_residual(e, project_single(c, (a, b)))
        expected = transition_two((c, e), (a, b)) / math.sqrt(2.0)
        assert via_residual == pytest.approx(expected, abs=1e-12)


# --- canonical term handling -----------------------------------------------


def test_unordered_pairs_merge_structurally():
    rng = np.random.default_rng(34)
    a, b = random_state(rng, 2), random_state(rng, 2)
    s = symmetric_state([(0.25 + 0j, (a, b)), (0.5 + 0j, (b, a))])
    assert s.num_terms == 1
    assert s.terms[0][0] == pytest.approx(0.75 + 0j)


def test_exact_zero_terms_are_dropped():
    rng = np.random.default_rng(35)
    a, b = random_state(rng, 2), random_state(rng, 2)
    s = symmetric_state([(0.5 + 0j, (a, b)), (-0.5 + 0j, (b, a))])
    assert s.num_terms == 0


def test_mixed_dist_dimensions_are_rejected():
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(0.0, 1.0, Spin.UP, (1.0, 0.0))
    with pytest.raises(ValueError, match="distinguishability basis"):
        symmetric_state([(1.0 + 0j, (a, b))])


# --- detector-basis expansion ----------------------------------------------


def test_expansion_single_term_when_both_feed_one_detector():
    pa = _state(1.0, 0.0, Spin.UP, (1.0,))
    pb = _state(1.0, 0.0, Spin.DOWN, (1.0,))
    s = expand_in_detector_basis(pa, pb)
    assert s.num_terms == 1
    coeff, (x, y) = s.terms[0]
    assert coeff == pytest.approx(1.0 + 0j, abs=ATOL_EXACT)
    spins = {x.spin, y.spin}
    assert spins == {Spin.UP, Spin.DOWN}


def test_expansion_at_balanced_angle_has_four_half_coefficients():
    alphas, betas = spatial_amplitudes_from_theta(22.5)
    da, db = dist_vectors_for_overlap(0.3)
    s = expand_in_detector_basis(
        SingleParticleState(alphas, Spin.UP, da),
        SingleParticleState(betas, Spin.DOWN, db),
    )
    assert s.num_terms == 4
    for coeff, _ in s.terms:
        assert abs(coeff) == pytest.approx(0.5, abs=ATOL_EXACT)


def test_expansion_requires_up_down_spins():
    pa = _state(1.0, 0.0, Spin.DOWN, (1.0,))
    pb = _state(0.0, 1.0, Spin.DOWN, (1.0,))
    with pytest.raises(SpinConfigError, match="down, down"):
        expand_in_detector_basis(pa, pb)


def test_expansion_equals_symmetrized_tensor():
    rng = np.random.default_rng(36)
    for d in (1, 2, 3):
        for _ in range(20):
            pa, pb = random_updown_pair(rng, d)
            expansion = expand_in_detector_basis(pa, pb)
            dev = np.max(
                np.abs(to_labeled(expansion).amps - symmetrize(pa, pb).amps)
            )
            assert dev == pytest.approx(0.0, abs=1e-12)


def test_dist_vector_rides_with_its_spin():
    # the up-spin component must carry the first particle's internal state
    # on both detectors
    rng = np.random.default_rng(37)
    pa, pb = random_updown_pair(rng, 3)
    for _, (x, y) in expand_in_detector_basis(pa, pb).terms:
        for st in (x, y):
            if st.spin is Spin.UP:
                assert st.dist == pa.dist
            else:
                assert st.dist == pb.dist


# --- post-selection ---------------------------------------------------------


def test_postselection_keeps_the_two_split_terms():
    rng = np.random.default_rng(38)
    pa, pb = random_updown_pair(rng, 2)
    al, ar = pa.spatial.a_l, pa.spatial.a_r
    bl, br = pb.spatial.a_l, pb.spatial.a_r
    kept = postselect_one_per_detector(expand_in_detector_basis(pa, pb))
    assert kept.num_terms == 2
    got = sorted(abs(c) for c, _ in kept.terms)
    expected = sorted((abs(al * br), abs(ar * bl)))
    assert got == pytest.approx(expected, abs=ATOL_EXACT)


def test_postselection_of_single_detector_state_is_empty():
    pa = _state(1.0, 0.0, Spin.UP, (1.0,))
    pb = _state(1.0, 0.0, Spin.DOWN, (1.0,))
    kept = postselect_one_per_detector(expand_in_detector_basis(pa, pb))
    assert kept.num_terms == 0


@given(theta=st.floats(min_value=0.0, max_value=45.0))
def test_postselection_is_idempotent(theta):
    alphas, betas = spatial_amplitudes_from_theta(theta)
    da, db = dist_vectors_for_overlap(0.7)
    s = expand_in_detector_basis(
        SingleParticleState(alphas, Spin.UP, da),
        SingleParticleState(betas, Spin.DOWN, db),
    )
    once = postselect_one_per_detector(s)
    assert postselect_one_per_detector(once) == once


def test_postselection_rejects_unexpanded_states():
    rng = np.random.default_rng(39)
    a, b = random_state(rng, 2), random_state(rng, 2)
    with pytest.raises(NotDetectorBasisError):
        postselect_one_per_detector(symmetric_state([(1.0 + 0j, (a, b))]))


def test_expansion_coefficients_complete_for_orthogonal_product_inputs():
    # whenever <Psi_A|Psi_B> = 0 the four squared coefficients sum to one
    rng = np.random.default_rng(40)
    for _ in range(30):
        pa, pb = random_updown_pair(rng, 2)  # orthogonal spins force it
        assert inner_single(pa, pb) == 0j
        total = sum(abs(c) ** 2 for c, _ in expand_in_detector_basis(pa, pb).terms)
        assert total == pytest.approx(1.0, abs=1e-12)
