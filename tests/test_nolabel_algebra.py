"""Unordered-ket calculus cross-checked against the labeled-tensor oracle."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from twoboson import core_state
from twoboson.core_state import (
    ATOL_EXACT,
    BasisMismatchError,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    inner_single,
)
from twoboson.fq_oracle import labeled_inner, symmetrize, to_labeled
from twoboson.nolabel_algebra import (
    DETECTOR_L,
    DETECTOR_R,
    SpinConfigError,
    NotDetectorBasisError,
    contract_residual,
    expand_in_detector_basis,
    postselect_one_per_detector,
    project_single,
    transition_two,
)
from twoboson.optics import dist_vectors_for_overlap, spatial_amplitudes_from_theta
from twoboson.verification import random_states, random_updown_pairs

RT2 = math.sqrt(0.5)


def _state(a_l, a_r, spin, dist_amps):
    return SingleParticleState(
        SpatialAmplitudes(a_l, a_r), spin, DistVector(tuple(dist_amps))
    )


# --- transition rule -------------------------------------------------------


def test_shared_names_are_the_core_state_objects():
    # the production pass in `entanglement` takes them from `core_state`
    assert DETECTOR_L is core_state.DETECTOR_L and DETECTOR_R is core_state.DETECTOR_R
    assert SpinConfigError is core_state.SpinConfigError


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
            a, b, c, e = random_states(rng, [d] * 4)
            direct = labeled_inner(symmetrize(c, e), symmetrize(a, b))
            assert transition_two((c, e), (a, b)) == pytest.approx(direct, abs=1e-12)


def test_transition_is_symmetric_within_bra_and_ket():
    rng = np.random.default_rng(32)
    a, b, c, e = random_states(rng, [2] * 4)
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
        a, b, c, e = random_states(rng, [3] * 4)
        via_residual = contract_residual(e, project_single(c, (a, b)))
        expected = transition_two((c, e), (a, b)) / math.sqrt(2.0)
        assert via_residual == pytest.approx(expected, abs=1e-12)


# --- canonical term handling -----------------------------------------------


def test_unordered_pairs_merge_structurally(symmetric_state):
    rng = np.random.default_rng(34)
    a, b = random_states(rng, [2, 2])
    s = symmetric_state([(0.25 + 0j, (a, b)), (0.5 + 0j, (b, a))])
    assert s.num_terms == 1
    assert s.terms[0][0] == pytest.approx(0.75 + 0j)


def test_exact_zero_terms_are_dropped(symmetric_state):
    rng = np.random.default_rng(35)
    a, b = random_states(rng, [2, 2])
    s = symmetric_state([(0.5 + 0j, (a, b)), (-0.5 + 0j, (b, a))])
    assert s.num_terms == 0


def test_mixed_dist_dimensions_are_rejected(symmetric_state):
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(0.0, 1.0, Spin.UP, (1.0, 0.0))
    with pytest.raises(BasisMismatchError, match="distinguishability bases"):
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
            pa, pb = random_updown_pairs(rng, [d])[0]
            expansion = expand_in_detector_basis(pa, pb)
            dev = np.max(
                np.abs(to_labeled(expansion).amps - symmetrize(pa, pb).amps)
            )
            assert dev == pytest.approx(0.0, abs=1e-12)


def _raw_terms(pa, pb):
    """The four terms of the expansion docstring, out of canonical order."""
    (al, ar), (bl, br) = (pa.spatial.a_l, pa.spatial.a_r), (pb.spatial.a_l, pb.spatial.a_r)
    l_up_a, r_up_a = (SingleParticleState(m, Spin.UP, pa.dist) for m in (DETECTOR_L, DETECTOR_R))
    l_dn_b, r_dn_b = (SingleParticleState(m, Spin.DOWN, pb.dist) for m in (DETECTOR_L, DETECTOR_R))
    return [
        (al * bl, (l_up_a, l_dn_b)),
        (al * br, (l_up_a, r_dn_b)),
        (ar * bl, (l_dn_b, r_up_a)),
        (ar * br, (r_up_a, r_dn_b)),
    ]


def _bits(c):
    return (c.real.hex(), c.imag.hex())  # tells -0.0 from 0.0


def _dist_key(d):
    return [x for a in d.amplitudes for x in (a.real, a.imag)]


def _updown(alphas, betas, da, db):
    return SingleParticleState(alphas, Spin.UP, da), SingleParticleState(betas, Spin.DOWN, db)


def test_expansion_is_the_canonical_state_of_its_raw_terms(symmetric_state, sort_key):
    rng = np.random.default_rng(41)
    pairs = random_updown_pairs(rng, [d for d in (1, 2, 3, 4) for _ in range(15)])
    da, db = dist_vectors_for_overlap(0.4)
    for theta in (0.0, 45.0, 22.5, -10.0, 100.0):
        pairs.append(_updown(*spatial_amplitudes_from_theta(theta), da, db))
        pairs.append(_updown(*spatial_amplitudes_from_theta(theta), db, da))
    for pa, pb in list(pairs[:60]):  # swap the vectors so that A's sorts after B's
        lo, hi = sorted((pa.dist, pb.dist), key=_dist_key)
        pairs.append(_updown(pa.spatial, pb.spatial, hi, lo))
    for pa, pb in list(pairs[:15]):  # flip signs, keeping the magnitudes
        alphas = SpatialAmplitudes(-pa.spatial.a_l, pa.spatial.a_r)
        betas = SpatialAmplitudes(pb.spatial.a_l, -pb.spatial.a_r)
        pairs.append(_updown(alphas, betas, pa.dist, pb.dist))
    # products with a -0.0 part, which the merge's 0j + c makes +0.0
    neg_zero = SpatialAmplitudes(complex(-0.6, -0.0), complex(0.8, -0.0))
    pairs.append(_updown(neg_zero, SpatialAmplitudes(0.8, -0.6), da, db))
    pairs.append(_updown(SpatialAmplitudes(-0.0, 1.0), SpatialAmplitudes(1.0, -0.0), da, db))
    for pa, pb in pairs:
        got = expand_in_detector_basis(pa, pb).terms
        want = symmetric_state(_raw_terms(pa, pb)).terms
        assert len(got) == len(want)
        for (c, (x, y)), (c_ref, (x_ref, y_ref)) in zip(got, want):
            assert (x, y) == (x_ref, y_ref)
            assert sort_key(x) == sort_key(x_ref) and sort_key(y) == sort_key(y_ref)
            assert _bits(c) == _bits(c_ref)
    # theta 0 sends A to R and B to L, so three of the terms are exact zeros
    at_zero = _updown(*spatial_amplitudes_from_theta(0.0), da, db)
    assert len(expand_in_detector_basis(*at_zero).terms) == 1


def test_expansion_rejects_mixed_dimensions_as_the_merge_does(symmetric_state):
    rng = np.random.default_rng(42)
    pa, _ = random_updown_pairs(rng, [2])[0]
    _, pb = random_updown_pairs(rng, [3])[0]
    with pytest.raises(BasisMismatchError, match="dimension 2 vs 3") as merged:
        symmetric_state(_raw_terms(pa, pb))
    with pytest.raises(BasisMismatchError, match="dimension 2 vs 3") as direct:
        expand_in_detector_basis(pa, pb)
    assert str(direct.value) == str(merged.value)


def test_dist_vector_rides_with_its_spin():
    # the up-spin component must carry the first particle's internal state
    # on both detectors
    rng = np.random.default_rng(37)
    pa, pb = random_updown_pairs(rng, [3])[0]
    for _, (x, y) in expand_in_detector_basis(pa, pb).terms:
        for st in (x, y):
            if st.spin is Spin.UP:
                assert st.dist == pa.dist
            else:
                assert st.dist == pb.dist


# --- post-selection ---------------------------------------------------------


def test_postselection_keeps_the_two_split_terms():
    rng = np.random.default_rng(38)
    pa, pb = random_updown_pairs(rng, [2])[0]
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


def test_postselection_rejects_unexpanded_states(symmetric_state):
    rng = np.random.default_rng(39)
    a, b = random_states(rng, [2, 2])
    with pytest.raises(NotDetectorBasisError):
        postselect_one_per_detector(symmetric_state([(1.0 + 0j, (a, b))]))


def test_expansion_coefficients_complete_for_orthogonal_product_inputs():
    # whenever <Psi_A|Psi_B> = 0 the four squared coefficients sum to one
    rng = np.random.default_rng(40)
    for _ in range(30):
        pa, pb = random_updown_pairs(rng, [2])[0]  # orthogonal spins force it
        assert inner_single(pa, pb) == 0j
        total = sum(abs(c) ** 2 for c, _ in expand_in_detector_basis(pa, pb).terms)
        assert total == pytest.approx(1.0, abs=1e-12)
