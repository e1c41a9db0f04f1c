import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest

from twoboson.core_state import (
    ATOL_EXACT,
    BasisMismatchError,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    SpinDensityMatrix,
    ValidationError,
    inner_single,
    overlap_magnitude,
    spin_overlap,
)
from twoboson.entanglement import concurrence_closed_form
from twoboson.fq_oracle import _particle_vectors
from twoboson.nolabel_algebra import DETECTOR_L, DETECTOR_R, expand_in_detector_basis
from twoboson.optics import dist_vectors_for_overlap
from twoboson.verification import random_states, random_updown_pairs

RT2 = math.sqrt(0.5)


def test_spin_overlaps():
    assert spin_overlap(Spin.UP, Spin.UP) == 1.0
    assert spin_overlap(Spin.DOWN, Spin.DOWN) == 1.0
    assert spin_overlap(Spin.UP, Spin.DOWN) == 0.0


def test_inner_with_itself_is_one():
    rng = np.random.default_rng(10)
    for d in (1, 2, 3):
        (s,) = random_states(rng, [d])
        assert inner_single(s, s) == pytest.approx(1.0 + 0.0j, abs=ATOL_EXACT)


def test_orthogonal_spins_give_zero():
    sp = SpatialAmplitudes(0.6, 0.8)
    dv = DistVector((1.0 + 0j,))
    up = SingleParticleState(sp, Spin.UP, dv)
    down = SingleParticleState(sp, Spin.DOWN, dv)
    assert inner_single(up, down) == 0.0


def test_inner_matches_single_slot_tensor_contraction():
    # independent check: flatten each state to its dense mode (x) spin (x) dist
    # vector and contract component-wise
    rng = np.random.default_rng(11)
    for _ in range(60):
        x, y = random_states(rng, [3, 3])
        direct = complex(np.vdot(*_particle_vectors([x, y])))
        assert inner_single(x, y) == pytest.approx(direct, abs=1e-12)


def test_inner_is_conjugate_symmetric():
    rng = np.random.default_rng(12)
    for _ in range(30):
        x, y = random_states(rng, [2, 2])
        assert inner_single(x, y) == pytest.approx(
            inner_single(y, x).conjugate(), abs=ATOL_EXACT
        )


def test_inner_magnitude_bounded_by_one():
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, y = random_states(rng, [3, 3])
        assert abs(inner_single(x, y)) <= 1.0 + 1e-12


def test_mismatched_dist_dimensions_raise():
    sp = SpatialAmplitudes(1.0, 0.0)
    a = SingleParticleState(sp, Spin.UP, DistVector((1.0 + 0j,)))
    b = SingleParticleState(sp, Spin.UP, DistVector((1.0 + 0j, 0j)))
    with pytest.raises(BasisMismatchError):
        inner_single(a, b)
    # the dimension check must fire even when the spin factor is zero
    c = SingleParticleState(sp, Spin.DOWN, DistVector((1.0 + 0j, 0j)))
    with pytest.raises(BasisMismatchError):
        inner_single(a, c)


_NON_FINITE = (math.nan, math.inf, -math.inf, complex(0.5, math.nan), complex(math.inf, 0.5))


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_spatial_amplitudes_refuse_a_non_finite_amplitude(bad):
    # a nan amplitude made number_distribution raise or return nan depending
    # on a stale errno; it is refused where the value is built instead
    for amplitudes in ((bad, RT2), (RT2, bad)):
        with pytest.raises(ValidationError, match="mode amplitudes must be finite"):
            SpatialAmplitudes(*amplitudes)


@pytest.mark.parametrize("bad", _NON_FINITE)
def test_dist_vectors_refuse_a_non_finite_amplitude(bad):
    # a nan dist amplitude gave a (1,1) weight of nan, which the normalized
    # Wootters call then reported as "weight = 0"
    for amplitudes in ((bad,), (RT2, bad), (bad, 0j, RT2)):
        with pytest.raises(ValidationError, match="distinguishability amplitudes must be finite"):
            DistVector(amplitudes)


def test_spatial_overlap_and_normalization_helpers():
    sp = SpatialAmplitudes(2.0, 0.0)
    assert sp.overlap(sp).real == 4.0
    assert SpatialAmplitudes(RT2, RT2).overlap(SpatialAmplitudes(RT2, -RT2)) == pytest.approx(0.0, abs=ATOL_EXACT)


def test_dist_vector_overlap_orientation():
    # overlap(x, y) must be <x|y>: conjugate-linear in x
    x = DistVector((1j, 0j))
    y = DistVector((1.0 + 0j, 0j))
    assert x.overlap(y) == pytest.approx(-1j, abs=ATOL_EXACT)


def test_spin_density_matrix_validation():
    for shape in ((2, 2), (4,), (4, 5), (16,)):
        with pytest.raises(ValidationError, match="4x4"):
            SpinDensityMatrix(np.zeros(shape, dtype=complex))


def test_spin_density_matrix_weight_is_its_trace():
    rng = np.random.default_rng(13)
    for _ in range(5):
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        assert SpinDensityMatrix(m).weight == float(np.trace(m).real)
    assert SpinDensityMatrix(np.zeros((4, 4))).weight == 0.0


def test_spin_density_matrix_is_read_only():
    rho = SpinDensityMatrix(np.eye(4, dtype=complex))
    with pytest.raises((ValueError, RuntimeError)):
        rho.matrix[0, 0] = 9.0


# --- detector modes and canonical keys, fresh and copied ----------------------


def _fresh_key(s):
    sp = s.spatial
    flat = [sp.a_l.real, sp.a_l.imag, sp.a_r.real, sp.a_r.imag, float(s.spin.value)]
    for a in s.dist.amplitudes:
        flat += [a.real, a.imag]
    return tuple(flat)


def _fresh_mode(s):
    wl, wr = abs(s.spatial.a_l) ** 2, abs(s.spatial.a_r) ** 2
    if abs(wl - 1.0) <= ATOL_EXACT and wr <= ATOL_EXACT:
        return "L"
    if abs(wr - 1.0) <= ATOL_EXACT and wl <= ATOL_EXACT:
        return "R"
    return None


def _states_with_keys():
    """Random states, and the detector-definite states of their expansions."""
    rng = np.random.default_rng(14)
    out = random_states(rng, [d for d in (1, 2, 3) for _ in range(10)])
    for _ in range(10):
        for _, pair in expand_in_detector_basis(*random_updown_pairs(rng, [2])[0]).terms:
            out.extend(pair)
    return out


def test_equal_states_built_apart_hash_alike():
    def build(zero):
        return SingleParticleState(
            SpatialAmplitudes(0.6, complex(zero, 0.8)), Spin.DOWN, DistVector((RT2, 1j * RT2))
        )

    for a, b in ((build(0.0), build(0.0)), (build(0.0), build(-0.0))):
        assert a is not b and a == b and hash(a) == hash(b)
    assert len({build(0.0), build(-0.0)}) == 1


def _copies(s):
    return (s, copy.deepcopy(s), pickle.loads(pickle.dumps(s)), dataclasses.replace(s))


def test_modes_match_a_fresh_computation_and_survive_copies():
    states = _states_with_keys()
    assert {s.spatial.detector_mode for s in states} == {"L", "R", None}
    for s in states:
        for t in _copies(s):
            assert t == s
            assert hash(t) == hash(s)
            assert t.spatial.detector_mode == _fresh_mode(s)
            assert t.dist.amplitudes == s.dist.amplitudes
    # every detector-definite state holds one of the two shared mode amplitudes
    shared = {id(s.spatial) for s in states if s.spatial.detector_mode is not None}
    assert shared == {id(DETECTOR_L), id(DETECTOR_R)}


def test_canonical_keys_match_a_fresh_computation_and_survive_copies(sort_key):
    states = _states_with_keys()
    for s in states:
        for t in _copies(s):
            assert sort_key(t) == _fresh_key(s)
    moved = dataclasses.replace(states[0], spin=Spin.DOWN if states[0].spin is Spin.UP else Spin.UP)
    assert sort_key(moved) == _fresh_key(moved) != sort_key(states[0])


def _complex_bits(z) -> bytes:
    return np.complex128(z).tobytes()


def test_dist_vector_self_overlap_is_its_overlap_with_itself_and_is_rebuilt_by_copies():
    rng = np.random.default_rng(24)
    vectors = [s.dist for s in random_states(rng, [d for d in (1, 2, 3) for _ in range(10)])]
    vectors += [DistVector((1.0, 0j)), DistVector((-0.0, complex(0.6, -0.0), 0.8j))]
    for d in vectors:
        assert _complex_bits(d.self_overlap) == _complex_bits(d.overlap(d))
        assert d.self_overlap is d.self_overlap  # computed once
        vars(d)["self_overlap"] = 99j  # a stale value no copy may carry over
        for t in (copy.copy(d), copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
            assert vars(t) == {"amplitudes": d.amplitudes}
            assert _complex_bits(t.self_overlap) == _complex_bits(d.overlap(d))


def test_dist_vector_amplitudes_are_a_tuple_of_complexes_copied_on_construction():
    given = np.array([1, 1j, 0.5])
    d = DistVector(given)
    given[0] = 2.0  # the caller's array is not the vector's
    for t in (d, copy.deepcopy(d), pickle.loads(pickle.dumps(d))):
        assert t.amplitudes == (1 + 0j, 1j, 0.5 + 0j)
        assert all(type(a) is complex for a in t.amplitudes)
        assert t.dim == 3
    assert DistVector((1, 1j, 0.5)) == d and hash(DistVector((1, 1j, 0.5))) == hash(d)


def test_both_overlap_callers_refuse_an_overlap_past_one_by_one_rule():
    amps = SpatialAmplitudes(RT2, RT2)
    callers = (
        overlap_magnitude,
        lambda ov: concurrence_closed_form(amps, amps, ov),
        dist_vectors_for_overlap,
    )
    for call in callers:
        for overlap in (1.0 + 2e-12, -1.0 - 2e-12, complex(0.0, 1.0 + 2e-12)):
            with pytest.raises(ValueError, match=r"^\|overlap\| = 1 exceeds 1$"):
                call(overlap)
        with pytest.raises(ValueError, match=r"^\|overlap\| = 1\.5 exceeds 1$"):
            call(1.5)
        call(1.0 + 5e-13)  # within ATOL_EXACT of 1
        call(complex(0.0, -1.0 - 5e-13))
    assert overlap_magnitude(1.0 + 5e-13) == 1.0 + 5e-13
    assert overlap_magnitude(-0.25 + 0j) == 0.25
    phi_a, phi_b = dist_vectors_for_overlap(1.0 + 5e-13)
    assert phi_b.amplitudes == (1.0 + 5e-13 + 0j, 0j)
    assert concurrence_closed_form(amps, amps, 1.0 + 5e-13) == pytest.approx((1.0 + 5e-13) ** 2)
