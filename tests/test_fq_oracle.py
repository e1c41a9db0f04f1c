"""Brute-force labeled-tensor layer: symmetrization, inner products, and the
post-selected spin density matrix, checked against hand expansions."""

import math

import numpy as np
import pytest

from twoboson.core_state import (
    ATOL_EXACT,
    BasisMismatchError,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
)
from twoboson.core_state import inner_single
from twoboson.fq_oracle import (
    LabeledState,
    _particle_vectors,
    labeled_inner,
    labeled_inner_stack,
    mode_pattern_weight_stack,
    mode_pattern_weights,
    oracle_postselected_density,
    postselected_density_stack,
    symmetrize,
    symmetrize_stack,
    to_labeled,
    to_labeled_stack,
)
from twoboson.nolabel_algebra import (
    SymmetricTwoBosonState,
    expand_in_detector_basis,
    postselect_one_per_detector,
)
from twoboson.optics import dist_vectors_for_overlap, spatial_amplitudes_from_theta
from twoboson.verification import random_states, random_updown_pairs

RT2 = math.sqrt(0.5)


def _assert_hermitian_psd(rho):
    m = rho.matrix
    assert np.max(np.abs(m - m.conj().T)) <= ATOL_EXACT
    assert np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)) >= -ATOL_EXACT


def _vector(s):
    # a state's dense single-slot vector, as the oracle builds it
    return _particle_vectors([s])[0]


def _state(a_l, a_r, spin, dist_amps):
    return SingleParticleState(
        SpatialAmplitudes(a_l, a_r), spin, DistVector(tuple(dist_amps))
    )


def test_identical_inputs_bunch_with_sqrt2():
    s = _state(RT2, RT2, Spin.UP, (1.0,))
    v = _vector(s)
    got = symmetrize(s, s).amps
    assert np.allclose(got, math.sqrt(2.0) * np.outer(v, v), atol=ATOL_EXACT)


def test_orthogonal_inputs_give_unit_norm():
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(0.0, 1.0, Spin.UP, (1.0,))
    s = symmetrize(a, b)
    assert labeled_inner(s, s).real == pytest.approx(1.0, abs=ATOL_EXACT)


def test_symmetrized_norm_from_pair_overlap():
    rng = np.random.default_rng(21)
    for d in (1, 2, 3):
        for _ in range(20):
            p1, p2 = random_states(rng, [d, d])
            expected = 1.0 + abs(inner_single(p1, p2)) ** 2
            s = symmetrize(p1, p2)
            assert labeled_inner(s, s).real == pytest.approx(expected, abs=ATOL_EXACT)


def test_swap_invariance_is_exact():
    rng = np.random.default_rng(22)
    p1, p2 = random_states(rng, [2, 2])
    s12 = symmetrize(p1, p2)
    s21 = symmetrize(p2, p1)
    assert np.array_equal(s12.amps, s21.amps)
    assert np.allclose(s12.amps.T, s12.amps, atol=ATOL_EXACT)


def test_labeled_inner_trivial_cases():
    a = _state(1.0, 0.0, Spin.UP, (1.0, 0.0))
    b = _state(0.0, 1.0, Spin.UP, (1.0, 0.0))
    s = symmetrize(a, b)
    assert labeled_inner(s, s) == pytest.approx(1.0, abs=ATOL_EXACT)

    c = _state(1.0, 0.0, Spin.DOWN, (0.0, 1.0))
    d = _state(0.0, 1.0, Spin.DOWN, (1.0, 0.0))
    assert labeled_inner(symmetrize(c, d), s) == pytest.approx(0.0, abs=ATOL_EXACT)


def test_labeled_inner_rejects_dimension_mismatch():
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(1.0, 0.0, Spin.UP, (1.0, 0.0))
    with pytest.raises(BasisMismatchError):
        labeled_inner(symmetrize(a, a), symmetrize(b, b))
    with pytest.raises(BasisMismatchError):
        symmetrize(a, b)


def test_mode_pattern_weights_split_the_norm():
    rng = np.random.default_rng(23)
    for _ in range(25):
        p1, p2 = random_states(rng, [2, 2])
        s = symmetrize(p1, p2)
        w = mode_pattern_weights(s)
        assert set(w) == {(2, 0), (1, 1), (0, 2)}
        assert sum(w.values()) == pytest.approx(labeled_inner(s, s).real, abs=ATOL_EXACT)
        assert all(v >= -ATOL_EXACT for v in w.values())


def test_mode_pattern_weights_balanced_point():
    # equal splitting with orthogonal spins: bunched quarters, (1,1) half
    alphas, betas = spatial_amplitudes_from_theta(22.5)
    da, db = dist_vectors_for_overlap(1.0)
    s = symmetrize(
        SingleParticleState(alphas, Spin.UP, da),
        SingleParticleState(betas, Spin.DOWN, db),
    )
    w = mode_pattern_weights(s)
    assert w[(2, 0)] == pytest.approx(0.25, abs=ATOL_EXACT)
    assert w[(1, 1)] == pytest.approx(0.50, abs=ATOL_EXACT)
    assert w[(0, 2)] == pytest.approx(0.25, abs=ATOL_EXACT)


def test_postselected_density_no_coincidence_support():
    # both particles aimed at L: nothing survives one-per-detector selection
    a = _state(1.0, 0.0, Spin.UP, (1.0,))
    b = _state(1.0, 0.0, Spin.DOWN, (1.0,))
    rho = oracle_postselected_density(symmetrize(a, b))
    assert rho.weight == pytest.approx(0.0, abs=ATOL_EXACT)
    assert np.allclose(rho.matrix, 0.0, atol=ATOL_EXACT)


def test_postselected_density_maximal_point_is_half_a_bell_projector():
    alphas, betas = spatial_amplitudes_from_theta(22.5)
    da, db = dist_vectors_for_overlap(1.0)
    rho = oracle_postselected_density(
        symmetrize(
            SingleParticleState(alphas, Spin.UP, da),
            SingleParticleState(betas, Spin.DOWN, db),
        )
    )
    expected = np.zeros((4, 4), dtype=complex)
    expected[1:3, 1:3] = 0.25
    assert np.allclose(rho.matrix, expected, atol=ATOL_EXACT)
    assert rho.weight == pytest.approx(0.5, abs=ATOL_EXACT)


def test_postselected_density_diagonal_when_fully_distinguishable():
    rng = np.random.default_rng(24)
    alphas, betas = spatial_amplitudes_from_theta(float(rng.uniform(5.0, 40.0)))
    da, db = dist_vectors_for_overlap(0.0)
    rho = oracle_postselected_density(
        symmetrize(
            SingleParticleState(alphas, Spin.UP, da),
            SingleParticleState(betas, Spin.DOWN, db),
        )
    )
    off = rho.matrix - np.diag(np.diag(rho.matrix))
    assert np.allclose(off, 0.0, atol=ATOL_EXACT)
    _assert_hermitian_psd(rho)


def test_postselected_density_is_hermitian_psd_for_random_input():
    rng = np.random.default_rng(25)
    for d in (1, 2, 3):
        p1, p2 = random_states(rng, [d, d])
        rho = oracle_postselected_density(symmetrize(p1, p2))
        _assert_hermitian_psd(rho)


def test_labeled_state_shape_checks():
    for shape in ((3, 4), (8, 4), (6, 6), (0, 0), (8,), (4, 4, 1), ()):
        with pytest.raises(ValueError):
            LabeledState(np.zeros(shape, dtype=complex))
    for d in (1, 2, 3):
        assert LabeledState(np.zeros((4 * d, 4 * d))).dist_dim == d


def test_the_public_constructor_copies_the_callers_array():
    arr = np.arange(16, dtype=complex).reshape(4, 4)
    x = LabeledState(arr)
    assert x.dist_dim == 1
    assert x.amps is not arr and not np.shares_memory(x.amps, arr)
    assert arr.flags.writeable and not x.amps.flags.writeable
    arr[0, 0] = 99.0
    assert x.amps[0, 0] == 0.0


def test_built_states_are_read_only():
    rng = np.random.default_rng(27)
    p_a, p_b = random_updown_pairs(rng, [2])[0]
    for x in (symmetrize(p_a, p_b), to_labeled(expand_in_detector_basis(p_a, p_b))):
        assert x.dist_dim == 2 and x.amps.shape == (8, 8)
        assert not x.amps.flags.writeable
        with pytest.raises(ValueError):
            x.amps[0, 0] = 1.0


# --- the cell-by-cell definitions the dense routines must reproduce ----------------


def _kron_vector(s):
    spin = np.eye(2)[s.spin.value]
    spatial = np.array([s.spatial.a_l, s.spatial.a_r], dtype=complex)
    return np.kron(np.kron(spatial, spin), np.asarray(s.dist.amplitudes, dtype=complex))


def _decode(index, d):
    # inverse of index = (mode*2 + spin)*d + dist
    return index // (2 * d), (index // d) % 2, index % d


def _cell_weights(x):
    d = x.dist_dim
    weights = {(2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0}
    for i in range(4 * d):
        for j in range(4 * d):
            n_l = (_decode(i, d)[0] == 0) + (_decode(j, d)[0] == 0)
            weights[(n_l, 2 - n_l)] += abs(x.amps[i, j]) ** 2
    return weights


def _cell_density(x):
    d = x.dist_dim
    w = np.zeros((2, 2, d, d), dtype=complex)
    for i in range(4 * d):
        m1, s1, a1 = _decode(i, d)
        for j in range(4 * d):
            amp = x.amps[i, j]
            if amp == 0j:
                continue
            m2, s2, a2 = _decode(j, d)
            if m1 == 0 and m2 == 1:
                w[s1, s2, a1, a2] += amp
            elif m1 == 1 and m2 == 0:
                w[s2, s1, a2, a1] += amp
    coeffs = w.reshape(4, d * d) / np.sqrt(2.0)
    return coeffs @ coeffs.conj().T


def _oracle_pairs():
    rng = np.random.default_rng(26)
    for d in (1, 2, 3, 4):
        for _ in range(10):
            p1, p2 = random_states(rng, [d, d])
            yield p1, p2
            yield p1, p1
        ortho = np.eye(d)
        yield (
            _state(RT2, RT2, Spin.UP, ortho[0]),
            _state(RT2, -RT2, Spin.DOWN, ortho[-1]),
        )
        yield _state(1.0, 0.0, Spin.UP, ortho[0]), _state(0.0, 1.0, Spin.UP, ortho[0])


def test_dense_oracle_matches_the_cell_by_cell_definitions():
    for p1, p2 in _oracle_pairs():
        for s in (p1, p2):
            assert np.array_equal(_vector(s), _kron_vector(s))
        x = symmetrize(p1, p2)
        rho = oracle_postselected_density(x)
        want = _cell_density(x)
        assert np.array_equal(rho.matrix, want)
        assert rho.weight == float(np.trace(want).real)
        # the cells are added in another order: a few ulps of each weight
        weights, cells = mode_pattern_weights(x), _cell_weights(x)
        assert set(weights) == set(cells)
        for key, value in cells.items():
            assert abs(weights[key] - value) <= 1e-15 * value


def _per_term_sum(state):
    # the definition: the per-term symmetrized tensors, summed in term order
    d = state.terms[0][1][0].dist.dim
    total = np.zeros((4 * d, 4 * d), dtype=complex)
    for coeff, (a, b) in state.terms:
        total += coeff * symmetrize(a, b).amps
    return total


def _expansions():
    rng = np.random.default_rng(29)
    for d in (1, 2, 3, 4):
        for _ in range(50):
            p_a, p_b = random_updown_pairs(rng, [d])[0]
            expansion = expand_in_detector_basis(p_a, p_b)
            yield expansion
            yield postselect_one_per_detector(expansion)
            # generic terms, one particle shared by several and one paired
            # with itself
            p, q, r = random_states(rng, [d] * 3)
            coeffs = rng.normal(size=4) + 1j * rng.normal(size=4)
            pairs = ((p, q), (q, r), (p, p), (r, p))
            yield SymmetricTwoBosonState(tuple(zip(coeffs.tolist(), pairs)))


def test_to_labeled_has_the_bits_of_the_per_term_symmetrized_sum():
    for state in _expansions():
        got = to_labeled(state)
        assert got.dist_dim == state.terms[0][1][0].dist.dim
        assert got.amps.tobytes() == _per_term_sum(state).tobytes()


def test_to_labeled_refuses_a_term_across_two_bases():
    p = _state(1.0, 0.0, Spin.UP, (1.0,))
    q = _state(0.0, 1.0, Spin.DOWN, (1.0, 0.0))
    with pytest.raises(BasisMismatchError):
        to_labeled(SymmetricTwoBosonState(((1.0 + 0j, (p, q)),)))


# --- stacks: each tensor of a stack has the bits it has alone ----------------------


def _one_at_a_time_vector(s):
    # a state's dense vector built alone, block by block
    dist = np.array(s.dist.amplitudes, dtype=complex)
    d = len(dist)
    v = np.zeros(4 * d, dtype=complex)
    start = s.spin.value * d
    v[start : start + d] = s.spatial.a_l * dist
    v[start + 2 * d : start + 3 * d] = s.spatial.a_r * dist
    return v


def _one_at_a_time_symmetrized(p1, p2):
    v1, v2 = _one_at_a_time_vector(p1), _one_at_a_time_vector(p2)
    return (v1[:, None] * v2 + v2[:, None] * v1) / np.sqrt(2.0)


def _one_at_a_time_density(amps):
    d = len(amps) // 4
    a = amps.reshape(2, 2, d, 2, 2, d)
    w = np.zeros((2, 2, d, d), dtype=complex)
    w += a[0, :, :, 1].transpose(0, 2, 1, 3)
    w += a[1, :, :, 0].transpose(2, 0, 3, 1)
    coeffs = w.reshape(4, d * d) / np.sqrt(2.0)
    return coeffs @ coeffs.conj().T


def _one_at_a_time_weights(amps):
    d = len(amps) // 4
    sums = (np.abs(amps.reshape(2, 2 * d, 2, 2 * d)) ** 2).sum(axis=(1, 3))
    return {
        (2, 0): float(sums[0, 0]),
        (1, 1): float(sums[0, 1] + sums[1, 0]),
        (0, 2): float(sums[1, 1]),
    }


def _weight_bits(weights):
    return {key: value.hex() for key, value in weights.items()}


def _stack_pairs(rng, d, k):
    pairs = []
    for _ in range(k):
        p, q = random_states(rng, [d, d])
        pairs += [(p, q), (p, p)]
    return pairs[:k] + random_updown_pairs(rng, [d] * k)


@pytest.mark.parametrize("k", [1, 2, 7, 50])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_each_stacked_oracle_routine_gives_each_tensor_the_bits_it_has_alone(d, k):
    rng = np.random.default_rng([30, d, k])
    pairs = _stack_pairs(rng, d, k)
    stack = symmetrize_stack(pairs)
    densities = postselected_density_stack(stack)
    weights = mode_pattern_weight_stack(stack)
    inners = labeled_inner_stack(stack, stack[::-1])
    assert stack.shape == (len(pairs), 4 * d, 4 * d) and densities.shape == (len(pairs), 4, 4)
    for i, (p1, p2) in enumerate(pairs):
        for s in (p1, p2):
            assert _vector(s).tobytes() == _one_at_a_time_vector(s).tobytes()
        alone = symmetrize(p1, p2)
        assert stack[i].tobytes() == alone.amps.tobytes()
        assert alone.amps.tobytes() == _one_at_a_time_symmetrized(p1, p2).tobytes()
        density = oracle_postselected_density(alone).matrix
        assert densities[i].tobytes() == density.tobytes()
        assert density.tobytes() == _one_at_a_time_density(alone.amps).tobytes()
        assert _weight_bits(weights[i]) == _weight_bits(mode_pattern_weights(alone))
        assert _weight_bits(weights[i]) == _weight_bits(_one_at_a_time_weights(alone.amps))
        other = symmetrize(*pairs[len(pairs) - 1 - i])
        assert inners[i] == labeled_inner(alone, other) == complex(np.vdot(alone.amps, other.amps))


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_the_stacked_embedding_gives_each_state_the_bits_it_has_alone(d):
    states = [s for s in _expansions() if s.terms[0][1][0].dist.dim == d]
    stack = to_labeled_stack(states)
    for x, state in zip(stack, states):
        assert x.tobytes() == to_labeled(state).amps.tobytes() == _per_term_sum(state).tobytes()


def test_a_stack_refuses_states_of_two_dimensions():
    p = _state(1.0, 0.0, Spin.UP, (1.0,))
    q = _state(0.0, 1.0, Spin.DOWN, (1.0, 0.0))
    message = r"^incompatible distinguishability bases: dimension 1 vs 2$"
    with pytest.raises(BasisMismatchError, match=message):
        symmetrize_stack([(p, p), (q, q)])
    states = [SymmetricTwoBosonState(((1.0 + 0j, (x, x)),)) for x in (p, q)]
    with pytest.raises(BasisMismatchError, match=message):
        to_labeled_stack(states)
