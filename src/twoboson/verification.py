"""Randomized cross-check suites between the algebraic and oracle routes.

Each suite draws random states, evaluates the same quantity along two
independent routes, and yields every deviation it measures.  `run_suites`
alone reduces them: it reports the largest against the suite's tolerance,
and a deviation above it, or a nan, fails the run.  The labeled-tensor
oracle (`fq_oracle`) is used here and in the tests only.

A random vector of n amplitudes is one `normal` call of 2n draws, real
parts then imaginary parts.  Its norm is summed by one BLAS `dot` per
contiguous half, and each part is multiplied by `1/norm`, as numpy divides
a complex by a real; for n <= 3 these are the bits of
`v / np.linalg.norm(v)`.  A suite draws first and normalizes after, one
stack per vector length, whose norms come from one stacked matmul,
`(m, 1, n) @ (m, n, 1)`: its vector-vector path is that BLAS `dot`.  Every
state comes from `random_states(rng, dims, spins=None)`: with `spins`
given, all the states' normals come from one call, as `random_updown_pairs`
draws a pair suite's (up, down) pairs; without, each state takes three
calls, as an `integers` draw comes between its two vectors.

Every suite but `concurrence_monotonicity`, which draws nothing, runs on
blocks of at most 150 trials in turn, so the memory it holds does not grow
with `--trials`.  The blocks draw in trial order and read the stream one
block of every trial reads; at the default 100 trials a block is the whole
suite.  A block draws its scalars in one `uniform` call whose cells have
the bits of one scalar call each (`closed_form_vs_wootters_raw`, whose
normal and uniform draws alternate, makes one of each per trial), and does
its numpy arithmetic on arrays.  Trial k of a random-state suite has
dimension 1 + k % 3, and the oracle reads the trials of each dimension as
one `fq_oracle` stack, whose tensors have the bits they have alone;
`hom_level_vs_oracle` stacks both merge pairs of every trial.

Three things are not stacked.  The routes under test
(`nolabel_algebra`, `number_distribution`, `prepared_distributions`, the
closed forms and `optics`' scalar laws) take one trial per call.
`overlap_exponent_relation` calls `np.exp` on one scalar per trial, since
an array `exp` takes numpy's SIMD path on some CPUs and moves the last bit.
`quadrature_overlap_integral` computes `hermgauss(128)` once per block,
once per pass at the default trials, and keeps nothing across passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .core_state import (
    ATOL_EXACT,
    ATOL_PIPELINE,
    SQRT2,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    SpinDensityMatrix,
    inner_single,
)
from . import entanglement, fq_oracle, nolabel_algebra, optics


@dataclass(frozen=True)
class SuiteResult:
    name: str
    max_deviation: float
    tolerance: float

    @property
    def passed(self) -> bool:
        """Whether the largest deviation is within the tolerance; a nan is not."""
        return self.max_deviation <= self.tolerance


def _unit_rows(x: np.ndarray) -> list[tuple[complex, ...]]:
    """The unit vector of each row of the (m, 2n) normal draws `x`, whose
    first half gives the real parts and whose second half the imaginary
    parts, with the bits a row normalized alone has."""
    n = x.shape[1] // 2
    if n == 0:
        return [()] * len(x)  # for DistVector to refuse, as it refuses any empty vector
    re, im = x[:, None, :n], x[:, None, n:]
    # the 2-norm as np.linalg.norm sums it for a complex vector, by BLAS dot,
    # whose fused multiply-adds a Python sum of squares would not match:
    # (m, 1, n) @ (m, n, 1) takes matmul's vector-vector path, that dot,
    # over the unit strides of a contiguous half
    squares = re @ re.transpose(0, 2, 1) + im @ im.transpose(0, 2, 1)
    # numpy divides a complex by a real x as its two parts times 1/x
    parts = x * (1.0 / np.sqrt(squares.reshape(-1, 1)))
    z = np.empty((len(x), n), dtype=complex)
    z.real, z.imag = parts[:, :n], parts[:, n:]  # copies, bit for bit
    return list(map(tuple, z.tolist()))


def _units(draws: Sequence[np.ndarray]) -> list[tuple[complex, ...]]:
    """`_unit_rows` of each 1-D normal draw, the draws of one length
    normalized as one stack."""
    rows: dict[int, list[int]] = {}  # draw length -> indices of the draws
    for i, x in enumerate(draws):
        rows.setdefault(len(x), []).append(i)
    units = [()] * len(draws)
    for size, indices in rows.items():
        stack = np.array([draws[i] for i in indices]).reshape(len(indices), size)
        for i, unit in zip(indices, _unit_rows(stack)):
            units[i] = unit
    return units


def random_states(
    rng: np.random.Generator, dims: Sequence[int], spins: Optional[Sequence[Spin]] = None
) -> list[SingleParticleState]:
    """A random state of each dimension of `dims`: 4 normal draws for its
    modes, then 2d for its dist vector.  With `spins` given, state i has spin
    `spins[i]` and every state's draws come from one `normal` call; without,
    each state draws its modes, its spin (one `integers(2)` draw) and its dist
    vector in turn, so the states of one call per dimension and of one call
    for all read the same stream."""
    draws = []
    if spins is None:
        spins = []
        for d in dims:
            draws.append(rng.normal(size=4))
            spins.append(Spin.UP if rng.integers(2) == 0 else Spin.DOWN)
            draws.append(rng.normal(size=2 * d))
    else:
        x, at = rng.normal(size=sum(4 + 2 * d for d in dims)), 0
        for d in dims:
            draws += (x[at : at + 4], x[at + 4 : at + 4 + 2 * d])
            at += 4 + 2 * d
    units = _units(draws)
    return [
        SingleParticleState(SpatialAmplitudes(*modes), spin, DistVector(dist))
        for modes, spin, dist in zip(units[0::2], spins, units[1::2], strict=True)
    ]


def random_updown_pairs(
    rng: np.random.Generator, dims: Sequence[int]
) -> list[tuple[SingleParticleState, SingleParticleState]]:
    """An (up, down) pair of each dimension of `dims`, from one `normal` call."""
    spins = [Spin.UP, Spin.DOWN] * len(dims)
    states = random_states(rng, [d for d in dims for _ in range(2)], spins)
    return list(zip(states[0::2], states[1::2]))


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


#: trials per block of a stacked suite: it bounds the memory a suite holds at
#: once, which otherwise grows with `--trials`, and is a multiple of 3, so a
#: block's trial j has the dimension 1 + j % 3 of the suite's trial it is
_BLOCK = 150


def _in_blocks(suite: Callable) -> Callable:
    """`suite` run on blocks of at most `_BLOCK` trials in turn.  Each block
    draws after the one before it, so the blocks read the generator's stream
    as one run of every trial does, and each deviation keeps its bits."""

    def run(rng: np.random.Generator, trials: int):
        for start in range(0, trials, _BLOCK):
            yield from suite(rng, min(_BLOCK, trials - start))

    return run


def _per_dimension(trials: Sequence, stacked: Callable[[Sequence], Sequence]) -> list:
    """`stacked` of the trials of each dimension, one result per trial, read
    back in trial order; trial k has dimension 1 + k % 3."""
    out = [None] * len(trials)
    for first in range(min(3, len(trials))):
        out[first::3] = stacked(trials[first::3])
    return out


def _state_trials(rng, trials, size):
    # `size` states of dimension 1 + k % 3 for each trial k, each drawn with
    # its spin, in trial order
    states = random_states(rng, [1 + k % 3 for k in range(trials) for _ in range(size)])
    return [states[at : at + size] for at in range(0, len(states), size)]


def _pair_trials(rng, trials):
    return random_updown_pairs(rng, [1 + k % 3 for k in range(trials)])


def _labeled_transitions(trials):
    # trial (bra, ket) -> <sym(bra)|sym(ket)>, the two stacked in one
    tensors = fq_oracle.symmetrize_stack([pair for trial in trials for pair in trial])
    return fq_oracle.labeled_inner_stack(tensors[0::2], tensors[1::2])


def _suite_transition_vs_labeled(rng, trials):
    pairs = [((c, e), (a, b)) for a, b, c, e in _state_trials(rng, trials, 4)]  # (bra, ket)
    brute = _per_dimension(pairs, _labeled_transitions)
    for (bra, ket), labeled in zip(pairs, brute):
        yield abs(nolabel_algebra.transition_two(bra, ket) - labeled)


def _labeled_norms(pairs):
    tensors = fq_oracle.symmetrize_stack(pairs)
    return fq_oracle.labeled_inner_stack(tensors, tensors)


def _suite_symmetrized_norm(rng, trials):
    pairs = _state_trials(rng, trials, 2)
    for (p1, p2), labeled in zip(pairs, _per_dimension(pairs, _labeled_norms)):
        expected = 1.0 + abs(inner_single(p1, p2)) ** 2
        yield abs(labeled.real - expected)
        yield abs(nolabel_algebra.transition_two((p1, p2), (p1, p2)) - expected)


def _suite_single_projection(rng, trials):
    for a, b, c, e in _state_trials(rng, trials, 4):
        residual = nolabel_algebra.project_single(c, (a, b))
        contracted = nolabel_algebra.contract_residual(e, residual) * SQRT2
        yield abs(contracted - nolabel_algebra.transition_two((c, e), (a, b)))


def _embedding_gaps(trials):
    # trial (pair, its expansion) -> the largest gap between the expansion
    # re-embedded and the pair's symmetrized tensor
    labeled = fq_oracle.to_labeled_stack([expansion for _, expansion in trials])
    symmetrized = fq_oracle.symmetrize_stack([pair for pair, _ in trials])
    return np.max(np.abs(labeled - symmetrized), axis=(1, 2)).tolist()


def _suite_expansion_completeness(rng, trials):
    pairs = _pair_trials(rng, trials)
    expansions = [nolabel_algebra.expand_in_detector_basis(*pair) for pair in pairs]
    # re-embedding the expansion must reproduce the symmetrized tensor
    gaps = _per_dimension(list(zip(pairs, expansions)), _embedding_gaps)
    for expansion, gap in zip(expansions, gaps):
        total = sum(abs(c) ** 2 for c, _ in expansion.terms)
        yield abs(total - 1.0)
        yield gap


def _oracle_reads(pairs):
    # pair -> (oracle_postselected_density, mode_pattern_weights) of its
    # symmetrized tensor
    tensors = fq_oracle.symmetrize_stack(pairs)
    densities = fq_oracle.postselected_density_stack(tensors)
    weights = fq_oracle.mode_pattern_weight_stack(tensors)
    return [(SpinDensityMatrix(m), w) for m, w in zip(densities, weights)]


def _suite_density_vs_oracle(rng, trials):
    pairs = _pair_trials(rng, trials)
    nds = [entanglement.number_distribution(*pair) for pair in pairs]
    # the direct pass against the composed route it reproduces, and both
    # against the oracle
    composed = [
        entanglement.trace_out_distinguishability(
            nolabel_algebra.postselect_one_per_detector(
                nolabel_algebra.expand_in_detector_basis(*pair)
            )
        ).matrix
        for pair in pairs
    ]
    oracle = _per_dimension(pairs, _oracle_reads)
    rhos = np.array([nd.state.matrix for nd in nds])
    composed_gaps, oracle_gaps = (
        np.max(np.abs(rhos - np.array(others)), axis=(1, 2)).tolist()
        for others in (composed, [density.matrix for density, _ in oracle])
    )
    for nd, composed_gap, oracle_gap, (density, weights) in zip(
        nds, composed_gaps, oracle_gaps, oracle
    ):
        yield composed_gap
        yield oracle_gap
        yield abs(nd.state.weight - density.weight)
        total = sum(weights.values())
        for key, probability in nd.probabilities.items():
            yield abs(probability - weights[key] / total)


def _suite_postselect_idempotent(rng, trials):
    for p_a, p_b in _pair_trials(rng, trials):
        once = nolabel_algebra.postselect_one_per_detector(
            nolabel_algebra.expand_in_detector_basis(p_a, p_b)
        )
        yield float(nolabel_algebra.postselect_one_per_detector(once) != once)


def _validity_deviations(matrices: list[np.ndarray]) -> np.ndarray:
    """Each matrix's Hermiticity deviation and the depth of its lowest
    eigenvalue below 0, in that order, matrix by matrix.

    One stacked call each; LAPACK factors each matrix of a stack alone, so a
    matrix reads the bits it would read on its own."""
    m = np.array(matrices)
    adjoint = m.conj().transpose(0, 2, 1)
    hermiticity = np.max(np.abs(m - adjoint), axis=(1, 2))
    # 0.0 - x, not -x, so a zero eigenvalue is a deviation of +0.0
    depth = 0.0 - np.min(np.linalg.eigvalsh((m + adjoint) / 2), axis=1)
    return np.stack((hermiticity, depth), axis=1).ravel()


def _suite_density_validity(rng, trials):
    return _validity_deviations(
        [
            entanglement.number_distribution(p_a, p_b).state.matrix
            for p_a, p_b in _pair_trials(rng, trials)
        ]
    )


def _uniform_rows(rng, trials, *bounds):
    # (trials, len(bounds)) draws, column j on bounds[j] = (low, high): row by
    # row, each cell has the bits of one scalar `uniform(low, high)` call
    low, high = zip(*bounds)
    return rng.uniform(low, high, size=(trials, len(bounds)))


def _wootters_vs_closed_form(rng, trials):
    draws, uniforms = [], []
    for _ in range(trials):
        x = rng.normal(size=8)
        draws += (x[:4], x[4:])
        uniforms.append(rng.uniform(0.0, (1.0, 2 * np.pi)))
    magnitudes, phases = np.array(uniforms).T
    overlaps = magnitudes * np.exp(1j * phases)
    modes = [SpatialAmplitudes(*unit) for unit in _units(draws)]
    nds, closed = [], []
    for alphas, betas, ov in zip(modes[0::2], modes[1::2], overlaps):
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        nds += row
        closed.append(entanglement.concurrence_closed_form(alphas, betas, ov))
    raw = entanglement.wootters_concurrence([nd.state for nd in nds])  # one stacked call
    gaps = np.abs(np.array(closed) - 2.0 * raw).tolist()
    for nd, gap, w in zip(nds, gaps, raw.tolist()):
        yield gap, abs(nd.concurrence - w / nd.state.weight)


def _suite_wootters_vs_closed_form(rng, trials):
    # the eigen route's raw concurrence against the closed form, every trial's,
    # then, divided by the (1,1) weight, against the X-state read that `sweep`
    # and `concurrence` print; a block leaves only these floats behind
    gaps, reads = zip(*_in_blocks(_wootters_vs_closed_form)(rng, trials))
    return gaps + reads


def _suite_balanced_manifold(rng, trials):
    u = _uniform_rows(rng, trials, *[(0.0, 2 * np.pi)] * 4, (0.0, 1.0))
    amplitudes = (1.0 / SQRT2) * np.exp(1j * u[:, :4])
    overlaps = u[:, 4].tolist()
    rhos = []
    for (a_l, a_r, b_l, b_r), ov in zip(amplitudes, overlaps):
        modes = (SpatialAmplitudes(a_l, a_r), SpatialAmplitudes(b_l, b_r))
        (row,) = optics.prepared_distributions([modes], [ov])
        rhos.append(row[0].state)
    normalized = entanglement.wootters_concurrence(rhos, normalize=True)  # one stacked call
    return np.abs(normalized - np.array([ov**2 for ov in overlaps]))


def _suite_optical_splice(rng, trials):
    for theta, sigma, l in _uniform_rows(
        rng, trials, (0.0, 45.0), (20.0, 200.0), (0.0, 400.0)
    ).tolist():
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        closed = entanglement.concurrence_closed_form(
            alphas, betas, optics.gaussian_overlap(l, "fitted", sigma)
        )
        yield abs(closed - optics.concurrence_optical(theta, l, sigma))


def _suite_quadrature_overlap(rng, trials):
    # Gauss-Hermite nodes make an independent evaluation of the overlap integral
    # of the two Gaussian spectral amplitudes, one row of 128 nodes per trial
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    delta, l = _uniform_rows(rng, trials, (0.002, 0.05), (0.0, 300.0)).T
    cosines = np.cos((np.sqrt(2.0) * delta * l)[:, None] * nodes)
    integrals = np.sum(weights * cosines, axis=1) / np.sqrt(np.pi)
    for d, dl, integral in zip(delta.tolist(), l.tolist(), integrals.tolist()):
        quad = optics.gaussian_overlap(dl, "quadrature", optics.delta_to_sigma(d))
        yield abs(quad - integral)


def _suite_hom_vs_oracle(rng, trials):
    # the oracle's (1,1) weight after the theta-parameterized two-mode merge,
    # at the trial's overlap and at the orthogonal pair, all in one stack
    orth = optics.dist_vectors_for_overlap(0.0)
    draws = _uniform_rows(rng, trials, (0.0, 45.0), (0.0, 1.0)).tolist()
    pairs = []
    for theta, ov in draws:
        t = math.radians(theta)
        s, c = math.sin(2.0 * t), math.cos(2.0 * t)
        a, b = SpatialAmplitudes(s, c), SpatialAmplitudes(c, -s)
        for dists in (optics.dist_vectors_for_overlap(ov), orth):
            pairs.append(tuple(SingleParticleState(m, Spin.UP, x) for m, x in zip((a, b), dists)))
    tensors = fq_oracle.symmetrize_stack(pairs)
    weights = [w[(1, 1)] for w in fq_oracle.mode_pattern_weight_stack(tensors)]
    for (theta, ov), w_at_ov, w_at_0 in zip(draws, weights[0::2], weights[1::2]):
        direct = 1000.0 * w_at_ov / w_at_0
        level = optics.hom_coincidence(optics.hom_visibility(theta), ov**2, 1000.0)
        yield abs(level - direct)


def _suite_monotonicity(rng, trials):
    # one deviation: the number of grid lines on which some step of the
    # concurrence is not >= 0; a nan step is not, so it counts
    thetas = np.linspace(0.0, 45.0, 19)
    overlaps = np.linspace(0.0, 1.0, 21)
    values = np.empty((len(thetas), len(overlaps)))
    for i, th in enumerate(thetas):
        alphas, betas = optics.spatial_amplitudes_from_theta(th)
        for j, ov in enumerate(overlaps):
            values[i, j] = entanglement.concurrence_closed_form(alphas, betas, ov)
    order = np.argsort([optics.spatial_overlap_factor(t) for t in thetas])
    rising_rows = np.all(np.diff(values, axis=1) >= 0.0, axis=1)
    rising_columns = np.all(np.diff(values[order], axis=0) >= 0.0, axis=0)
    yield float(np.sum(~rising_rows) + np.sum(~rising_columns))


def _suite_ep_relation(rng, trials):
    nds, closed = [], []
    for theta, ov in _uniform_rows(rng, trials, (0.0, 45.0), (0.0, 1.0)).tolist():
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        nds += row
        closed.append(entanglement.concurrence_closed_form(alphas, betas, ov))
    # one stacked call each; P(1,1) = s^4 + c^4 >= 1/2 on this family, so
    # every (1,1) sector has weight
    concurrence = entanglement.wootters_concurrence([nd.state for nd in nds], normalize=True)
    e_p = entanglement.entanglement_of_particles(nds, concurrence)
    return np.abs(e_p - np.array(closed) / 2.0)


def _suite_exponent_relation(rng, trials):
    # optical Gaussian factor = paper overlap = quadrature overlap^4
    for sigma, l in _uniform_rows(rng, trials, (20.0, 200.0), (0.0, 300.0)).tolist():
        # the optical law's Gaussian, by a scalar np.exp (see the module docstring)
        factor = np.exp(-(l**2) / (2.0 * sigma**2))
        paper = optics.gaussian_overlap(l, "paper", sigma)
        quad = optics.gaussian_overlap(l, "quadrature", sigma)
        yield abs(paper - factor)
        yield abs(quad**4 - factor)


_CHECK_SUITES = (
    ("transition_vs_labeled_oracle", _in_blocks(_suite_transition_vs_labeled), ATOL_EXACT),
    ("symmetrized_norm_bunching", _in_blocks(_suite_symmetrized_norm), ATOL_EXACT),
    ("single_bra_projection", _in_blocks(_suite_single_projection), ATOL_EXACT),
    ("detector_expansion_completeness", _in_blocks(_suite_expansion_completeness), ATOL_EXACT),
    ("postselected_density_vs_oracle", _in_blocks(_suite_density_vs_oracle), ATOL_EXACT),
    ("postselect_idempotent", _in_blocks(_suite_postselect_idempotent), 0.5),
    ("density_matrix_validity", _in_blocks(_suite_density_validity), ATOL_EXACT),
    ("closed_form_vs_wootters_raw", _suite_wootters_vs_closed_form, ATOL_PIPELINE),
    ("balanced_manifold_concurrence", _in_blocks(_suite_balanced_manifold), ATOL_PIPELINE),
    ("optical_law_splice", _in_blocks(_suite_optical_splice), ATOL_EXACT),
    ("quadrature_overlap_integral", _in_blocks(_suite_quadrature_overlap), ATOL_PIPELINE),
    ("hom_level_vs_oracle", _in_blocks(_suite_hom_vs_oracle), ATOL_EXACT),
    ("concurrence_monotonicity", _suite_monotonicity, 0.5),
    ("occupation_weighted_vs_half_closed_form", _in_blocks(_suite_ep_relation), ATOL_PIPELINE),
    ("overlap_exponent_relation", _in_blocks(_suite_exponent_relation), ATOL_EXACT),
)


def run_suites(trials: int = 100, seed: int = 0) -> list[SuiteResult]:
    """Run all suites with `trials` random draws each.

    A suite yields, or returns as an array, every deviation it measures; its
    `max_deviation` is the largest of them (0 for none, nan if any is nan),
    and a nan fails the suite as a deviation above its tolerance does."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    results = []
    for index, (name, fn, tol) in enumerate(_CHECK_SUITES):
        rng = np.random.default_rng([seed, index])
        dev = float(np.max(np.fromiter(fn(rng, trials), float), initial=0.0))
        results.append(SuiteResult(name, dev, tol))
    return results
