"""Randomized cross-check suites between the algebraic and oracle routes.

Each suite draws random states, evaluates the same quantity along two
independent routes, and yields every deviation it measures.  `run_suites`
alone reduces them: it reports the largest against the suite's tolerance,
and a deviation above it, or a nan, fails the run.  The labeled-tensor
oracle (`fq_oracle`) is used here and in the tests only.

The random states are drawn as Python complexes, with the bits the numpy
route `v / norm(v)` gives.  One `normal` call of 2n draws gives a vector's
real parts, then its imaginary parts, the stream a (2, n) draw reads; a
state whose spin is given draws its mode and dist vectors in one call, as no
spin draw comes between them.  The norm is still summed by `ndarray.dot`
over each half, because BLAS may fuse its multiply-adds and a Python sum of
squares would then differ in the last bit, and every part is multiplied by
`1/norm` in numpy, because that is how numpy divides a complex by a real.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core_state import (
    ATOL_EXACT,
    ATOL_PIPELINE,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
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


def _unit(x: np.ndarray) -> tuple[complex, ...]:
    """The unit vector whose real parts are the first half of the normal
    draws `x` and whose imaginary parts are the second half."""
    n = len(x) // 2
    if n == 0:
        return ()  # for DistVector to refuse, as it refuses any empty vector
    re, im = x[:n], x[n:]
    # the 2-norm as np.linalg.norm computes it for a complex vector, by BLAS
    # dot, whose fused multiply-adds a Python sum of squares would not match
    scale = 1.0 / math.sqrt(re.dot(re) + im.dot(im))
    # numpy divides a complex by a real x as its two parts times 1/x
    parts = (x * scale).tolist()
    return tuple(map(complex, parts[:n], parts[n:]))


def _unit_complex(rng: np.random.Generator, n: int) -> tuple[complex, ...]:
    return _unit(rng.normal(size=2 * n))  # the same draws as two size-n calls


def random_state(
    rng: np.random.Generator, d: int, spin: Optional[Spin] = None
) -> SingleParticleState:
    if spin is None:
        sp = _unit_complex(rng, 2)
        spin = Spin.UP if rng.integers(2) == 0 else Spin.DOWN
        dist = _unit_complex(rng, d)
    else:
        # no spin draw comes between the two vectors, so one call draws both
        x = rng.normal(size=4 + 2 * d)
        sp, dist = _unit(x[:4]), _unit(x[4:])
    return SingleParticleState(SpatialAmplitudes(*sp), spin, DistVector(dist))


def random_updown_pair(
    rng: np.random.Generator, d: int
) -> tuple[SingleParticleState, SingleParticleState]:
    return random_state(rng, d, Spin.UP), random_state(rng, d, Spin.DOWN)


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _suite_transition_vs_labeled(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        a, b, c, e = (random_state(rng, d) for _ in range(4))
        algebraic = nolabel_algebra.transition_two((c, e), (a, b))
        brute = fq_oracle.labeled_inner(
            fq_oracle.symmetrize(c, e), fq_oracle.symmetrize(a, b)
        )
        yield abs(algebraic - brute)


def _suite_symmetrized_norm(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        p1, p2 = random_state(rng, d), random_state(rng, d)
        expected = 1.0 + abs(inner_single(p1, p2)) ** 2
        sym = fq_oracle.symmetrize(p1, p2)
        yield abs(fq_oracle.labeled_inner(sym, sym).real - expected)
        yield abs(nolabel_algebra.transition_two((p1, p2), (p1, p2)) - expected)


def _suite_single_projection(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        a, b, c, e = (random_state(rng, d) for _ in range(4))
        residual = nolabel_algebra.project_single(c, (a, b))
        contracted = nolabel_algebra.contract_residual(e, residual) * np.sqrt(2.0)
        yield abs(contracted - nolabel_algebra.transition_two((c, e), (a, b)))


def _suite_expansion_completeness(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        expansion = nolabel_algebra.expand_in_detector_basis(p_a, p_b)
        total = sum(abs(c) ** 2 for c, _ in expansion.terms)
        yield abs(total - 1.0)
        # re-embedding the expansion must reproduce the symmetrized tensor
        diff = fq_oracle.to_labeled(expansion).amps - fq_oracle.symmetrize(p_a, p_b).amps
        yield float(np.max(np.abs(diff)))


def _suite_density_vs_oracle(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        nd = entanglement.number_distribution(p_a, p_b)
        rho = nd.state
        # the direct pass against the composed route it reproduces
        composed = entanglement.trace_out_distinguishability(
            nolabel_algebra.postselect_one_per_detector(
                nolabel_algebra.expand_in_detector_basis(p_a, p_b)
            )
        )
        yield float(np.max(np.abs(rho.matrix - composed.matrix)))
        labeled = fq_oracle.symmetrize(p_a, p_b)
        oracle = fq_oracle.oracle_postselected_density(labeled)
        yield float(np.max(np.abs(rho.matrix - oracle.matrix)))
        yield abs(rho.weight - oracle.weight)
        weights = fq_oracle.mode_pattern_weights(labeled)
        total = sum(weights.values())
        for key, probability in nd.probabilities.items():
            yield abs(probability - weights[key] / total)


def _suite_postselect_idempotent(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
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
    rhos = []
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        rhos.append(entanglement.number_distribution(p_a, p_b).state.matrix)
    return _validity_deviations(rhos)


def _suite_wootters_vs_closed_form(rng, trials):
    # the eigen route's raw concurrence against the closed form, and, divided
    # by the (1,1) weight, against the X-state read that `sweep` and
    # `concurrence` print
    nds, closed = [], []
    for _ in range(trials):
        alphas = SpatialAmplitudes(*_unit_complex(rng, 2))
        betas = SpatialAmplitudes(*_unit_complex(rng, 2))
        ov = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        nds += row
        closed.append(entanglement.concurrence_closed_form(alphas, betas, ov))
    raw = entanglement.wootters_concurrence([nd.state for nd in nds])  # one stacked call
    yield from np.abs(np.array(closed) - 2.0 * raw).tolist()
    for nd, w in zip(nds, raw.tolist()):
        yield abs(nd.concurrence - w / nd.state.weight)


def _suite_balanced_manifold(rng, trials):
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    rhos, expected = [], []
    for _ in range(trials):
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4))
        alphas = SpatialAmplitudes(inv_sqrt2 * phases[0], inv_sqrt2 * phases[1])
        betas = SpatialAmplitudes(inv_sqrt2 * phases[2], inv_sqrt2 * phases[3])
        ov = rng.uniform(0.0, 1.0)
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        rhos.append(row[0].state)
        expected.append(ov**2)
    normalized = entanglement.wootters_concurrence(rhos, normalize=True)  # one stacked call
    return np.abs(normalized - np.array(expected))


def _suite_optical_splice(rng, trials):
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        sigma = rng.uniform(20.0, 200.0)
        l = rng.uniform(0.0, 400.0)
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        closed = entanglement.concurrence_closed_form(
            alphas, betas, optics.gaussian_overlap(l, "fitted", sigma)
        )
        yield abs(closed - optics.concurrence_optical(theta, l, sigma))


def _suite_quadrature_overlap(rng, trials):
    # Gauss-Hermite nodes make an independent evaluation of the overlap
    # integral of the two Gaussian spectral amplitudes
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    for _ in range(trials):
        delta = rng.uniform(0.002, 0.05)
        l = rng.uniform(0.0, 300.0)
        integral = float(
            np.sum(weights * np.cos(np.sqrt(2.0) * delta * l * nodes)) / np.sqrt(np.pi)
        )
        quad = optics.gaussian_overlap(l, "quadrature", optics.delta_to_sigma(delta))
        yield abs(quad - integral)


def _merge_coincidence_weight(theta_deg: float, dist_a: DistVector, dist_b: DistVector) -> float:
    """(1,1) weight after the theta-parameterized two-mode merge, by oracle."""
    t = math.radians(theta_deg)
    s, c = math.sin(2.0 * t), math.cos(2.0 * t)
    p_a = SingleParticleState(SpatialAmplitudes(s, c), Spin.UP, dist_a)
    p_b = SingleParticleState(SpatialAmplitudes(c, -s), Spin.UP, dist_b)
    labeled = fq_oracle.symmetrize(p_a, p_b)
    return fq_oracle.mode_pattern_weights(labeled)[(1, 1)]


def _suite_hom_vs_oracle(rng, trials):
    orth = optics.dist_vectors_for_overlap(0.0)
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        ov = rng.uniform(0.0, 1.0)
        phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
        w_at_ov = _merge_coincidence_weight(theta, phi_a, phi_b)
        w_at_0 = _merge_coincidence_weight(theta, orth[0], orth[1])
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
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        ov = rng.uniform(0.0, 1.0)
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
    for _ in range(trials):
        sigma = rng.uniform(20.0, 200.0)
        l = rng.uniform(0.0, 300.0)
        factor = np.exp(-(l**2) / (2.0 * sigma**2))  # optical law's Gaussian
        paper = optics.gaussian_overlap(l, "paper", sigma)
        quad = optics.gaussian_overlap(l, "quadrature", sigma)
        yield abs(paper - factor)
        yield abs(quad**4 - factor)


_CHECK_SUITES = (
    ("transition_vs_labeled_oracle", _suite_transition_vs_labeled, ATOL_EXACT),
    ("symmetrized_norm_bunching", _suite_symmetrized_norm, ATOL_EXACT),
    ("single_bra_projection", _suite_single_projection, ATOL_EXACT),
    ("detector_expansion_completeness", _suite_expansion_completeness, ATOL_EXACT),
    ("postselected_density_vs_oracle", _suite_density_vs_oracle, ATOL_EXACT),
    ("postselect_idempotent", _suite_postselect_idempotent, 0.5),
    ("density_matrix_validity", _suite_density_validity, ATOL_EXACT),
    ("closed_form_vs_wootters_raw", _suite_wootters_vs_closed_form, ATOL_PIPELINE),
    ("balanced_manifold_concurrence", _suite_balanced_manifold, ATOL_PIPELINE),
    ("optical_law_splice", _suite_optical_splice, ATOL_EXACT),
    ("quadrature_overlap_integral", _suite_quadrature_overlap, ATOL_PIPELINE),
    ("hom_level_vs_oracle", _suite_hom_vs_oracle, ATOL_EXACT),
    ("concurrence_monotonicity", _suite_monotonicity, 0.5),
    ("occupation_weighted_vs_half_closed_form", _suite_ep_relation, ATOL_PIPELINE),
    ("overlap_exponent_relation", _suite_exponent_relation, ATOL_EXACT),
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
