"""Randomized cross-check suites between the algebraic and oracle routes.

Each suite draws random states, evaluates the same quantity along two
independent routes, and reports the worst deviation.  The labeled-tensor
oracle (`fq_oracle`) is used here and in the tests only.  `kind == "check"`
suites carry a tolerance and fail the run; `kind == "report"` suites are
informational only -- they quantify a relation that is deliberately reported
rather than asserted (the exponent-convention gap).
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
    kind: str  # "check" or "report"
    max_deviation: float
    tolerance: Optional[float]
    passed: bool
    note: str = ""


def _unit_complex(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=n) + 1j * rng.normal(size=n)
    return v / np.linalg.norm(v)


def random_state(
    rng: np.random.Generator, d: int, spin: Optional[Spin] = None
) -> SingleParticleState:
    sp = _unit_complex(rng, 2)
    if spin is None:
        spin = Spin.UP if rng.integers(2) == 0 else Spin.DOWN
    return SingleParticleState(
        SpatialAmplitudes(sp[0], sp[1]), spin, DistVector(tuple(_unit_complex(rng, d)))
    )


def random_updown_pair(
    rng: np.random.Generator, d: int
) -> tuple[SingleParticleState, SingleParticleState]:
    return random_state(rng, d, Spin.UP), random_state(rng, d, Spin.DOWN)


def _pipeline_density(p_a, p_b):
    expansion = nolabel_algebra.expand_in_detector_basis(p_a, p_b)
    kept = nolabel_algebra.postselect_one_per_detector(expansion)
    return entanglement.trace_out_distinguishability(kept)


# ---------------------------------------------------------------------------
# check suites
# ---------------------------------------------------------------------------


def _suite_transition_vs_labeled(rng, trials):
    dev = 0.0
    for k in range(trials):
        d = 1 + k % 3
        a, b, c, e = (random_state(rng, d) for _ in range(4))
        algebraic = nolabel_algebra.transition_two((c, e), (a, b))
        brute = fq_oracle.labeled_inner(
            fq_oracle.symmetrize(c, e), fq_oracle.symmetrize(a, b)
        )
        dev = max(dev, abs(algebraic - brute))
    return dev


def _suite_symmetrized_norm(rng, trials):
    dev = 0.0
    for k in range(trials):
        d = 1 + k % 3
        p1, p2 = random_state(rng, d), random_state(rng, d)
        expected = 1.0 + abs(inner_single(p1, p2)) ** 2
        sym = fq_oracle.symmetrize(p1, p2)
        dev = max(dev, abs(fq_oracle.labeled_norm_sq(sym) - expected))
        dev = max(dev, abs(nolabel_algebra.transition_two((p1, p2), (p1, p2)) - expected))
    return dev


def _suite_single_projection(rng, trials):
    dev = 0.0
    for k in range(trials):
        d = 1 + k % 3
        a, b, c, e = (random_state(rng, d) for _ in range(4))
        residual = nolabel_algebra.project_single(c, (a, b))
        contracted = nolabel_algebra.contract_residual(e, residual) * np.sqrt(2.0)
        dev = max(dev, abs(contracted - nolabel_algebra.transition_two((c, e), (a, b))))
    return dev


def _suite_expansion_completeness(rng, trials):
    dev = 0.0
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        expansion = nolabel_algebra.expand_in_detector_basis(p_a, p_b)
        total = sum(abs(c) ** 2 for c, _ in expansion.terms)
        dev = max(dev, abs(total - 1.0))
        # re-embedding the expansion must reproduce the symmetrized tensor
        diff = fq_oracle.to_labeled(expansion, d).amps - fq_oracle.symmetrize(p_a, p_b).amps
        dev = max(dev, float(np.max(np.abs(diff))))
    return dev


def _suite_density_vs_oracle(rng, trials):
    dev = 0.0
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        nd = entanglement.number_distribution(p_a, p_b)
        rho = nd.state
        labeled = fq_oracle.symmetrize(p_a, p_b)
        oracle = fq_oracle.oracle_postselected_density(labeled)
        dev = max(dev, float(np.max(np.abs(rho.matrix - oracle.matrix))))
        dev = max(dev, abs(rho.weight - oracle.weight))
        weights = fq_oracle.mode_pattern_weights(labeled)
        total = sum(weights.values())
        for key, probability in nd.probabilities.items():
            dev = max(dev, abs(probability - weights[key] / total))
    return dev


def _suite_postselect_idempotent(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        once = nolabel_algebra.postselect_one_per_detector(
            nolabel_algebra.expand_in_detector_basis(p_a, p_b)
        )
        if nolabel_algebra.postselect_one_per_detector(once) != once:
            return 1.0
    return 0.0


def _suite_density_validity(rng, trials):
    dev = 0.0
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        rho = _pipeline_density(p_a, p_b)
        m = rho.matrix
        dev = max(dev, float(np.max(np.abs(m - m.conj().T))))
        dev = max(dev, max(0.0, -float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))))
        dev = max(dev, abs(float(np.trace(m).real) - rho.weight))
    return dev


def _suite_wootters_vs_closed_form(rng, trials):
    dev = 0.0
    for _ in range(trials):
        alphas = SpatialAmplitudes(*_unit_complex(rng, 2))
        betas = SpatialAmplitudes(*_unit_complex(rng, 2))
        ov = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
        p_a = SingleParticleState(alphas, Spin.UP, phi_a)
        p_b = SingleParticleState(betas, Spin.DOWN, phi_b)
        rho = _pipeline_density(p_a, p_b)
        closed = entanglement.concurrence_closed_form(alphas, betas, ov)
        dev = max(dev, abs(closed - 2.0 * entanglement.wootters_concurrence(rho)))
    return dev


def _suite_balanced_manifold(rng, trials):
    dev = 0.0
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    for _ in range(trials):
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4))
        alphas = SpatialAmplitudes(inv_sqrt2 * phases[0], inv_sqrt2 * phases[1])
        betas = SpatialAmplitudes(inv_sqrt2 * phases[2], inv_sqrt2 * phases[3])
        ov = rng.uniform(0.0, 1.0)
        phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
        p_a = SingleParticleState(alphas, Spin.UP, phi_a)
        p_b = SingleParticleState(betas, Spin.DOWN, phi_b)
        rho = _pipeline_density(p_a, p_b)
        dev = max(dev, abs(entanglement.wootters_concurrence(rho, normalize=True) - ov**2))
    return dev


def _suite_optical_splice(rng, trials):
    dev = 0.0
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        sigma = rng.uniform(20.0, 200.0)
        l = rng.uniform(0.0, 400.0)
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        closed = entanglement.concurrence_closed_form(
            alphas, betas, optics.gaussian_overlap(l, "fitted", sigma)
        )
        dev = max(dev, abs(closed - optics.concurrence_optical(theta, l, sigma)))
    return dev


def _suite_quadrature_overlap(rng, trials):
    # Gauss-Hermite nodes make an independent evaluation of the overlap
    # integral of the two Gaussian spectral amplitudes
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    dev = 0.0
    for _ in range(trials):
        delta = rng.uniform(0.002, 0.05)
        l = rng.uniform(0.0, 300.0)
        integral = float(
            np.sum(weights * np.cos(np.sqrt(2.0) * delta * l * nodes)) / np.sqrt(np.pi)
        )
        quad = optics.gaussian_overlap(l, "quadrature", optics.delta_to_sigma(delta))
        dev = max(dev, abs(quad - integral))
    return dev


def _merge_coincidence_weight(theta_deg: float, dist_a: DistVector, dist_b: DistVector) -> float:
    """(1,1) weight after the theta-parameterized two-mode merge, by oracle."""
    t = math.radians(theta_deg)
    s, c = math.sin(2.0 * t), math.cos(2.0 * t)
    p_a = SingleParticleState(SpatialAmplitudes(s, c), Spin.UP, dist_a)
    p_b = SingleParticleState(SpatialAmplitudes(c, -s), Spin.UP, dist_b)
    labeled = fq_oracle.symmetrize(p_a, p_b)
    return fq_oracle.mode_pattern_weights(labeled)[(1, 1)]


def _suite_hom_vs_oracle(rng, trials):
    dev = 0.0
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        ov = rng.uniform(0.0, 1.0)
        phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
        w_at_ov = _merge_coincidence_weight(theta, phi_a, phi_b)
        orth = optics.dist_vectors_for_overlap(0.0)
        w_at_0 = _merge_coincidence_weight(theta, orth[0], orth[1])
        direct = 1000.0 * w_at_ov / w_at_0
        dev = max(dev, abs(optics.hom_coincidence(theta, ov, 1000.0) - direct))
    return dev


def _suite_monotonicity(rng, trials):
    thetas = np.linspace(0.0, 45.0, 19)
    overlaps = np.linspace(0.0, 1.0, 21)
    violations = 0
    values = np.empty((len(thetas), len(overlaps)))
    for i, th in enumerate(thetas):
        alphas, betas = optics.spatial_amplitudes_from_theta(th)
        for j, ov in enumerate(overlaps):
            values[i, j] = entanglement.concurrence_closed_form(alphas, betas, ov)
    for i in range(len(thetas)):
        if np.any(np.diff(values[i]) < 0.0):
            violations += 1
    order = np.argsort([optics.spatial_overlap_factor(t) for t in thetas])
    for j in range(len(overlaps)):
        if np.any(np.diff(values[order, j]) < 0.0):
            violations += 1
    return float(violations)


def _suite_ep_relation(rng, trials):
    dev = 0.0
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        ov = rng.uniform(0.0, 1.0)
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
        p_a = SingleParticleState(alphas, Spin.UP, phi_a)
        p_b = SingleParticleState(betas, Spin.DOWN, phi_b)
        e_p = entanglement.entanglement_of_particles(
            entanglement.number_distribution(p_a, p_b)
        )
        closed = entanglement.concurrence_closed_form(alphas, betas, ov)
        dev = max(dev, abs(e_p - closed / 2.0))
    return dev


# ---------------------------------------------------------------------------
# report suites
# ---------------------------------------------------------------------------


def _report_exponent_relation(rng, trials):
    dev = 0.0
    for _ in range(trials):
        sigma = rng.uniform(20.0, 200.0)
        l = rng.uniform(0.0, 300.0)
        factor = np.exp(-(l**2) / (2.0 * sigma**2))  # optical law's Gaussian
        paper = optics.gaussian_overlap(l, "paper", sigma)
        quad = optics.gaussian_overlap(l, "quadrature", sigma)
        dev = max(dev, abs(paper - factor), abs(quad**4 - factor))
    return dev


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
)

_REPORT_SUITES = (
    (
        "overlap_exponent_relation",
        _report_exponent_relation,
        "optical Gaussian factor = paper overlap = quadrature overlap^4",
    ),
)


def run_suites(trials: int = 100, seed: int = 0) -> list[SuiteResult]:
    """Run all suites with `trials` random draws each; reports never fail."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    results = []
    for index, (name, fn, tol) in enumerate(_CHECK_SUITES):
        rng = np.random.default_rng([seed, index])
        dev = float(fn(rng, trials))
        results.append(SuiteResult(name, "check", dev, tol, dev <= tol))
    for index, (name, fn, note) in enumerate(_REPORT_SUITES):
        rng = np.random.default_rng([seed, 1000 + index])
        dev = float(fn(rng, trials))
        results.append(SuiteResult(name, "report", dev, None, True, note))
    return results
