"""Spin entanglement of the post-selected pair.

Tracing the unmeasured distinguishability degree out of a one-particle-per-
detector state leaves a two-qubit density matrix whose off-diagonal coherence
is damped by |<phi_A|phi_B>|^2 -- partial distinguishability converts the
pure superposition into a mixture.  This module computes that matrix, its
Wootters concurrence, the closed-form concurrence

    C = 4 |alpha_l alpha_r beta_l beta_r| |<phi_A|phi_B>|^2,

and the superselection-respecting average over detector occupation numbers
(bunched sectors carry no accessible spin entanglement), all from the
unordered-ket algebra of `nolabel_algebra`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core_state import (
    ATOL_EXACT,
    ATOL_PIPELINE,
    SingleParticleState,
    SpatialAmplitudes,
    SpinDensityMatrix,
)
from .nolabel_algebra import (
    SymmetricTwoBosonState,
    detector_mode,
    expand_in_detector_basis,
    norm_sq,
    postselect_one_per_detector,
)


class NotPostSelectedError(ValueError):
    """The input still contains double-occupancy (LL or RR) terms."""


class NoPostSelectionSupportError(ValueError):
    """Normalization was requested but the post-selected weight is zero."""


def trace_out_distinguishability(s: SymmetricTwoBosonState) -> SpinDensityMatrix:
    """Partial trace over the distinguishability vectors of a (1,1) state.

    Every term must hold exactly one particle at L and one at R; accumulate
    rho[(sL,sR),(sL',sR')] from pairwise dist overlaps, which is equivalent
    to summing projections onto any orthonormal distinguishability basis but
    never materializes one.  The result is unnormalized: its trace is the
    post-selection weight.
    """
    # (row index, coefficient incl. mode phases, dist at L, dist at R)
    entries = []
    for coeff, (x, y) in s.terms:
        mx, my = detector_mode(x), detector_mode(y)
        if {mx, my} != {"L", "R"}:
            raise NotPostSelectedError(
                "state contains a double-occupancy term; apply "
                "postselect_one_per_detector before tracing"
            )
        at_l, at_r = (x, y) if mx == "L" else (y, x)
        row = 2 * at_l.spin.value + at_r.spin.value
        entries.append(
            (row, coeff * at_l.spatial.a_l * at_r.spatial.a_r, at_l.dist, at_r.dist)
        )
    rho = np.zeros((4, 4), dtype=complex)
    for i, ci, li, ri in entries:
        for j, cj, lj, rj in entries:
            rho[i, j] += ci * cj.conjugate() * lj.overlap(li) * rj.overlap(ri)
    return SpinDensityMatrix(rho, float(np.trace(rho).real))


_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)  # sigma_y (x) sigma_y, real in this basis


def _psd_sqrt(m: np.ndarray) -> np.ndarray:
    evals, evecs = np.linalg.eigh((m + m.conj().T) / 2)
    evals = np.clip(evals, 0.0, None)  # clip tiny negatives from roundoff
    return (evecs * np.sqrt(evals)) @ evecs.conj().T


def wootters_concurrence(rho: SpinDensityMatrix, normalize: bool = False) -> float:
    """max(0, l1 - l2 - l3 - l4) from the spin-flipped eigenvalue spectrum.

    The l_i are the square roots of the eigenvalues of rho rho~ with
    rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y), computed through the
    Hermitian similar product sqrt(rho) rho~ sqrt(rho) so only `eigvalsh`
    appears.  Without `normalize` the value scales linearly with the trace,
    which is what the closed-form comparison below relies on.
    """
    if normalize:
        if not rho.weight > 0.0:
            raise NoPostSelectionSupportError("no post-selection support (weight = 0)")
        m = rho.normalized()
    else:
        m = np.asarray(rho.matrix, dtype=complex)
    tilde = _SPIN_FLIP @ m.conj() @ _SPIN_FLIP
    root = _psd_sqrt(m)
    prod = root @ tilde @ root
    evals = np.linalg.eigvalsh((prod + prod.conj().T) / 2)
    # eigenvalues below ~1e-15 of the leading one are solver residue, not
    # spectrum; taking their square root would inject sqrt(eps)-sized noise
    # into the subtraction (pure states would read ~3e-9 instead of exact)
    evals[evals < evals[-1] * 1e-14] = 0.0
    lams = np.sqrt(np.clip(evals, 0.0, None))[::-1]
    return float(max(0.0, lams[0] - lams[1] - lams[2] - lams[3]))


def concurrence_closed_form(
    alphas: SpatialAmplitudes, betas: SpatialAmplitudes, overlap: complex
) -> float:
    """C = 4 |alpha_l alpha_r beta_l beta_r| |overlap|^2.

    Equals twice the unnormalized Wootters concurrence of the post-selected
    matrix, and coincides with the normalized one exactly on the balanced
    manifold |alpha_l beta_r| = |alpha_r beta_l|.
    """
    mag = abs(overlap)
    if mag > 1.0 + ATOL_EXACT:
        raise ValueError(f"|overlap| = {mag:.12g} exceeds 1")
    return 4.0 * abs(alphas.a_l * alphas.a_r * betas.a_l * betas.a_r) * mag**2


@dataclass(frozen=True)
class NumberDistribution:
    """Detector occupation sectors of the symmetrized pair.

    `probabilities` maps (n_L, n_R) to the sector's probability; `state` is
    the unnormalized post-selected spin matrix of the (1,1) sector, whose
    trace is that sector's weight before the bunching normalization.
    """

    probabilities: dict[tuple[int, int], float]
    state: SpinDensityMatrix

    @cached_property
    def concurrence(self) -> float:
        """Normalized Wootters concurrence of the (1,1) sector, computed on
        first read; raises `NoPostSelectionSupportError` when it has no
        weight."""
        return wootters_concurrence(self.state, normalize=True)


def number_distribution(
    p_a: SingleParticleState, p_b: SingleParticleState
) -> NumberDistribution:
    """Occupation-number sectors of the symmetrized (up, down) pair.

    One detector-basis expansion is split by occupation (n_L, n_R); each
    sector's probability is the squared norm of its terms over the total,
    which carries the 1 + |<Psi_A|Psi_B>|^2 bunching normalization.  The
    (1,1) sector keeps its unnormalized spin matrix, the distinguishability
    trace of the post-selected expansion.
    """
    expansion = expand_in_detector_basis(p_a, p_b)
    groups = {(2, 0): [], (1, 1): [], (0, 2): []}
    for coeff, pair in expansion.terms:
        n_l = sum(detector_mode(s) == "L" for s in pair)
        groups[(n_l, 2 - n_l)].append((coeff, pair))
    # a subset of a canonical state's terms is canonical as it stands
    weights = {key: norm_sq(SymmetricTwoBosonState(tuple(t))) for key, t in groups.items()}
    total = sum(weights.values())
    rho = trace_out_distinguishability(postselect_one_per_detector(expansion))
    return NumberDistribution({key: w / total for key, w in weights.items()}, rho)


def entanglement_of_particles(nd: NumberDistribution) -> float:
    """Occupation-weighted entanglement E_P = P(1,1) C(1,1).

    Bunched sectors contribute zero (their spin state is not accessible to
    local detectors); the (1,1) sector contributes its normalized Wootters
    concurrence weighted by its probability.
    """
    probabilities = nd.probabilities.values()
    total = sum(probabilities)
    if abs(total - 1.0) > ATOL_PIPELINE:
        raise ValueError(f"sector probabilities sum to {total:.12g}, not 1")
    if any(p < -ATOL_EXACT for p in probabilities):
        raise ValueError("sector probabilities must be nonnegative")
    p11 = nd.probabilities[(1, 1)]
    return float(p11 * nd.concurrence) if p11 > 0.0 else 0.0


__all__ = [
    "NoPostSelectionSupportError",
    "NotPostSelectedError",
    "NumberDistribution",
    "SpinDensityMatrix",
    "concurrence_closed_form",
    "entanglement_of_particles",
    "number_distribution",
    "trace_out_distinguishability",
    "wootters_concurrence",
]
