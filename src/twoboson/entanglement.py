"""Spin entanglement of the post-selected pair.

Tracing the unmeasured distinguishability degree out of a one-particle-per-
detector state leaves a two-qubit density matrix whose off-diagonal coherence
is damped by |<phi_A|phi_B>|^2 -- partial distinguishability converts the
pure superposition into a mixture.  This module computes that matrix, its
Wootters concurrence, the closed-form concurrence

    C = 4 |alpha_l alpha_r beta_l beta_r| |<phi_A|phi_B>|^2,

and the superselection-respecting average over detector occupation numbers
(bunched sectors carry no accessible spin entanglement).
`number_distribution` builds the sector probabilities and the (1,1) matrix in
one direct pass over the two states, in the product order of the composed
route through the unordered-ket algebra of `nolabel_algebra`:
`expand_in_detector_basis`, `postselect_one_per_detector` and
`trace_out_distinguishability`.  That composition is the reference route the
tests and `verify` check the pass against; this module never imports
`nolabel_algebra`, so no production command loads the ket algebra.

The (1,1) matrix of an (up, down) pair lies in the middle block of
|L-up,R-down> and |L-down,R-up>: an X-state with empty corners, whose
normalized concurrence is 2 |rho[1,2]| / (rho[1,1] + rho[2,2]) (Yu & Eberly,
Quantum Inf. Comput. 7, 459, 2007).  `NumberDistribution.concurrence` reads
it so from the cells the pass sets, and `sweep` and `concurrence` print that
read.  `wootters_concurrence`, the spin-flipped spectrum of any two-qubit
matrix, is the general reference that `verify` and the tests check the read
against.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .core_state import (
    ATOL_EXACT,
    ATOL_PIPELINE,
    DETECTOR_L,
    DETECTOR_R,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    SpinDensityMatrix,
    ValidationError,
    _check_updown_pair,
)

if TYPE_CHECKING:
    from .nolabel_algebra import SymmetricTwoBosonState


#: bound once, so that a spin's index in SPIN_BASIS_LABELS is an identity
#: test instead of a read of `Spin.value` through the enum's descriptor
_UP = Spin.UP
#: the detector amplitudes the trace multiplies a coincident term's
#: coefficient by: the L particle's at L, the R particle's at R
_AT_L, _AT_R = DETECTOR_L.a_l, DETECTOR_R.a_r


class NotPostSelectedError(ValueError):
    """The input still contains double-occupancy (LL or RR) terms."""


class NoPostSelectionSupportError(ValueError):
    """Normalization was requested but the post-selected weight is zero."""


def trace_out_distinguishability(s: SymmetricTwoBosonState) -> SpinDensityMatrix:
    """Partial trace over the distinguishability vectors of a (1,1) state.

    Every term must hold exactly one particle at L and one at R; accumulate
    rho[(sL,sR),(sL',sR')] from pairwise dist overlaps, which is equivalent
    to summing projections onto any orthonormal distinguishability basis but
    never materializes one.  Each distinct dist vector is overlapped with
    each other one once, and with itself through its cached
    `DistVector.self_overlap`; the mirrored entry <b|a> is the conjugate of
    <a|b>.  Each of the 16 cells is a Python complex that starts at 0j and
    adds its products term pair by term pair, rows over columns, in term
    order; the 4x4 array is built once at the end.  The result is
    unnormalized: its trace is the post-selection weight.
    """
    # (row index, coefficient incl. mode phases, id of dist at L, at R)
    entries = []
    dists = {}  # the distinct dist vectors, by identity
    for coeff, (x, y) in s.terms:
        mx, my = x.spatial.detector_mode, y.spatial.detector_mode
        if mx == my or mx is None or my is None:
            raise NotPostSelectedError(
                "state contains a double-occupancy term; apply "
                "postselect_one_per_detector before tracing"
            )
        at_l, at_r = (x, y) if mx == "L" else (y, x)
        row = 2 * (at_l.spin is not _UP) + (at_r.spin is not _UP)
        dists[id(at_l.dist)] = at_l.dist
        dists[id(at_r.dist)] = at_r.dist
        entries.append(
            (row, coeff * at_l.spatial.a_l * at_r.spatial.a_r, id(at_l.dist), id(at_r.dist))
        )
    # ov[id(a), id(b)] = <a|b>
    ov = {}
    items = list(dists.items())
    for n, (ka, a) in enumerate(items):
        ov[ka, ka] = a.self_overlap
        for kb, b in items[n + 1 :]:
            ov[ka, kb] = a.overlap(b)
            ov[kb, ka] = ov[ka, kb].conjugate()
    cells = [0j] * 16  # rho[i, j] is cells[4 * i + j]
    for i, ci, li, ri in entries:
        for j, cj, lj, rj in entries:
            cells[4 * i + j] += ci * cj.conjugate() * ov[lj, li] * ov[rj, ri]
    return SpinDensityMatrix([cells[0:4], cells[4:8], cells[8:12], cells[12:16]])


_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)  # sigma_y (x) sigma_y, real in this basis


def wootters_concurrence(rhos, normalize: bool = False) -> np.ndarray:
    """max(0, l1 - l2 - l3 - l4) from the spin-flipped spectrum.

    `rhos` is a sequence of `SpinDensityMatrix`; the result is the array of
    their concurrences in order.  Every step below broadcasts over the stack,
    and numpy's gufuncs run the same LAPACK routine on each matrix, so a
    matrix reads the same bits alone or in a stack.

    The l_i are the square roots of the eigenvalues of rho rho~, with
    rho~ = S rho* S and S = sigma_y x sigma_y (Wootters, PRL 80, 2245, 1998).
    One `eigh` factors rho = r r^dagger with r = V sqrt(max(D, 0)); then
    rho rho~ = r (r^dagger S r*) (r^T S), whose nonzero spectrum is that of
    B^dagger B with B = r^T S r, so the l_i are the singular values of B.
    They come out of the SVD directly, never as square roots of computed
    eigenvalues, so no spectral cut is needed and a state near a pure one
    keeps its small l_i to roundoff instead of losing them or reading
    sqrt(eps)-sized noise.  Without `normalize` the value scales linearly
    with the trace, which is what the closed-form comparison below relies on;
    with it, any matrix of zero weight raises `NoPostSelectionSupportError`.
    A non-finite entry anywhere in the stack raises `ValidationError` first,
    raw or normalized.
    """
    m = np.array([r.matrix for r in rhos], dtype=complex).reshape(-1, 4, 4)
    finite = np.isfinite(m)
    if not finite.all():
        k, i, j = np.argwhere(~finite)[0].tolist()
        raise ValidationError(
            f"spin density matrix {k} has a non-finite entry {m[k, i, j]} at [{i}, {j}]"
        )
    if normalize:
        weights = np.array([r.weight for r in rhos])
        if not np.all(weights > 0.0):
            raise NoPostSelectionSupportError("no post-selection support (weight = 0)")
        m /= weights[:, None, None]
    evals, evecs = np.linalg.eigh(m)
    # clip tiny negatives from roundoff
    r = evecs * np.sqrt(np.clip(evals, 0.0, None))[:, None, :]
    lams = np.linalg.svd(r.transpose(0, 2, 1) @ _SPIN_FLIP @ r, compute_uv=False)  # descending
    c = lams[:, 0] - lams[:, 1] - lams[:, 2] - lams[:, 3]
    return np.where(c > 0.0, c, 0.0)  # max(0.0, c), which also reads -0.0 as 0.0


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
    `coherence` is its cell rho[1,2] where `state` is an X-state whose cells
    outside the middle block are zero, as `number_distribution` builds it;
    a distribution built from any other matrix leaves it None.
    """

    probabilities: dict[tuple[int, int], float]
    state: SpinDensityMatrix
    coherence: Optional[complex] = None

    @property
    def concurrence(self) -> float:
        """The normalized Wootters concurrence of the (1,1) sector, read from
        its X-state block as 2 |rho[1,2]| / (rho[1,1] + rho[2,2]).  The
        denominator is `state.weight`, the trace, whose corner cells are
        zero.  A non-finite cell raises `ValidationError` and a zero weight
        `NoPostSelectionSupportError`, as `wootters_concurrence` with
        `normalize` raises them; a distribution without its `coherence` has
        no X-state read and raises `ValueError`."""
        coherence, weight = self.coherence, self.state.weight
        if coherence is None:
            raise ValueError(
                "no X-state coherence: read this state with wootters_concurrence"
            )
        if not (cmath.isfinite(coherence) and math.isfinite(weight)):
            raise ValidationError(
                f"(1,1) spin matrix has a non-finite cell: rho[1,2] = {coherence}, "
                f"weight = {weight}"
            )
        if not weight > 0.0:
            raise NoPostSelectionSupportError("no post-selection support (weight = 0)")
        return 2.0 * abs(coherence) / weight


def number_distribution(
    p_a: SingleParticleState, p_b: SingleParticleState, overlap_ba: Optional[complex] = None
) -> NumberDistribution:
    """Occupation-number sectors of the symmetrized (up, down) pair.

    One direct pass over the two states builds what the composed reference
    route, `trace_out_distinguishability(postselect_one_per_detector(
    expand_in_detector_basis(p_a, p_b)))`, builds, bit for bit, with no
    intermediate state: the same refusals, the same four coefficients in the
    expansion's term order (both at R, B at L, A at L, both at L), and the
    same products in the same order.  The detector kets are orthonormal, so a
    sector's weight is the sum of |c|^2 over its terms, and its probability
    that weight over the total, the sum of the (2,0), (1,1) and (0,2) weights
    in that order, which carries the 1 + |<Psi_A|Psi_B>|^2 bunching
    normalization.  `probabilities` keeps that key order.  The (1,1) sector
    keeps its unnormalized spin matrix: the two coincident terms are the
    trace's row 2 (B at L, A at R) and row 1 (A at L, B at R), and each cell
    is 0j plus the product the trace forms for it, with the overlaps read as
    the trace reads them.  The pass sets no other cell, so the matrix is an
    X-state, and its cell 6, rho[1,2], is the distribution's `coherence`.
    `overlap_ba` is <phi_B|phi_A> as `p_b.dist.overlap(p_a.dist)` computes
    it, for a caller that meets one pair of dist vectors with many mode
    amplitudes and computes it once; without it the pass computes it.
    Tests and `verify` check this pass against the composed route.
    """
    _check_updown_pair(p_a, p_b)
    al, ar = p_a.spatial.a_l, p_a.spatial.a_r
    bl, br = p_b.spatial.a_l, p_b.spatial.a_r
    rr, rl, lr, ll = 0j + ar * br, 0j + ar * bl, 0j + al * br, 0j + al * bl
    # an exact-zero term weighs 0.0, as the empty sum of a dropped one does
    w02 = abs(rr) ** 2
    w11 = abs(rl) ** 2 + abs(lr) ** 2
    w20 = abs(ll) ** 2
    # sum() compensates its float additions from Python 3.12 on, so
    # `w20 + w11 + w02` could differ from it in the last bit there
    total = sum((w20, w11, w02))
    phi_a, phi_b = p_a.dist, p_b.dist
    o_aa, o_bb = phi_a.self_overlap, phi_b.self_overlap
    cells = [0j] * 16  # rho[i, j] is cells[4 * i + j]
    # the coefficients of rows 2 (B at L) and 1 (A at L), as the trace forms them
    c2 = rl * _AT_L * _AT_R
    c1 = lr * _AT_L * _AT_R
    if rl != 0j:
        cells[10] = 0j + c2 * c2.conjugate() * o_bb * o_aa
    if lr != 0j:
        cells[5] = 0j + c1 * c1.conjugate() * o_aa * o_bb
    if rl != 0j and lr != 0j:
        # the trace meets phi_b first: <b|a> is computed, <a|b> its conjugate,
        # and one shared vector is read through its self-overlap alone
        if phi_a is phi_b:
            o_ba = o_ab = o_bb
        else:
            o_ba = phi_b.overlap(phi_a) if overlap_ba is None else overlap_ba
            o_ab = o_ba.conjugate()
        cells[9] = 0j + c2 * c1.conjugate() * o_ab * o_ba
        cells[6] = 0j + c1 * c2.conjugate() * o_ba * o_ab
    rho = SpinDensityMatrix([cells[0:4], cells[4:8], cells[8:12], cells[12:16]])
    probabilities = {(2, 0): w20 / total, (1, 1): w11 / total, (0, 2): w02 / total}
    return NumberDistribution(probabilities, rho, cells[6])


def entanglement_of_particles(nds, concurrence) -> np.ndarray:
    """Occupation-weighted entanglement E_P = P(1,1) C(1,1) of each
    `NumberDistribution` in the sequence `nds`, as an array.

    Bunched sectors contribute zero (their spin state is not accessible to
    local detectors); the (1,1) sector contributes its normalized Wootters
    concurrence, `concurrence`, as each distribution's X-state read
    `NumberDistribution.concurrence` or `wootters_concurrence` of the
    distributions' states with `normalize` gives it, weighted by its
    probability.  A distribution with P(1,1) = 0 reads 0 whatever its
    concurrence.  Every distribution's probabilities are checked.
    """
    for n in nds:
        probabilities = n.probabilities.values()
        total = sum(probabilities)
        if abs(total - 1.0) > ATOL_PIPELINE:
            raise ValueError(f"sector probabilities sum to {total:.12g}, not 1")
        if any(p < -ATOL_EXACT for p in probabilities):
            raise ValueError("sector probabilities must be nonnegative")
    p11 = np.array([n.probabilities[(1, 1)] for n in nds])
    return np.where(p11 > 0.0, p11 * np.asarray(concurrence), 0.0)

