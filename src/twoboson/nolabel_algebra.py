"""Calculus of unordered two-boson kets.

A two-boson ket |A,B> is an *unordered* pair of single-particle states, so
|A,B> and |B,A> are the same object; linear combinations keep a tuple of
(coefficient, pair) terms with every pair canonicalized.  Amplitudes follow
the permanent-style transition rule

    <C,D|A,B> = <C|A><D|B> + <C|B><D|A>,

and projecting a single-particle bra onto a pair leaves a weighted
one-particle residual

    <C| applied to |A,B>  ->  (<C|A> |B> + <C|B> |A>) / sqrt(2).

No slot labels appear anywhere in this module; the dense two-slot tensors in
`fq_oracle` reproduce every quantity here by brute force and serve as the
independent cross-check.  Only `verify` and the tests load this module.
`DETECTOR_L`, `DETECTOR_R`, `SpinConfigError` and the (up, down) pair check
are the `core_state` objects, which `entanglement` shares.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core_state import (
    DETECTOR_L,
    DETECTOR_R,
    SQRT2,
    SingleParticleState,
    Spin,
    SpinConfigError,
    _check_updown_pair,
    inner_single,
)

Pair = tuple[SingleParticleState, SingleParticleState]
Residual = tuple[tuple[complex, SingleParticleState], ...]


class NotDetectorBasisError(ValueError):
    """A state was expected to be expanded over detector-definite modes."""


@dataclass(frozen=True)
class SymmetricTwoBosonState:
    """Linear combination of unordered two-boson kets.

    Each pair appears once, in a fixed order, with a nonzero coefficient, so
    the bosonic symmetry |A,B> = |B,A> is structural rather than asserted.
    :func:`expand_in_detector_basis` builds such a state directly, and
    :func:`postselect_one_per_detector` keeps it so.
    """

    terms: tuple[tuple[complex, Pair], ...]

    @property
    def num_terms(self) -> int:
        # read by the post-selection counter of perfbench/spans.py
        return len(self.terms)


def transition_two(bra: Pair, ket: Pair) -> complex:
    """<C,D|A,B> = <C|A><D|B> + <C|B><D|A> for bra = (C, D), ket = (A, B)."""
    c, d = bra
    a, b = ket
    return inner_single(c, a) * inner_single(d, b) + inner_single(c, b) * inner_single(d, a)


def project_single(bra: SingleParticleState, ket: Pair) -> Residual:
    """Contract one single-particle bra, leaving a one-particle residual.

    Returns the formal sum (<bra|A> |B> + <bra|B> |A>) / sqrt(2) as
    (coefficient, state) entries; exact-zero coefficients are dropped, so a
    bra orthogonal to both constituents yields an empty residual.
    """
    a, b = ket
    out = []
    for coeff, rest in ((inner_single(bra, a), b), (inner_single(bra, b), a)):
        if coeff != 0j:
            out.append((coeff / SQRT2, rest))
    return tuple(out)


def contract_residual(bra: SingleParticleState, residual: Residual) -> complex:
    """Apply a second single-particle bra to a projection residual."""
    return sum((c * inner_single(bra, st) for c, st in residual), 0j)


def expand_in_detector_basis(
    p_a: SingleParticleState, p_b: SingleParticleState
) -> SymmetricTwoBosonState:
    """Expand |Psi_A, Psi_B> over detector-definite unordered kets.

    For Psi_A = (alpha_l |L> + alpha_r |R>) x |up> x |phi_A> and
    Psi_B = (beta_l |L> + beta_r |R>) x |down> x |phi_B> the four terms, in
    canonical order, are

        alpha_r beta_r |(R,up,phi_A),(R,down,phi_B)>
      + alpha_r beta_l |(R,up,phi_A),(L,down,phi_B)>
      + alpha_l beta_r |(R,down,phi_B),(L,up,phi_A)>
      + alpha_l beta_l |(L,up,phi_A),(L,down,phi_B)>.

    Each distinguishability vector travels with its own spin: phi_A stays
    attached to the up component wherever it lands, phi_B to the down one.
    """
    _check_updown_pair(p_a, p_b)
    al, ar = p_a.spatial.a_l, p_a.spatial.a_r
    bl, br = p_b.spatial.a_l, p_b.spatial.a_r
    l_up_a = SingleParticleState(DETECTOR_L, Spin.UP, p_a.dist)
    r_up_a = SingleParticleState(DETECTOR_R, Spin.UP, p_a.dist)
    l_dn_b = SingleParticleState(DETECTOR_L, Spin.DOWN, p_b.dist)
    r_dn_b = SingleParticleState(DETECTOR_R, Spin.DOWN, p_b.dist)
    # the four kets are distinct, so no duplicate needs merging, only the
    # exact zeros dropped (0j + c turns a -0.0 part into +0.0, as a sum of
    # duplicates would); their order is fixed, R before L and up before down,
    # so no distinguishability vector is ever compared
    kept = [
        (0j + coeff, pair)
        for coeff, pair in (
            (ar * br, (r_up_a, r_dn_b)),
            (ar * bl, (r_up_a, l_dn_b)),
            (al * br, (r_dn_b, l_up_a)),
            (al * bl, (l_up_a, l_dn_b)),
        )
        if coeff != 0j
    ]
    return SymmetricTwoBosonState(tuple(kept))


def postselect_one_per_detector(s: SymmetricTwoBosonState) -> SymmetricTwoBosonState:
    """Keep only terms with exactly one particle at L and one at R.

    Coefficients are left untouched (no renormalization), so the surviving
    state carries the post-selection weight with it.  Idempotent.
    """
    kept = []
    for term in s.terms:
        x, y = term[1]
        mx, my = x.spatial.detector_mode, y.spatial.detector_mode
        if mx is None or my is None:
            raise NotDetectorBasisError(
                "state is not in detector-basis form; expand_in_detector_basis first"
            )
        if mx != my:  # one 'L' and one 'R'
            kept.append(term)
    # terms of a canonical state stay ordered, merged, nonzero and sorted
    return SymmetricTwoBosonState(tuple(kept))
