"""Brute-force cross-check in a pseudo-labeled two-slot representation.

Here the two bosons are written into explicit tensor slots, each slot of
dimension 2 (mode) x 2 (spin) x d (distinguishability), and physical states
are the slot-symmetrized tensors

    symmetrize(p1, p2) = (|p1>|p2> + |p2>|p1>) / sqrt(2).

With d <= 4 the full two-slot space holds at most 256 amplitudes, so every
quantity the unordered-ket calculus produces can be re-derived here densely:
transition amplitudes become full contractions, and the occupation weights
and the post-selected spin density matrix become index filters over the
tensor reshaped to its (mode, spin, dist) axes, followed by a partial
trace.  No ket algebra is used; nothing in this module is clever on purpose.

A particle's dense vector holds `a_l * dist` and `a_r * dist` in its spin's
two blocks and 0 elsewhere.  These are the entries of
`np.kron(np.kron(spatial, spin), dist)`: where the spin factor is 1.0 an
entry is `(a * 1.0) * dist_k`, and `a * 1.0` is `a`; every other entry is a
product with 0.0, which may read -0.0 there; the block is built from the
dist vector's amplitude tuple.  `to_labeled` builds each particle's vector
once and adds the terms in order, so it has the bits of the per-term
`symmetrize` sum.  A `LabeledState` stores its (4d, 4d) tensor alone and
reads d from its shape.  A tensor built here becomes one read-only and
without a copy; the public constructor copies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core_state import BasisMismatchError, SingleParticleState, SpinDensityMatrix, _check_dist_dims
from .nolabel_algebra import SymmetricTwoBosonState


def single_particle_vector(s: SingleParticleState) -> np.ndarray:
    """Dense single-slot vector, index layout (mode, spin, dist) row-major:
    `a_l * dist` and `a_r * dist` in the spin's two blocks, 0 elsewhere."""
    dist = np.array(s.dist.amplitudes, dtype=complex)
    d = len(dist)
    v = np.zeros(4 * d, dtype=complex)
    start = s.spin.value * d
    v[start : start + d] = s.spatial.a_l * dist
    v[start + 2 * d : start + 3 * d] = s.spatial.a_r * dist
    return v


@dataclass(frozen=True, eq=False)
class LabeledState:
    """Two-slot tensor, stored as a (4d, 4d) array indexed (slot1, slot2)."""

    amps: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amps, dtype=complex)
        n = a.shape[0] if a.ndim else 0
        if n == 0 or n % 4 or a.shape != (n, n):
            raise ValueError(f"expected a (4d, 4d) amplitude array, got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "amps", a)

    @property
    def dist_dim(self) -> int:
        """d, the distinguishability dimension of each slot."""
        return len(self.amps) // 4


def _own(amps: np.ndarray) -> LabeledState:
    """A LabeledState over a (4d, 4d) complex array built in this module,
    taken read-only without the copy the public constructor makes."""
    amps.setflags(write=False)
    x = object.__new__(LabeledState)
    object.__setattr__(x, "amps", amps)
    return x


def _symmetrized(v1: np.ndarray, v2: np.ndarray) -> np.ndarray:
    # each product formed by broadcasting, `v1[:, None] * v2`, which is how
    # `np.outer` defines it, so nothing clever enters here either
    return (v1[:, None] * v2 + v2[:, None] * v1) / np.sqrt(2.0)


def symmetrize(p1: SingleParticleState, p2: SingleParticleState) -> LabeledState:
    """(|p1>|p2> + |p2>|p1>) / sqrt(2); for p1 = p2 this is sqrt(2)|p><p|."""
    _check_dist_dims(p1.dist, p2.dist)
    return _own(_symmetrized(single_particle_vector(p1), single_particle_vector(p2)))


def labeled_inner(x: LabeledState, y: LabeledState) -> complex:
    """Full contraction <x|y> (x conjugated)."""
    if x.dist_dim != y.dist_dim:
        raise BasisMismatchError("states must share one distinguishability basis")
    return complex(np.vdot(x.amps, y.amps))


def to_labeled(state: SymmetricTwoBosonState) -> LabeledState:
    """Linear extension of symmetrize to term sums of unordered kets; the
    state needs at least one term, which fixes the distinguishability
    dimension.  A particle that several terms share has its vector built
    once."""
    n = 4 * state.terms[0][1][0].dist.dim
    # keyed by identity: the terms hold every particle for the call
    particles = {id(p): p for _, pair in state.terms for p in pair}
    vectors = {key: single_particle_vector(p) for key, p in particles.items()}
    total = np.zeros((n, n), dtype=complex)
    for coeff, (a, b) in state.terms:
        _check_dist_dims(a.dist, b.dist)
        total += coeff * _symmetrized(vectors[id(a)], vectors[id(b)])
    return _own(total)


def mode_pattern_weights(x: LabeledState) -> dict[tuple[int, int], float]:
    """Squared norm of x split by detector occupation (n_L, n_R).

    The three weights sum to the full squared norm, which for a symmetrized
    product state is 1 + |<p1|p2>|^2 (bosonic bunching enhancement).
    """
    d = x.dist_dim
    # axes (mode1, spin and dist 1, mode2, spin and dist 2), mode 0 = L
    sums = (np.abs(x.amps.reshape(2, 2 * d, 2, 2 * d)) ** 2).sum(axis=(1, 3))
    return {
        (2, 0): float(sums[0, 0]),
        (1, 1): float(sums[0, 1] + sums[1, 0]),
        (0, 2): float(sums[1, 1]),
    }


def oracle_postselected_density(x: LabeledState) -> SpinDensityMatrix:
    """Project onto one particle per detector, trace out distinguishability.

    Takes the labeled components whose mode pattern is one L and one R,
    arranges them as (spin at L, spin at R, dist at L, dist at R) whichever
    slot holds which detector, adds the two slot orders, and contracts the
    distinguishability indices.  Each orthonormal symmetrized (1,1) basis
    vector shows up as two labeled components, hence the 1/sqrt(2).
    """
    d = x.dist_dim
    a = x.amps.reshape(2, 2, d, 2, 2, d)  # (mode1, spin1, dist1, mode2, ...)
    # each block (s1, a1, s2, a2) goes to (spin L, spin R, dist L, dist R),
    # added onto +0.0 as a cell-by-cell accumulation would
    w = np.zeros((2, 2, d, d), dtype=complex)
    w += a[0, :, :, 1].transpose(0, 2, 1, 3)
    w += a[1, :, :, 0].transpose(2, 0, 3, 1)
    coeffs = w.reshape(4, d * d) / np.sqrt(2.0)
    rho = coeffs @ coeffs.conj().T
    return SpinDensityMatrix(rho)
