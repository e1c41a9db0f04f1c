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

The dense routines work on a leading stack axis, one stack per dimension
d: `symmetrize_stack` and `to_labeled_stack` build k tensors as one
(k, 4d, 4d) array, and `labeled_inner_stack`, `postselected_density_stack`
and `mode_pattern_weight_stack` read k tensors at once.
`symmetrize`, `to_labeled`, `labeled_inner`, `oracle_postselected_density`
and `mode_pattern_weights` are their k = 1 cases, and a tensor of a stack
has the bits it has alone: broadcasting runs the same element loop over
each vector and tensor, the (1,1) density is one matmul per matrix of the
stack, which BLAS computes for each matrix alone, and the weights reduce
each tensor's cells in the order a stack of one does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .core_state import (
    SQRT2,
    BasisMismatchError,
    SingleParticleState,
    SpinDensityMatrix,
    _check_dist_dims,
)
from .nolabel_algebra import Pair, SymmetricTwoBosonState


def _particle_vectors(states: Sequence[SingleParticleState]) -> np.ndarray:
    """The (k, 4d) dense vectors of k states of one dimension d, index layout
    (mode, spin, dist) row-major: `a_l * dist` and `a_r * dist` in the spin's
    two blocks, 0 elsewhere; a state of another dimension is refused."""
    first = states[0].dist
    rows, parts = [], []  # each state's (mode L, spin) and (mode R, spin) rows
    for i, s in enumerate(states):
        _check_dist_dims(first, s.dist)
        rows += (4 * i + s.spin.value, 4 * i + 2 + s.spin.value)
        parts.append((s.spatial.a_l, s.spatial.a_r, *s.dist.amplitudes))
    parts = np.array(parts)
    v = np.zeros((2 * len(rows), first.dim), dtype=complex)  # rows (state, mode, spin)
    # a_l * dist and a_r * dist, one product per entry
    v[rows] = (parts[:, :2, None] * parts[:, None, 2:]).reshape(len(rows), first.dim)
    return v.reshape(len(states), 4 * first.dim)


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
    # `np.outer` defines it, over any leading stack axes, so nothing clever
    # enters here either
    return (v1[..., :, None] * v2[..., None, :] + v2[..., :, None] * v1[..., None, :]) / SQRT2


def symmetrize_stack(pairs: Sequence[Pair]) -> np.ndarray:
    """(k, 4d, 4d): `symmetrize` of each of k pairs of one dimension d."""
    v = _particle_vectors([p for pair in pairs for p in pair])
    return _symmetrized(v[0::2], v[1::2])


def symmetrize(p1: SingleParticleState, p2: SingleParticleState) -> LabeledState:
    """(|p1>|p2> + |p2>|p1>) / sqrt(2); for p1 = p2 this is sqrt(2)|p><p|."""
    return _own(_symmetrized(*_particle_vectors([p1, p2])))


def labeled_inner_stack(xs: np.ndarray, ys: np.ndarray) -> list[complex]:
    """The full contraction <x|y> (x conjugated) of each pair of tensors of
    two (k, 4d, 4d) stacks."""
    return [complex(np.vdot(x, y)) for x, y in zip(xs, ys)]


def labeled_inner(x: LabeledState, y: LabeledState) -> complex:
    """Full contraction <x|y> (x conjugated)."""
    if x.dist_dim != y.dist_dim:
        raise BasisMismatchError("states must share one distinguishability basis")
    return labeled_inner_stack(x.amps[None], y.amps[None])[0]


def to_labeled_stack(states: Sequence[SymmetricTwoBosonState]) -> np.ndarray:
    """(k, 4d, 4d): `to_labeled` of each of k states of one dimension d."""
    terms = [term for state in states for term in state.terms]
    # keyed by identity: the terms hold every particle for the call
    particles = {id(p): p for _, pair in terms for p in pair}
    vectors = _particle_vectors(list(particles.values()))
    row = {key: i for i, key in enumerate(particles)}
    coeffs = np.array([coeff for coeff, _ in terms], dtype=complex)
    products = coeffs[:, None, None] * _symmetrized(
        vectors[[row[id(a)] for _, (a, _) in terms]],
        vectors[[row[id(b)] for _, (_, b) in terms]],
    )
    n = vectors.shape[1]
    out = np.zeros((len(states), n, n), dtype=complex)
    at = 0
    for total, state in zip(out, states):
        for product in products[at : at + len(state.terms)]:
            total += product  # each state's terms in order, onto +0.0
        at += len(state.terms)
    return out


def to_labeled(state: SymmetricTwoBosonState) -> LabeledState:
    """Linear extension of symmetrize to term sums of unordered kets; the
    state needs at least one term, which fixes the distinguishability
    dimension, and every particle must share it.  A particle that several
    terms share has its vector built once."""
    return _own(to_labeled_stack([state])[0])


def mode_pattern_weight_stack(amps: np.ndarray) -> list[dict[tuple[int, int], float]]:
    """`mode_pattern_weights` of each of a (k, 4d, 4d) stack of tensors."""
    k, d = len(amps), amps.shape[-1] // 4
    # axes (tensor, mode1, spin and dist 1, mode2, spin and dist 2), mode 0 = L
    sums = (np.abs(amps.reshape(k, 2, 2 * d, 2, 2 * d)) ** 2).sum(axis=(2, 4))
    return [
        {(2, 0): ll, (1, 1): lr + rl, (0, 2): rr} for (ll, lr), (rl, rr) in sums.tolist()
    ]


def mode_pattern_weights(x: LabeledState) -> dict[tuple[int, int], float]:
    """Squared norm of x split by detector occupation (n_L, n_R).

    The three weights sum to the full squared norm, which for a symmetrized
    product state is 1 + |<p1|p2>|^2 (bosonic bunching enhancement).
    """
    return mode_pattern_weight_stack(x.amps[None])[0]


def postselected_density_stack(amps: np.ndarray) -> np.ndarray:
    """(k, 4, 4): the unnormalized (1,1) spin matrix of each of k (4d, 4d)
    tensors, as `oracle_postselected_density` reads one."""
    k, d = len(amps), amps.shape[-1] // 4
    a = amps.reshape(k, 2, 2, d, 2, 2, d)  # (tensor, mode1, spin1, dist1, mode2, ...)
    # each block (s1, a1, s2, a2) goes to (spin L, spin R, dist L, dist R),
    # added onto +0.0 as a cell-by-cell accumulation would
    w = np.zeros((k, 2, 2, d, d), dtype=complex)
    w += a[:, 0, :, :, 1].transpose(0, 1, 3, 2, 4)
    w += a[:, 1, :, :, 0].transpose(0, 3, 1, 4, 2)
    coeffs = w.reshape(k, 4, d * d) / SQRT2
    return coeffs @ coeffs.conj().transpose(0, 2, 1)


def oracle_postselected_density(x: LabeledState) -> SpinDensityMatrix:
    """Project onto one particle per detector, trace out distinguishability.

    Takes the labeled components whose mode pattern is one L and one R,
    arranges them as (spin at L, spin at R, dist at L, dist at R) whichever
    slot holds which detector, adds the two slot orders, and contracts the
    distinguishability indices.  Each orthonormal symmetrized (1,1) basis
    vector shows up as two labeled components, hence the 1/sqrt(2).
    """
    return SpinDensityMatrix(postselected_density_stack(x.amps[None])[0])
