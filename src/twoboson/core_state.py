"""Shared value types for two-boson interference calculations.

A single boson carries three independent degrees of freedom: complex
amplitudes on the two detector modes L and R, a two-valued pseudospin, and a
unit vector over a finite orthonormal basis of whatever internal property
(arrival time, spectral shape, ...) could make the particles distinguishable
without being measured.  Single-particle inner products factorize over the
three parts,

    <x|y> = <spatial_x|spatial_y> * <spin_x|spin_y> * <dist_x|dist_y>,

and everything downstream is built from these pairwise overlaps.  All types
here are immutable and refuse a nan or infinite amplitude; operations never
mutate their inputs.  Each stores what defines it once: `SpatialAmplitudes`
its two amplitudes, `DistVector` its amplitude tuple and `SpinDensityMatrix`
its read-only matrix, with the `weight` that every point reads.  The
detector amplitudes `DETECTOR_L` and `DETECTOR_R` and the (up, down) pair
check live here, shared by `entanglement` and `nolabel_algebra`.
"""

from __future__ import annotations

import cmath
import enum
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

#: absolute tolerance for identities that hold in exact arithmetic
ATOL_EXACT = 1e-12
#: absolute tolerance for end-to-end pipeline comparisons
ATOL_PIPELINE = 1e-9


class ValidationError(ValueError):
    """An invariant of a value type is violated."""


class BasisMismatchError(ValueError):
    """Two states carry distinguishability vectors over different bases."""


class Spin(enum.Enum):
    UP = 0
    DOWN = 1


def spin_overlap(a: Spin, b: Spin) -> float:
    return 1.0 if a is b else 0.0


@dataclass(frozen=True)
class SpatialAmplitudes:
    """Complex amplitudes on the two detector modes (|L>, |R>)."""

    a_l: complex
    a_r: complex

    def __post_init__(self) -> None:
        a_l, a_r = complex(self.a_l), complex(self.a_r)
        if not (cmath.isfinite(a_l) and cmath.isfinite(a_r)):
            raise ValidationError(f"mode amplitudes must be finite, got ({a_l}, {a_r})")
        object.__setattr__(self, "a_l", a_l)
        object.__setattr__(self, "a_r", a_r)

    @property
    def detector_mode(self) -> Optional[str]:
        """'L' or 'R' if the amplitudes occupy exactly one detector mode
        within `ATOL_EXACT`, else None; computed on each read."""
        wl = abs(self.a_l) ** 2
        wr = abs(self.a_r) ** 2
        if abs(wl - 1.0) <= ATOL_EXACT and wr <= ATOL_EXACT:
            return "L"
        if abs(wr - 1.0) <= ATOL_EXACT and wl <= ATOL_EXACT:
            return "R"
        return None

    def overlap(self, other: "SpatialAmplitudes") -> complex:
        return self.a_l.conjugate() * other.a_l + self.a_r.conjugate() * other.a_r


#: detector-definite mode amplitudes
DETECTOR_L = SpatialAmplitudes(1.0, 0.0)
DETECTOR_R = SpatialAmplitudes(0.0, 1.0)


@dataclass(frozen=True)
class DistVector:
    """Unit vector over a finite orthonormal distinguishability basis.

    Only pairwise overlaps <phi_A|phi_B> ever enter the formulas downstream,
    so the basis itself stays anonymous; the dimension just has to agree
    between states that meet in an inner product.  `overlap` is `np.vdot` of
    two amplitude tuples, and a vector's overlap with itself,
    `self_overlap`, is computed once, on first use, by that same call, so a
    vector that meets many states (a sweep's delay meets every angle) pays
    for it once.
    """

    amplitudes: tuple[complex, ...]

    def __post_init__(self) -> None:
        amplitudes = tuple(complex(a) for a in self.amplitudes)
        if len(amplitudes) == 0:
            raise ValidationError("distinguishability vector needs dimension >= 1")
        if not all(map(cmath.isfinite, amplitudes)):
            raise ValidationError(f"distinguishability amplitudes must be finite, got {amplitudes}")
        object.__setattr__(self, "amplitudes", amplitudes)

    def __getstate__(self) -> dict:
        # a copy or an unpickled vector computes `self_overlap` on first use
        return {"amplitudes": self.amplitudes}

    @property
    def dim(self) -> int:
        return len(self.amplitudes)

    def overlap(self, other: "DistVector") -> complex:
        _check_dist_dims(self, other)
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    @cached_property
    def self_overlap(self) -> complex:
        """<self|self>, as `overlap` computes it."""
        return self.overlap(self)


def _check_dist_dims(a: DistVector, b: DistVector) -> None:
    if a.dim != b.dim:
        raise BasisMismatchError(
            f"incompatible distinguishability bases: dimension {a.dim} vs {b.dim}"
        )


class SpinConfigError(ValueError):
    """The spin configuration is outside the supported (up, down) sector."""


def _check_updown_pair(p_a: SingleParticleState, p_b: SingleParticleState) -> None:
    """Refuse a pair outside the (up, down) sector, or one whose dist vectors
    have different dimensions."""
    if p_a.spin is not Spin.UP or p_b.spin is not Spin.DOWN:
        raise SpinConfigError(
            "detector-basis expansion is defined for the (up, down) spin "
            f"configuration, got ({p_a.spin.name.lower()}, {p_b.spin.name.lower()})"
        )
    _check_dist_dims(p_a.dist, p_b.dist)


@dataclass(frozen=True)
class SingleParticleState:
    """One boson: detector-mode amplitudes, pseudospin, distinguishability."""

    spatial: SpatialAmplitudes
    spin: Spin
    dist: DistVector


def inner_single(x: SingleParticleState, y: SingleParticleState) -> complex:
    """Factorized single-particle inner product <x|y> (x enters as the bra)."""
    s = spin_overlap(x.spin, y.spin)
    if s == 0.0:
        _check_dist_dims(x.dist, y.dist)  # still reject mixed bases
        return 0j
    return x.spatial.overlap(y.spatial) * s * x.dist.overlap(y.dist)


# ---------------------------------------------------------------------------
# two-qubit spin density matrix (shared by the oracle and the algebraic route)
# ---------------------------------------------------------------------------

#: row/column order of SpinDensityMatrix.matrix; the particle found at L is
#: qubit one, the particle found at R is qubit two
SPIN_BASIS_LABELS = ("L-up,R-up", "L-up,R-down", "L-down,R-up", "L-down,R-down")


@dataclass(frozen=True, eq=False)
class SpinDensityMatrix:
    """Unnormalized 4x4 matrix over SPIN_BASIS_LABELS and its weight.

    `weight` is the post-selection probability mass, the real part of the
    trace, set from the matrix on construction; keeping the matrix
    unnormalized preserves that information so callers can choose between
    conditional (normalize) and raw readings.
    """

    matrix: np.ndarray
    weight: float = field(init=False)

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (4, 4):
            raise ValidationError(f"spin density matrix must be 4x4, got {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        # the reduction np.trace calls, without its dispatch
        object.__setattr__(self, "weight", float(m.trace().real))
