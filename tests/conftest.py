"""Deterministic hypothesis profile so the suite is reproducible run to run,
and shared fixtures."""

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from twoboson import optics, verification
from twoboson.core_state import Spin, SpinDensityMatrix, _check_dist_dims
from twoboson.entanglement import NumberDistribution, trace_out_distinguishability
from twoboson.nolabel_algebra import (
    SymmetricTwoBosonState,
    expand_in_detector_basis,
    postselect_one_per_detector,
)

settings.register_profile(
    "deterministic",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("deterministic")


@pytest.fixture
def failing_tolerances(monkeypatch):
    """Give every check suite a negative tolerance, which no deviation meets,
    so every check fails."""
    monkeypatch.setattr(
        verification,
        "_CHECK_SUITES",
        tuple((name, fn, -1.0) for name, fn, _ in verification._CHECK_SUITES),
    )


@pytest.fixture
def fit_row():
    """Fit one count row as a block of one: return the row's `FitResult`, or
    raise the `FitError` its fit ends in."""

    def fit(delays, counts, poisson_weights=False):
        (outcome,) = optics.fit_gaussian_dip(delays, [counts], poisson_weights).outcomes
        if isinstance(outcome, optics.FitError):
            raise outcome
        return outcome

    return fit


def _sort_key(s):
    # a total order on (mode amplitudes, spin, dist vector), which puts the
    # two states of an unordered pair in canonical order
    sp = s.spatial
    return (
        sp.a_l.real, sp.a_l.imag, sp.a_r.real, sp.a_r.imag,
        float(s.spin.value),
        *(x for a in s.dist.amplitudes for x in (a.real, a.imag)),
    )


@pytest.fixture
def sort_key():
    """The canonical order key of a single-particle state."""
    return _sort_key


@pytest.fixture
def symmetric_state():
    """Build the canonical two-boson state of any (coefficient, pair) terms:
    pairs put in canonical order, duplicate kets merged, exact-zero
    coefficients dropped, terms sorted. The reference that the package's own
    expansion must reproduce bit for bit."""

    def build(terms):
        merged = {}
        basis = None
        for coeff, (a, b) in terms:
            pair = (a, b) if _sort_key(a) <= _sort_key(b) else (b, a)
            for st in pair:
                if basis is None:
                    basis = st.dist
                _check_dist_dims(basis, st.dist)
            merged[pair] = merged.get(pair, 0j) + complex(coeff)
        kept = [(c, p) for p, c in merged.items() if c != 0j]
        kept.sort(key=lambda item: (_sort_key(item[1][0]), _sort_key(item[1][1])))
        return SymmetricTwoBosonState(tuple(kept))

    return build


def _dense_trace(s):
    # the distinguishability trace as a dense 4x4 accumulation: every product
    # added into its ndarray cell in place, each self-overlap computed anew
    entries = []
    dists = {}
    for coeff, (x, y) in s.terms:
        mx, my = x.spatial.detector_mode, y.spatial.detector_mode
        assert {mx, my} == {"L", "R"}
        at_l, at_r = (x, y) if mx == "L" else (y, x)
        row = 2 * (at_l.spin is not Spin.UP) + (at_r.spin is not Spin.UP)
        dists[id(at_l.dist)] = at_l.dist
        dists[id(at_r.dist)] = at_r.dist
        entries.append(
            (row, coeff * at_l.spatial.a_l * at_r.spatial.a_r, id(at_l.dist), id(at_r.dist))
        )
    ov = {}
    items = list(dists.items())
    for n, (ka, a) in enumerate(items):
        ov[ka, ka] = a.overlap(a)
        for kb, b in items[n + 1 :]:
            ov[ka, kb] = a.overlap(b)
            ov[kb, ka] = ov[ka, kb].conjugate()
    rho = np.zeros((4, 4), dtype=complex)
    for i, ci, li, ri in entries:
        for j, cj, lj, rj in entries:
            rho[i, j] += ci * cj.conjugate() * ov[lj, li] * ov[rj, ri]
    return SpinDensityMatrix(rho)


@pytest.fixture
def dense_trace():
    """The reference the package's distinguishability trace must reproduce
    bit for bit: the same products in the same order, added into a dense
    ndarray in place."""
    return _dense_trace


def _composed_distribution(p_a, p_b):
    # the sector weights of the detector-basis expansion, each summed in term
    # order into a dict whose key order sums the total, and the (1,1) matrix
    # of its post-selection's distinguishability trace
    expansion = expand_in_detector_basis(p_a, p_b)
    weights = {(2, 0): 0.0, (1, 1): 0.0, (0, 2): 0.0}
    for coeff, (x, y) in expansion.terms:
        n_l = (x.spatial.detector_mode == "L") + (y.spatial.detector_mode == "L")
        weights[(n_l, 2 - n_l)] += abs(coeff) ** 2
    total = sum(weights.values())
    rho = trace_out_distinguishability(postselect_one_per_detector(expansion))
    return NumberDistribution({k: w / total for k, w in weights.items()}, rho)


@pytest.fixture
def composed_distribution():
    """The `NumberDistribution` of an (up, down) pair by the composed
    reference route, expand -> postselect -> trace, which
    `number_distribution` must reproduce bit for bit."""
    return _composed_distribution
