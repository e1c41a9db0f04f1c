"""Self-check suites: randomized cross-layer consistency checks."""

import math

import numpy as np
import pytest

from twoboson import entanglement, nolabel_algebra, verification
from twoboson.cli import EXIT_VERIFICATION, main
from twoboson.core_state import (
    ATOL_EXACT,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    ValidationError,
)
from twoboson.verification import random_state, random_updown_pair, run_suites


def test_all_checks_pass_on_random_draws():
    results = run_suites(trials=20, seed=1)
    failures = [r.name for r in results if not r.passed]
    assert failures == []


def test_overlap_exponent_relation_is_an_exact_check():
    results = {r.name: r for r in run_suites(trials=10, seed=3)}
    r = results["overlap_exponent_relation"]
    assert r.tolerance == ATOL_EXACT
    assert r.passed and r.max_deviation <= ATOL_EXACT


def test_every_suite_has_a_unique_name():
    results = run_suites(trials=2, seed=0)
    names = [r.name for r in results]
    assert len(names) == len(set(names))
    assert len(names) == 15


def test_tolerance_override_exposes_the_failure_path(failing_tolerances):
    results = run_suites(trials=10, seed=2)
    assert results and not any(r.passed for r in results)
    for r in results:
        assert r.tolerance == -1.0


def test_suites_are_deterministic_for_a_fixed_seed():
    a = run_suites(trials=15, seed=7)
    b = run_suites(trials=15, seed=7)
    assert [r.max_deviation for r in a] == [r.max_deviation for r in b]
    c = run_suites(trials=15, seed=8)
    assert [r.max_deviation for r in a] != [r.max_deviation for r in c]


def test_trials_must_be_positive():
    with pytest.raises(ValueError, match="trials"):
        run_suites(trials=0)


def _run_stub_suites(monkeypatch, *suites):
    monkeypatch.setattr(
        verification,
        "_CHECK_SUITES",
        tuple((f"stub_{i}", fn, ATOL_EXACT) for i, fn in enumerate(suites)),
    )
    return run_suites(trials=1)


def test_a_nan_deviation_fails_its_suite(monkeypatch):
    def suite(rng, trials):
        yield from (1e-13, math.nan, 0.0)

    (result,) = _run_stub_suites(monkeypatch, suite)
    assert math.isnan(result.max_deviation)
    assert not result.passed


def test_a_suite_that_yields_nothing_deviates_by_zero(monkeypatch):
    def suite(rng, trials):
        yield from ()

    (result,) = _run_stub_suites(monkeypatch, suite)
    assert result.max_deviation == 0.0 and result.passed


def test_an_array_suite_and_a_generator_suite_reduce_to_the_same_bits(monkeypatch):
    values = (2.5e-13, 1e-16, 3.000000000000001e-13, 0.0)

    def as_array(rng, trials):
        return np.array(values)

    def as_generator(rng, trials):
        yield from values

    array, generator = _run_stub_suites(monkeypatch, as_array, as_generator)
    assert array.max_deviation.hex() == generator.max_deviation.hex()
    assert array.max_deviation == 3.000000000000001e-13


def _failing_checks(capsys):
    return {
        line.split()[2]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("[check ]") and line.endswith("FAIL")
    }


def test_a_nan_transition_amplitude_fails_every_check_that_reads_it(monkeypatch, capsys):
    monkeypatch.setattr(nolabel_algebra, "transition_two", lambda *args: complex("nan"))
    assert main(["verify", "--trials", "5"]) == EXIT_VERIFICATION
    assert _failing_checks(capsys) == {
        "transition_vs_labeled_oracle",
        "symmetrized_norm_bunching",
        "single_bra_projection",
    }


def test_a_nan_closed_form_concurrence_fails_the_splice_and_monotonicity(monkeypatch, capsys):
    monkeypatch.setattr(entanglement, "concurrence_closed_form", lambda *args: math.nan)
    assert main(["verify", "--trials", "5"]) == EXIT_VERIFICATION
    assert {"optical_law_splice", "concurrence_monotonicity"} <= _failing_checks(capsys)


def test_random_state_is_normalized():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        st = random_state(rng, d)
        assert abs(inner := _self_inner(st) - 1.0) < 1e-12, inner


def _self_inner(state):
    from twoboson.core_state import inner_single

    return inner_single(state, state).real


def _reference_unit_complex(rng, n):
    # the draw as numpy arrays, which `_unit_complex` reproduces with Python
    # complexes
    re, im = rng.normal(size=(2, n))  # the same draws as two size-n calls
    v = re + 1j * im
    # the 2-norm as np.linalg.norm computes it for a complex vector
    return v / math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag))


def _reference_random_state(rng, d, spin=None):
    sp = _reference_unit_complex(rng, 2)
    if spin is None:
        spin = Spin.UP if rng.integers(2) == 0 else Spin.DOWN
    return SingleParticleState(
        SpatialAmplitudes(sp[0], sp[1]), spin, DistVector(tuple(_reference_unit_complex(rng, d)))
    )


def _bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


@pytest.mark.parametrize("d", [1, 2, 3])
def test_unit_complex_draws_the_bits_of_the_array_route(d):
    # whether the norm's BLAS dot fuses multiply-adds depends on the platform,
    # so the pin is checked on each platform the tests run on
    rng, twin = np.random.default_rng([11, d]), np.random.default_rng([11, d])
    for _ in range(10_000):
        assert _bits(verification._unit_complex(rng, d)) == _bits(
            _reference_unit_complex(twin, d)
        )
    assert rng.normal() == twin.normal()


@pytest.mark.parametrize("spin", [None, Spin.UP, Spin.DOWN])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_state_draws_the_state_of_the_array_route(d, spin):
    rng, twin = np.random.default_rng([12, d]), np.random.default_rng([12, d])
    for _ in range(1_000):
        state, reference = random_state(rng, d, spin), _reference_random_state(twin, d, spin)
        assert state.spin is reference.spin
        assert _bits((state.spatial.a_l, state.spatial.a_r)) == _bits(
            (reference.spatial.a_l, reference.spatial.a_r)
        )
        assert _bits(state.dist.amplitudes) == _bits(reference.dist.amplitudes)
    assert rng.normal() == twin.normal()


def test_a_random_state_of_dimension_0_is_refused_by_its_dist_vector():
    with pytest.raises(ValidationError, match=r"^distinguishability vector needs dimension >= 1$"):
        random_state(np.random.default_rng(0), 0)


def test_random_pair_has_opposite_spins():
    rng = np.random.default_rng(6)
    a, b = random_updown_pair(rng, 2)
    assert a.spin is Spin.UP
    assert b.spin is Spin.DOWN


def _reference_density_validity(rng, trials):
    # the per-trial form the stacked suite reproduces
    for k in range(trials):
        d = 1 + k % 3
        p_a, p_b = random_updown_pair(rng, d)
        m = entanglement.number_distribution(p_a, p_b).state.matrix
        yield float(np.max(np.abs(m - m.conj().T)))
        yield 0.0 - float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("trials", [1, 2, 100])
def test_the_stacked_validity_suite_yields_the_bits_of_each_trial_alone(trials):
    rng, twin = np.random.default_rng([13, trials]), np.random.default_rng([13, trials])
    stacked = verification._suite_density_validity(rng, trials)
    assert _hex(stacked) == _hex(_reference_density_validity(twin, trials))
    assert rng.normal() == twin.normal()


def test_a_zero_lowest_eigenvalue_reads_a_deviation_of_plus_zero():
    rng = np.random.default_rng(14)
    matrices = [
        np.diag([0.0, 0.5, 0.5, 0.0]).astype(complex),  # lowest eigenvalue exactly 0
        np.zeros((4, 4), dtype=complex),
        np.diag([-1e-17, 0.25, 0.5, 0.25]).astype(complex),  # a negative one
    ]
    for _ in range(20):
        g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        matrices.append(g @ g.conj().T + 1e-16j * rng.normal(size=(4, 4)))  # near-Hermitian
    reference = []
    for m in matrices:
        reference.append(float(np.max(np.abs(m - m.conj().T))))
        reference.append(0.0 - float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2))))
    deviations = verification._validity_deviations(matrices)
    assert _hex(deviations) == _hex(reference)
    # the depth of a zero eigenvalue is +0.0, never -0.0
    assert _hex(deviations[:4]) == _hex([0.0, 0.0, 0.0, 0.0])
    assert deviations[5] == 1e-17

