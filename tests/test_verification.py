"""Self-check suites: randomized cross-layer consistency checks."""

import numpy as np
import pytest

from twoboson.core_state import ATOL_EXACT, Spin
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


def test_random_state_is_normalized():
    rng = np.random.default_rng(5)
    for d in (1, 2, 3):
        st = random_state(rng, d)
        assert abs(inner := _self_inner(st) - 1.0) < 1e-12, inner


def _self_inner(state):
    from twoboson.core_state import inner_single

    return inner_single(state, state).real


def test_random_pair_has_opposite_spins():
    rng = np.random.default_rng(6)
    a, b = random_updown_pair(rng, 2)
    assert a.spin is Spin.UP
    assert b.spin is Spin.DOWN
