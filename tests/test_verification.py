"""Self-check suites: randomized cross-layer consistency checks."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

import twoboson
from twoboson import entanglement, fq_oracle, nolabel_algebra, optics, verification
from twoboson.cli import EXIT_VERIFICATION, main
from twoboson.core_state import (
    ATOL_EXACT,
    DistVector,
    SingleParticleState,
    SpatialAmplitudes,
    Spin,
    ValidationError,
    inner_single,
)
from twoboson.verification import random_states, random_updown_pairs, run_suites


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
    for st in random_states(rng, [1, 2, 3]):
        assert abs(inner := _self_inner(st) - 1.0) < 1e-12, inner


def _self_inner(state):
    from twoboson.core_state import inner_single

    return inner_single(state, state).real


def _reference_unit_complex(rng, n):
    # the draw as numpy arrays, one vector at a time, which the stacked
    # draws reproduce with Python complexes
    re, im = rng.normal(size=(2, n))  # the same draws as two size-n calls
    # the 2-norm as np.linalg.norm sums it for a complex vector, by one BLAS
    # dot per half, here over the contiguous halves
    return (re + 1j * im) / math.sqrt(re.dot(re) + im.dot(im))


def _reference_random_state(rng, d, spin=None):
    sp = _reference_unit_complex(rng, 2)
    if spin is None:
        spin = Spin.UP if rng.integers(2) == 0 else Spin.DOWN
    return SingleParticleState(
        SpatialAmplitudes(sp[0], sp[1]), spin, DistVector(tuple(_reference_unit_complex(rng, d)))
    )


def _reference_pair(rng, d):
    return _reference_random_state(rng, d, Spin.UP), _reference_random_state(rng, d, Spin.DOWN)


def _bits(values):
    return [(complex(z).real.hex(), complex(z).imag.hex()) for z in values]


def _state_bits(state):
    return (
        state.spin,
        _bits((state.spatial.a_l, state.spatial.a_r)),
        _bits(state.dist.amplitudes),
    )


@pytest.mark.parametrize("lengths", [[1], [2], [3], [4], [2, 1, 2, 3, 2, 4, 2, 2]])
def test_unit_vectors_normalized_in_stacks_have_the_bits_of_the_array_route(lengths):
    # whether the norm's BLAS dot fuses multiply-adds depends on the platform,
    # so the pin is checked on each platform the tests run on
    rng, twin = np.random.default_rng([11, *lengths]), np.random.default_rng([11, *lengths])
    sizes = [lengths[k % len(lengths)] for k in range(10_000)]
    units = verification._units([rng.normal(size=2 * n) for n in sizes])
    for n, unit in zip(sizes, units):
        reference = _reference_unit_complex(twin, n)
        assert _bits(unit) == _bits(reference)
    assert rng.normal() == twin.normal()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_a_unit_vector_of_up_to_three_amplitudes_is_v_over_its_numpy_norm(n):
    # np.linalg.norm sums the strided real and imaginary parts, which
    # OpenBLAS adds in the order of a contiguous half only below 4 entries;
    # the suites draw dimensions 1 to 3
    rng, twin = np.random.default_rng([18, n]), np.random.default_rng([18, n])
    for _ in range(10_000):
        v = rng.normal(size=n) + 1j * rng.normal(size=n)
        assert _bits(v / np.linalg.norm(v)) == _bits(_reference_unit_complex(twin, n))


@pytest.mark.parametrize("spin", [None, Spin.UP, Spin.DOWN])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_random_state_draws_the_state_of_the_array_route(d, spin):
    # one state per call, its spin drawn or given
    rng, twin = np.random.default_rng([12, d]), np.random.default_rng([12, d])
    spins = None if spin is None else [spin]
    for _ in range(1_000):
        (state,) = random_states(rng, [d], spins)
        assert _state_bits(state) == _state_bits(_reference_random_state(twin, d, spin))
    assert rng.normal() == twin.normal()


@pytest.mark.parametrize("given", [False, True], ids=["spins-drawn", "spins-given"])
@pytest.mark.parametrize("dims", [[1], [2, 2], [1, 2, 3] * 40, [4, 1, 3, 3, 2, 4] * 20])
def test_random_states_draw_the_states_of_one_call_per_state(dims, given):
    rng, twin = np.random.default_rng([15, *dims]), np.random.default_rng([15, *dims])
    spins = [Spin.DOWN if k % 3 else Spin.UP for k in range(len(dims))] if given else None
    states = random_states(rng, dims, spins)
    assert [_state_bits(s) for s in states] == [
        _state_bits(_reference_random_state(twin, d, spin))
        for d, spin in zip(dims, spins or [None] * len(dims))
    ]
    assert rng.normal() == twin.normal()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_random_updown_pair_is_one_pair_of_the_stacked_draw(d):
    rng, twin = np.random.default_rng([16, d]), np.random.default_rng([16, d])
    for _ in range(300):
        (pair,), reference = random_updown_pairs(rng, [d]), _reference_pair(twin, d)
        assert [_state_bits(s) for s in pair] == [_state_bits(s) for s in reference]
    assert rng.normal() == twin.normal()


@pytest.mark.parametrize("dims", [[1], [3, 1], [1, 2, 3] * 34, [4, 4, 2, 1, 3, 2] * 10])
def test_random_updown_pairs_draw_the_pairs_of_one_call_per_pair(dims):
    rng, twin = np.random.default_rng([17, *dims]), np.random.default_rng([17, *dims])
    pairs = random_updown_pairs(rng, dims)
    assert [[_state_bits(s) for s in pair] for pair in pairs] == [
        [_state_bits(s) for s in _reference_pair(twin, d)] for d in dims
    ]
    assert rng.normal() == twin.normal()


def test_a_random_state_of_dimension_0_is_refused_by_its_dist_vector():
    message = r"^distinguishability vector needs dimension >= 1$"
    for draw in (
        lambda rng: random_states(rng, [0]),
        lambda rng: random_states(rng, [0], [Spin.UP]),
        lambda rng: random_states(rng, [2, 0]),
        lambda rng: random_states(rng, [2, 0], [Spin.DOWN, Spin.UP]),
        lambda rng: random_updown_pairs(rng, [1, 0]),
    ):
        with pytest.raises(ValidationError, match=message):
            draw(np.random.default_rng(0))


def test_random_states_refuse_a_spin_count_other_than_the_state_count():
    for spins in ([Spin.UP], [Spin.UP, Spin.DOWN, Spin.UP]):
        with pytest.raises(ValueError, match="zip"):
            random_states(np.random.default_rng(0), [1, 2], spins)


def test_random_pair_has_opposite_spins():
    rng = np.random.default_rng(6)
    ((a, b),) = random_updown_pairs(rng, [2])
    assert a.spin is Spin.UP
    assert b.spin is Spin.DOWN


# --- the per-trial routes the stacked suites reproduce, bit for bit ---------------
# each draws its states one at a time through the array route and calls the
# oracle one state at a time


def _reference_transition_vs_labeled(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        a, b, c, e = (_reference_random_state(rng, d) for _ in range(4))
        algebraic = nolabel_algebra.transition_two((c, e), (a, b))
        brute = fq_oracle.labeled_inner(fq_oracle.symmetrize(c, e), fq_oracle.symmetrize(a, b))
        yield abs(algebraic - brute)


def _reference_symmetrized_norm(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        p1, p2 = _reference_random_state(rng, d), _reference_random_state(rng, d)
        expected = 1.0 + abs(inner_single(p1, p2)) ** 2
        sym = fq_oracle.symmetrize(p1, p2)
        yield abs(fq_oracle.labeled_inner(sym, sym).real - expected)
        yield abs(nolabel_algebra.transition_two((p1, p2), (p1, p2)) - expected)


def _reference_single_projection(rng, trials):
    for k in range(trials):
        d = 1 + k % 3
        a, b, c, e = (_reference_random_state(rng, d) for _ in range(4))
        residual = nolabel_algebra.project_single(c, (a, b))
        contracted = nolabel_algebra.contract_residual(e, residual) * np.sqrt(2.0)
        yield abs(contracted - nolabel_algebra.transition_two((c, e), (a, b)))


def _reference_expansion_completeness(rng, trials):
    for k in range(trials):
        p_a, p_b = _reference_pair(rng, 1 + k % 3)
        expansion = nolabel_algebra.expand_in_detector_basis(p_a, p_b)
        yield abs(sum(abs(c) ** 2 for c, _ in expansion.terms) - 1.0)
        diff = fq_oracle.to_labeled(expansion).amps - fq_oracle.symmetrize(p_a, p_b).amps
        yield float(np.max(np.abs(diff)))


def _reference_density_vs_oracle(rng, trials):
    for k in range(trials):
        p_a, p_b = _reference_pair(rng, 1 + k % 3)
        nd = entanglement.number_distribution(p_a, p_b)
        rho = nd.state
        composed = entanglement.trace_out_distinguishability(
            nolabel_algebra.postselect_one_per_detector(
                nolabel_algebra.expand_in_detector_basis(p_a, p_b)
            )
        )
        yield float(np.max(np.abs(rho.matrix - composed.matrix)))
        labeled = fq_oracle.symmetrize(p_a, p_b)
        oracle = fq_oracle.oracle_postselected_density(labeled)
        yield float(np.max(np.abs(rho.matrix - oracle.matrix)))
        yield abs(rho.weight - oracle.weight)
        weights = fq_oracle.mode_pattern_weights(labeled)
        total = sum(weights.values())
        for key, probability in nd.probabilities.items():
            yield abs(probability - weights[key] / total)


def _reference_postselect_idempotent(rng, trials):
    for k in range(trials):
        p_a, p_b = _reference_pair(rng, 1 + k % 3)
        once = nolabel_algebra.postselect_one_per_detector(
            nolabel_algebra.expand_in_detector_basis(p_a, p_b)
        )
        yield float(nolabel_algebra.postselect_one_per_detector(once) != once)


def _reference_density_validity(rng, trials):
    for k in range(trials):
        p_a, p_b = _reference_pair(rng, 1 + k % 3)
        m = entanglement.number_distribution(p_a, p_b).state.matrix
        yield float(np.max(np.abs(m - m.conj().T)))
        yield 0.0 - float(np.min(np.linalg.eigvalsh((m + m.conj().T) / 2)))


def _reference_wootters_vs_closed_form(rng, trials):
    nds, closed = [], []
    for _ in range(trials):
        alphas = SpatialAmplitudes(*_reference_unit_complex(rng, 2))
        betas = SpatialAmplitudes(*_reference_unit_complex(rng, 2))
        ov = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        nds += row
        closed.append(entanglement.concurrence_closed_form(alphas, betas, ov))
    raw = entanglement.wootters_concurrence([nd.state for nd in nds])
    yield from np.abs(np.array(closed) - 2.0 * raw).tolist()
    for nd, w in zip(nds, raw.tolist()):
        yield abs(nd.concurrence - w / nd.state.weight)


def _reference_balanced_manifold(rng, trials):
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    rhos, expected = [], []
    for _ in range(trials):
        phases = np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=4))
        alphas = SpatialAmplitudes(inv_sqrt2 * phases[0], inv_sqrt2 * phases[1])
        betas = SpatialAmplitudes(inv_sqrt2 * phases[2], inv_sqrt2 * phases[3])
        ov = rng.uniform(0.0, 1.0)
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        rhos.append(row[0].state)
        expected.append(ov**2)
    normalized = entanglement.wootters_concurrence(rhos, normalize=True)
    return np.abs(normalized - np.array(expected))


def _reference_optical_splice(rng, trials):
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        sigma = rng.uniform(20.0, 200.0)
        l = rng.uniform(0.0, 400.0)
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        closed = entanglement.concurrence_closed_form(
            alphas, betas, optics.gaussian_overlap(l, "fitted", sigma)
        )
        yield abs(closed - optics.concurrence_optical(theta, l, sigma))


def _reference_quadrature_overlap(rng, trials):
    nodes, weights = np.polynomial.hermite.hermgauss(128)
    for _ in range(trials):
        delta = rng.uniform(0.002, 0.05)
        l = rng.uniform(0.0, 300.0)
        integral = float(
            np.sum(weights * np.cos(np.sqrt(2.0) * delta * l * nodes)) / np.sqrt(np.pi)
        )
        quad = optics.gaussian_overlap(l, "quadrature", optics.delta_to_sigma(delta))
        yield abs(quad - integral)


def _merge_coincidence_weight(theta_deg, dist_a, dist_b):
    # (1,1) weight after the theta-parameterized two-mode merge, by oracle
    t = math.radians(theta_deg)
    s, c = math.sin(2.0 * t), math.cos(2.0 * t)
    p_a = SingleParticleState(SpatialAmplitudes(s, c), Spin.UP, dist_a)
    p_b = SingleParticleState(SpatialAmplitudes(c, -s), Spin.UP, dist_b)
    return fq_oracle.mode_pattern_weights(fq_oracle.symmetrize(p_a, p_b))[(1, 1)]


def _reference_hom_vs_oracle(rng, trials):
    orth = optics.dist_vectors_for_overlap(0.0)
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        ov = rng.uniform(0.0, 1.0)
        phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
        w_at_ov = _merge_coincidence_weight(theta, phi_a, phi_b)
        w_at_0 = _merge_coincidence_weight(theta, orth[0], orth[1])
        direct = 1000.0 * w_at_ov / w_at_0
        level = optics.hom_coincidence(optics.hom_visibility(theta), ov**2, 1000.0)
        yield abs(level - direct)


def _reference_ep_relation(rng, trials):
    nds, closed = [], []
    for _ in range(trials):
        theta = rng.uniform(0.0, 45.0)
        ov = rng.uniform(0.0, 1.0)
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        (row,) = optics.prepared_distributions([(alphas, betas)], [ov])
        nds += row
        closed.append(entanglement.concurrence_closed_form(alphas, betas, ov))
    concurrence = entanglement.wootters_concurrence([nd.state for nd in nds], normalize=True)
    e_p = entanglement.entanglement_of_particles(nds, concurrence)
    return np.abs(e_p - np.array(closed) / 2.0)


def _reference_exponent_relation(rng, trials):
    for _ in range(trials):
        sigma = rng.uniform(20.0, 200.0)
        l = rng.uniform(0.0, 300.0)
        factor = np.exp(-(l**2) / (2.0 * sigma**2))
        paper = optics.gaussian_overlap(l, "paper", sigma)
        quad = optics.gaussian_overlap(l, "quadrature", sigma)
        yield abs(paper - factor)
        yield abs(quad**4 - factor)


_PER_TRIAL_ROUTES = {
    "transition_vs_labeled_oracle": _reference_transition_vs_labeled,
    "symmetrized_norm_bunching": _reference_symmetrized_norm,
    "single_bra_projection": _reference_single_projection,
    "detector_expansion_completeness": _reference_expansion_completeness,
    "postselected_density_vs_oracle": _reference_density_vs_oracle,
    "postselect_idempotent": _reference_postselect_idempotent,
    "density_matrix_validity": _reference_density_validity,
    "closed_form_vs_wootters_raw": _reference_wootters_vs_closed_form,
    "balanced_manifold_concurrence": _reference_balanced_manifold,
    "optical_law_splice": _reference_optical_splice,
    "quadrature_overlap_integral": _reference_quadrature_overlap,
    "hom_level_vs_oracle": _reference_hom_vs_oracle,
    "occupation_weighted_vs_half_closed_form": _reference_ep_relation,
    "overlap_exponent_relation": _reference_exponent_relation,
}


def _hex(values):
    return [float(x).hex() for x in values]


@pytest.mark.parametrize("block", [None, 6])
@pytest.mark.parametrize("trials", [1, 2, 3, 7, 100])
@pytest.mark.parametrize("name", sorted(_PER_TRIAL_ROUTES))
def test_each_stacked_suite_yields_the_bits_of_each_trial_alone(name, trials, block, monkeypatch):
    if block is not None:  # blocks of 6 trials, so 7 and 100 trials span several
        monkeypatch.setattr(verification, "_BLOCK", block)
    (suite,) = (fn for suite_name, fn, _ in verification._CHECK_SUITES if suite_name == name)
    for seed in (0, 13, 29):
        rng, twin = np.random.default_rng([seed, trials]), np.random.default_rng([seed, trials])
        stacked = np.fromiter(suite(rng, trials), float)
        reference = list(_PER_TRIAL_ROUTES[name](twin, trials))
        assert _hex(stacked) == _hex(reference)
        assert rng.normal() == twin.normal()


def test_every_suite_that_draws_has_a_per_trial_route():
    names = [name for name, _, _ in verification._CHECK_SUITES]
    assert sorted(_PER_TRIAL_ROUTES) == sorted(set(names) - {"concurrence_monotonicity"})


#: how far `verify --trials 3000`'s peak RSS may lie above `--trials 150`'s;
#: on Linux x86-64 with Python 3.11 and numpy 2.4 the suites in blocks read
#: -0.02 to +0.17 MiB, and the suites held whole read +7.8 MiB
_RSS_MARGIN_KIB = 2048

_PEAK_RSS_OF_VERIFY = """
import resource, subprocess, sys
argv = [sys.executable, "-m", "twoboson.cli", "verify", "--trials", sys.argv[1]]
subprocess.run(argv, stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def _peak_rss_kib_of_verify(trials: int) -> int:
    # a fresh parent per run: RUSAGE_CHILDREN holds the largest peak of every
    # child a process has waited for, and this one waits for one
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(twoboson.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", _PEAK_RSS_OF_VERIFY, str(trials)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_verify_peak_memory_does_not_grow_with_the_trials():
    # every suite that draws runs on blocks of at most 150 trials, so 20
    # blocks hold no more at once than one
    growth = _peak_rss_kib_of_verify(3000) - _peak_rss_kib_of_verify(150)
    assert growth <= _RSS_MARGIN_KIB, f"peak RSS grew by {growth} KiB"


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

