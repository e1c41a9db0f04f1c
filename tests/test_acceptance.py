"""Acceptance gate: eight criteria, one visible PASS/FAIL line each.

Each test prints `ACCEPTANCE <n> [PASS|FAIL] <measurements>` through the
capture plug so the verdict is readable in any pytest run, then asserts.
Tolerances are pinned as module constants; nothing here is adaptive.
"""

import math
import time

import numpy as np

from twoboson import cli, entanglement, fq_oracle, optics
from twoboson.core_state import SingleParticleState, Spin
from twoboson.nolabel_algebra import (
    expand_in_detector_basis,
    postselect_one_per_detector,
    transition_two,
)
from twoboson.optics import GAUSSIAN_FWHM_FACTOR
from twoboson.verification import random_states, random_updown_pairs

TOL_MAXIMAL = 1e-9          # criterion 1: |C - 1| at the maximal point
TOL_ORACLE = 1e-12          # criterion 2: algebra vs labeled-tensor oracle
N_ORACLE_DRAWS = 120        # criterion 2: >= 100 random draws
TOL_LAW = 1e-12             # criterion 3: closed form vs product law
TOL_WOOTTERS = 1e-9         # criterion 3: closed form vs 2x raw Wootters
TOL_FWHM_REL = 0.01         # criterion 4: 1% on the 140 um section width
TOL_SECTION_RESID = 1e-9    # criterion 4: theta-section law residual
TOL_FIT_REL = 1e-6          # criterion 5: noiseless fit recovery
COVER_1SIGMA = 68           # criterion 5: runs (of 100) inside +/-1 sigma
COVER_2SIGMA = 95           # criterion 5: runs (of 100) inside +/-2 sigma
TOL_DEGENERATE = 1e-12      # criterion 6: C at the unentangled corners
SIGMA_UM = 59.45
FWHM_TARGET_UM = 140.0

RUNTIME_1 = 1.0
RUNTIME_2 = 10.0
RUNTIME_5 = 30.0

THETA_GRID = np.linspace(0.0, 45.0, 19)
DELAY_GRID = np.linspace(0.0, 300.0, 21)
OVERLAP_GRID = np.linspace(0.0, 1.0, 21)

# dip-coverage harness: (true visibility, true FWHM um, poisson seed)
COVERAGE_CONFIGS = ((0.99, 132.0, 7), (0.91, 137.0, 1007))


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {num} [{'PASS' if ok else 'FAIL'}] {detail}")


def _pipeline_rho(theta_deg: float, overlap: float):
    alphas, betas = optics.spatial_amplitudes_from_theta(theta_deg)
    phi_a, phi_b = optics.dist_vectors_for_overlap(overlap)
    p_a = SingleParticleState(alphas, Spin.UP, phi_a)
    p_b = SingleParticleState(betas, Spin.DOWN, phi_b)
    return entanglement.trace_out_distinguishability(
        postselect_one_per_detector(expand_in_detector_basis(p_a, p_b))
    )


def test_criterion_1_maximal_entanglement_point(capsys):
    start = time.perf_counter()
    rho = _pipeline_rho(22.5, 1.0)
    (c,) = entanglement.wootters_concurrence([rho], normalize=True)
    elapsed = time.perf_counter() - start
    dev = abs(c - 1.0)
    ok = dev <= TOL_MAXIMAL and elapsed < RUNTIME_1
    _report(
        capsys,
        1,
        ok,
        f"pipeline C at (22.5 deg, l=0) = {c:.12f}, |C-1| = {dev:.2e} "
        f"(tol {TOL_MAXIMAL:.0e}), {elapsed:.2f}s",
    )
    assert ok


def test_criterion_2_oracle_equivalence(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(20250814)
    worst_transition = 0.0
    worst_density = 0.0
    for draw in range(N_ORACLE_DRAWS):
        d = int(rng.integers(1, 4))
        # unordered transition amplitudes vs labeled tensor inner products
        states = random_states(rng, [d] * 4)
        got = transition_two((states[0], states[1]), (states[2], states[3]))
        want = fq_oracle.labeled_inner(
            fq_oracle.symmetrize(states[0], states[1]),
            fq_oracle.symmetrize(states[2], states[3]),
        )
        worst_transition = max(worst_transition, abs(got - want))
        # post-selected spin density matrix vs oracle index enumeration
        p_a, p_b = random_updown_pairs(rng, [d])[0]
        rho = _pipeline_from_states(p_a, p_b)
        oracle = fq_oracle.oracle_postselected_density(
            fq_oracle.symmetrize(p_a, p_b)
        )
        worst_density = max(
            worst_density, float(np.max(np.abs(rho.matrix - oracle.matrix)))
        )
    elapsed = time.perf_counter() - start
    ok = (
        worst_transition <= TOL_ORACLE
        and worst_density <= TOL_ORACLE
        and elapsed < RUNTIME_2
    )
    _report(
        capsys,
        2,
        ok,
        f"{N_ORACLE_DRAWS} draws: max transition dev = {worst_transition:.2e}, "
        f"max density dev = {worst_density:.2e} (tol {TOL_ORACLE:.0e}), "
        f"{elapsed:.2f}s",
    )
    assert ok


def _pipeline_from_states(p_a, p_b):
    return entanglement.trace_out_distinguishability(
        postselect_one_per_detector(expand_in_detector_basis(p_a, p_b))
    )


def test_criterion_3_closed_form_law(capsys):
    worst_product = 0.0
    worst_theta_law = 0.0
    worst_wootters = 0.0
    for theta in THETA_GRID:
        spatial = optics.spatial_overlap_factor(theta)
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        for l in DELAY_GRID:
            ov = optics.gaussian_overlap(l, "fitted", SIGMA_UM)
            closed = entanglement.concurrence_closed_form(alphas, betas, ov)
            product = (
                4.0
                * abs(alphas.a_l * alphas.a_r * betas.a_l * betas.a_r)
                * ov**2
            )
            worst_product = max(worst_product, abs(closed - product))
            worst_theta_law = max(worst_theta_law, abs(closed - spatial * ov**2))
            (raw,) = entanglement.wootters_concurrence(
                [_pipeline_rho(theta, ov)], normalize=False
            )
            worst_wootters = max(worst_wootters, abs(closed - 2.0 * raw))
    ok = (
        worst_product <= TOL_LAW
        and worst_theta_law <= TOL_LAW
        and worst_wootters <= TOL_WOOTTERS
    )
    _report(
        capsys,
        3,
        ok,
        f"19x21 grid: product-law dev = {worst_product:.2e}, "
        f"sin^2(4 theta) dev = {worst_theta_law:.2e} (tol {TOL_LAW:.0e}), "
        f"|closed - 2 raw Wootters| = {worst_wootters:.2e} (tol {TOL_WOOTTERS:.0e})",
    )
    assert ok


def test_criterion_4_gaussian_sections(capsys, fit_row):
    # delay section at the balanced angle: C(l) is Gaussian with FWHM 140 um
    delays = np.linspace(-300.0, 300.0, 61)
    section = np.array([optics.concurrence_optical(22.5, l, SIGMA_UM) for l in delays])
    fit = fit_row(delays, 1.0 - section)
    fwhm_rel = abs(fit.fwhm_um - FWHM_TARGET_UM) / FWHM_TARGET_UM

    # angle section at fixed delay: C = C0 sin^2(4 theta)
    l_um = 40.0
    thetas = np.linspace(0.0, 45.0, 46)
    cs = np.array([optics.concurrence_optical(t, l_um, SIGMA_UM) for t in thetas])
    s = np.sin(np.radians(4.0 * thetas)) ** 2
    c0 = float(s @ cs / (s @ s))
    resid = float(np.max(np.abs(cs - c0 * s)))

    ok = fwhm_rel <= TOL_FWHM_REL and resid <= TOL_SECTION_RESID
    _report(
        capsys,
        4,
        ok,
        f"delay-section FWHM = {fit.fwhm_um:.4f} um "
        f"({100 * fwhm_rel:.4f}% from {FWHM_TARGET_UM:.0f}, tol 1%), "
        f"angle-section residual = {resid:.2e} (tol {TOL_SECTION_RESID:.0e}), "
        f"C0 = {c0:.6f}",
    )
    assert ok


def test_criterion_5_dip_recovery_and_coverage(capsys, fit_row):
    start = time.perf_counter()
    delays = np.linspace(-300.0, 300.0, 61)
    noiseless_ok = True
    details = []
    for vis, fwhm, _ in COVERAGE_CONFIGS:
        w = fwhm / GAUSSIAN_FWHM_FACTOR
        rates = 1000.0 * (1.0 - vis * np.exp(-(delays**2) / (2.0 * w**2)))
        fit = fit_row(delays, rates)
        rel = max(abs(fit.visibility - vis) / vis, abs(fit.fwhm_um - fwhm) / fwhm)
        noiseless_ok = noiseless_ok and rel <= TOL_FIT_REL
        details.append(f"noiseless rel dev {rel:.1e}")

    coverage_ok = True
    for vis, fwhm, seed in COVERAGE_CONFIGS:
        w = fwhm / GAUSSIAN_FWHM_FACTOR
        rates = 1000.0 * (1.0 - vis * np.exp(-(delays**2) / (2.0 * w**2)))
        rng = np.random.default_rng(seed)
        v1 = v2 = f1 = f2 = 0
        block = np.array([rng.poisson(rates) for _ in range(100)])  # the draws in order
        for fit in optics.fit_gaussian_dip(delays, block, poisson_weights=True).outcomes:
            v1 += abs(fit.visibility - vis) <= fit.visibility_err
            v2 += abs(fit.visibility - vis) <= 2.0 * fit.visibility_err
            f1 += abs(fit.fwhm_um - fwhm) <= fit.fwhm_err
            f2 += abs(fit.fwhm_um - fwhm) <= 2.0 * fit.fwhm_err
        coverage_ok = coverage_ok and (
            v1 >= COVER_1SIGMA
            and f1 >= COVER_1SIGMA
            and v2 >= COVER_2SIGMA
            and f2 >= COVER_2SIGMA
        )
        details.append(
            f"V={vis}: vis {v1}/{v2}, fwhm {f1}/{f2} of 100 in 1/2 sigma"
        )
    elapsed = time.perf_counter() - start
    ok = noiseless_ok and coverage_ok and elapsed < RUNTIME_5
    _report(
        capsys,
        5,
        ok,
        "; ".join(details) + f" (need >= {COVER_1SIGMA}/{COVER_2SIGMA}); "
        f"{elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_degenerate_cases(capsys):
    worst = 0.0
    cases = []
    # fully distinguishable particles
    rho = _pipeline_rho(22.5, 0.0)
    cases.append(("overlap=0", entanglement.wootters_concurrence([rho])[0]))
    alphas, betas = optics.spatial_amplitudes_from_theta(22.5)
    cases.append(("overlap=0 closed", entanglement.concurrence_closed_form(alphas, betas, 0.0)))
    # one particle pinned to a single side (each amplitude in turn)
    for theta_a, theta_b in ((0.0, 22.5), (45.0, 22.5), (22.5, 0.0), (22.5, 45.0)):
        alphas, _ = optics.spatial_amplitudes_from_theta(theta_a)
        _, betas = optics.spatial_amplitudes_from_theta(theta_b)
        phi_a, phi_b = optics.dist_vectors_for_overlap(1.0)
        p_a = SingleParticleState(alphas, Spin.UP, phi_a)
        p_b = SingleParticleState(betas, Spin.DOWN, phi_b)
        rho = _pipeline_from_states(p_a, p_b)
        cases.append(
            (
                f"amplitudes ({theta_a}, {theta_b}) deg",
                max(
                    entanglement.wootters_concurrence([rho])[0],
                    entanglement.concurrence_closed_form(alphas, betas, 1.0),
                ),
            )
        )
    worst = max(c for _, c in cases)
    ok = worst <= TOL_DEGENERATE
    _report(
        capsys,
        6,
        ok,
        f"{len(cases)} unentangled corners, max C = {worst:.2e} "
        f"(tol {TOL_DEGENERATE:.0e})",
    )
    assert ok


def test_criterion_7_byte_identical_sweeps(capsys, tmp_path):
    base = [
        "sweep",
        "--theta-grid",
        "0:45:10",
        "--delay-grid",
        "0,25,50,100",
        "--noisy",
        "--runs",
        "25",
        "--seed",
        "12",
    ]
    results = []
    for fmt in ("csv", "json"):
        a = tmp_path / f"first.{fmt}"
        b = tmp_path / f"second.{fmt}"
        code_a = cli.main(base + ["--format", fmt, "--out", str(a)])
        code_b = cli.main(base + ["--format", fmt, "--out", str(b)])
        results.append(
            code_a == 0 and code_b == 0 and a.read_bytes() == b.read_bytes()
        )
    ok = all(results)
    _report(
        capsys,
        7,
        ok,
        f"noisy 10x4 sweep rerun identical: csv={results[0]}, json={results[1]}",
    )
    assert ok


def test_criterion_8_monotonicity(capsys):
    table = np.empty((len(THETA_GRID), len(OVERLAP_GRID)))
    spatial = np.array([optics.spatial_overlap_factor(t) for t in THETA_GRID])
    for i, theta in enumerate(THETA_GRID):
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        for j, ov in enumerate(OVERLAP_GRID):
            table[i, j] = entanglement.concurrence_closed_form(alphas, betas, ov)

    overlap_ok = all(
        table[i, j] <= table[i, j + 1]
        for i in range(table.shape[0])
        for j in range(table.shape[1] - 1)
    )
    order = np.argsort(spatial, kind="stable")
    spatial_ok = all(
        table[order[k], j] <= table[order[k + 1], j]
        for j in range(table.shape[1])
        for k in range(len(order) - 1)
    )
    ok = overlap_ok and spatial_ok
    _report(
        capsys,
        8,
        ok,
        f"19x21 grid exact comparisons: nondecreasing in overlap = {overlap_ok}, "
        f"nondecreasing in spatial factor = {spatial_ok}",
    )
    assert ok
