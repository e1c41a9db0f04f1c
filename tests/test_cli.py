"""Command-line interface: output formats, grids, exit codes, determinism.

Everything drives `twoboson.cli.main` in-process so coverage and debugging
stay simple; one subprocess smoke test exercises the installed script.
"""

import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from twoboson import __version__, cli, entanglement, fq_oracle, optics
from twoboson.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
from twoboson.core_state import SingleParticleState, Spin
from twoboson.optics import DEFAULT_SIGMA_UM, concurrence_optical

SWEEP_HEADER = (
    "theta_deg,delay_um,spatial_overlap,overlap_paper,overlap_quadrature,"
    "c_closed_form,c_wootters_normalized,e_p"
)


def _report_value(out: str, name: str) -> float:
    for line in out.splitlines():
        if line.split("=")[0].strip() == name:
            return float(line.split("=")[1])
    raise AssertionError(f"no {name!r} line in output:\n{out}")


def _read_csv(text: str):
    return list(csv.DictReader(io.StringIO(text)))


# --- concurrence ------------------------------------------------------------


def test_balanced_point_prints_unit_concurrence(capsys):
    assert main(["concurrence", "--theta-deg", "22.5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert _report_value(out, "C") == 1.0
    assert _report_value(out, "C_wootters") == 1.0
    assert _report_value(out, "E_P") == 0.5


def test_zero_angle_prints_zero_concurrence(capsys):
    assert main(["concurrence", "--theta-deg", "0"]) == EXIT_OK
    assert _report_value(capsys.readouterr().out, "C") == 0.0


def test_seventy_micron_delay(capsys):
    assert main(["concurrence", "--theta-deg", "22.5", "--delay-um", "70"]) == EXIT_OK
    got = _report_value(capsys.readouterr().out, "C")
    want = concurrence_optical(22.5, 70.0, DEFAULT_SIGMA_UM)
    assert abs(got - want) < 5e-7  # printed at 6 decimals
    assert f"{want:.6f}".startswith("0.4999")


def test_delta_flag_replaces_sigma(capsys):
    assert main(
        ["concurrence", "--theta-deg", "22.5", "--delay-um", "70", "--delta", "0.01"]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert _report_value(out, "sigma_um") == 50.0
    assert abs(_report_value(out, "C") - concurrence_optical(22.5, 70.0, 50.0)) < 5e-7


def test_sigma_and_delta_are_mutually_exclusive(capsys):
    code = main(
        ["concurrence", "--theta-deg", "22.5", "--sigma-um", "50", "--delta", "0.01"]
    )
    assert code == EXIT_USAGE
    assert "not allowed with" in capsys.readouterr().err


def test_bad_number_is_a_usage_error(capsys):
    assert main(["concurrence", "--theta-deg", "abc"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_missing_subcommand_is_a_usage_error(capsys):
    assert main([]) == EXIT_USAGE


@pytest.mark.parametrize(
    "argv, reason",
    [
        (["concurrence", "--theta-deg", "nan"], "finite"),
        (["concurrence", "--theta-deg", "22.5", "--delay-um", "inf"], "finite"),
        (["sweep", "--theta-grid", "0,nan"], "bad grid"),
        (["sweep", "--delay-grid", "0:inf:3"], "bad grid"),
        (["hom", "--delay-grid", "0,50,nan,150,200"], "bad grid"),
        (["hom", "--center-um", "nan"], "finite"),
        (["concurrence", "--theta-deg", "22.5", "--sigma-um", "0"], "positive"),
        (["sweep", "--sigma-um", "nan"], "finite"),
        (["concurrence", "--theta-deg", "22.5", "--delta", "-0.01"], "positive"),
        (["sweep", "--delta", "inf"], "finite"),
        # sigma = 1/(2 delta) overflows to inf, or underflows to 0
        (
            ["sweep", "--delta", "1e-320", "--format", "json"],
            "argument --delta: expected a spectral width whose sigma = 1/(2 delta) "
            "is a finite positive number, got '1e-320'",
        ),
        (
            ["concurrence", "--theta-deg", "22.5", "--delta", "1e308"],
            "argument --delta: expected a spectral width whose sigma = 1/(2 delta) "
            "is a finite positive number, got '1e308'",
        ),
        (["hom", "--fwhm-um", "0"], "positive"),
        (["hom", "--fwhm-um", "nan"], "finite"),
        (["hom", "--baseline", "-1"], "positive"),
        (["sweep", "--noisy", "--shots", "0"], "positive"),
        (["sweep", "--noisy", "--shots", "-5"], "positive"),
        (["sweep", "--noisy", "--shots", "inf"], "finite"),
        (["sweep", "--noisy", "--runs", "1"], "--runs >= 2"),
        (["hom", "--noisy", "--runs", "1"], "--runs >= 2"),
        (["hom", "--delay-grid", "0,1,2"], "at least 5 distinct delays"),
        (["hom", "--delay-grid", "0,0,0,0,300"], "at least 5 distinct delays"),
        (["hom", "--visibility", "1.5"], "error: visibility must lie in [0, 1]"),
        (["verify", "--trials", "0"], "error: trials must be >= 1"),
        (
            ["sweep", "--theta-grid", "22.5", "--delay-grid", "0", "--out", "not/there/x.csv"],
            "error: cannot write 'not/there/x.csv': "
            "[Errno 2] No such file or directory: 'not/there/x.csv'",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_bad_input_is_rejected_before_any_output(argv, reason, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # where a relative --out path would be written
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err
    if reason.startswith("error: "):  # a whole line, as `main` prints it
        assert captured.err == reason + "\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", ("--theta-grid", "--delay-grid"))
def test_a_grid_too_large_to_allocate_is_a_usage_error(option, monkeypatch, capsys):
    # stand in for numpy's allocation failure at a count of 100000000000,
    # so that nothing is allocated
    def too_large(start, stop, num):
        raise MemoryError(f"Unable to allocate {8 * num} bytes for an array")

    monkeypatch.setattr(cli.np, "linspace", too_large)
    argv = ["sweep", "--theta-grid", "10", "--delay-grid", "0"]
    argv[argv.index(option) + 1] = "0:45:100000000000"
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.endswith(
        f"error: argument {option}: grid '0:45:100000000000' is too large to allocate\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["concurrence", "--theta-deg", "22.5", "--delay-um", "1e200"],
        ["concurrence", "--theta-deg", "22.5", "--sigma-um", "1e-200"],
        ["concurrence", "--theta-deg", "22.5", "--delta", "1e200"],
        ["sweep", "--theta-grid", "10", "--delay-grid", "0,1e200"],
        ["hom", "--fwhm-um", "1e-200"],
        ["hom", "--center-um", "1e200"],
    ],
    ids=" ".join,
)
def test_finite_input_that_overflows_is_a_numerical_error(argv, tmp_path, capsys):
    # finite, positive input whose arithmetic overflows or divides by zero
    table = tmp_path / "table.csv"
    if argv[0] != "concurrence":
        argv = argv + ["--out", str(table)]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert not table.exists()


@pytest.mark.parametrize(
    "argv, option",
    [
        (["hom", "--baseline", "1e300", "--noisy"], "--baseline 1e+300"),
        (
            ["sweep", "--noisy", "--shots", "1e300", "--theta-grid", "22.5", "--delay-grid", "0"],
            "--shots 1e+300",
        ),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_rates_beyond_the_poisson_sampler_name_the_option(argv, option, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {option} is too large: ")
    assert "largest rate of" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--theta-grid", "10", "--delay-grid", "0", "--noisy"],
        ["hom", "--noisy"],
        ["verify"],
    ],
    ids=" ".join,
)
def test_a_negative_seed_is_a_usage_error_that_names_the_seed(argv, capsys):
    assert main(argv + ["--seed", "-1"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(
        "error: argument --seed: expected a non-negative integer, got '-1'\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["sweep", "--theta-grid", "10", "--delay-grid", "0", "--noisy"],
        ["hom", "--noisy"],
    ],
    ids=" ".join,
)
def test_a_count_block_too_large_to_allocate_is_one_error_line(
    argv, monkeypatch, tmp_path, capsys
):
    # stand in for numpy's allocation failure at --runs 100000000000, first
    # when the block is drawn, then, for `hom`, when the drawn block is fitted
    def too_large(rates, seed, runs=1):
        raise MemoryError(f"Unable to allocate a ({runs}, {len(rates)}) count block")

    def drawn(rates, seed, runs=1):
        return np.broadcast_to(np.round(rates), (runs, len(rates)))  # allocates no block

    def too_large_to_fit(delays, counts, poisson_weights=False):
        raise MemoryError(f"Unable to allocate the {counts.shape} working arrays of the fit")

    failures = [{"simulate_counts": too_large}]
    if argv[0] == "hom":
        failures.append({"simulate_counts": drawn, "fit_gaussian_dip": too_large_to_fit})
    for patches in failures:
        for name, stand_in in patches.items():
            monkeypatch.setattr(optics, name, stand_in)
        table = tmp_path / "table.csv"
        assert main(argv + ["--runs", "100000000000", "--out", str(table)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: out of memory: Unable to allocate")
        assert captured.err.count("\n") == 1
        assert not table.exists()
        # and with the table on stdout
        assert main(argv + ["--runs", "100000000000"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("\n") == 1


def test_production_commands_never_call_the_oracle(monkeypatch, capsys):
    def forbidden(*args, **kwargs):
        raise RuntimeError("the labeled-tensor oracle is for verification only")

    for name, value in vars(fq_oracle).items():
        if inspect.isfunction(value) and value.__module__ == fq_oracle.__name__:
            if not name.startswith("_"):
                monkeypatch.setattr(fq_oracle, name, forbidden)
    for argv in (
        ["concurrence", "--theta-deg", "10", "--delay-um", "40"],
        ["sweep", "--theta-grid", "0:45:4", "--delay-grid", "0,60"],
        ["sweep", "--theta-grid", "22.5", "--delay-grid", "0", "--noisy", "--runs", "5"],
        ["hom", "--visibility", "0.9", "--noisy", "--runs", "5"],
    ):
        assert main(argv) == EXIT_OK, argv


def test_version_flag(capsys):
    assert main(["--version"]) == EXIT_OK
    assert __version__ in capsys.readouterr().out


# --- sweep --------------------------------------------------------------------


def test_theta_section_matches_the_spatial_law(capsys):
    assert main(["sweep", "--theta-grid", "0:45:19", "--delay-grid", "0"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == SWEEP_HEADER
    rows = _read_csv(out)
    assert len(rows) == 19
    for row in rows:
        theta = float(row["theta_deg"])
        want = math.sin(math.radians(4.0 * theta)) ** 2
        assert abs(float(row["c_closed_form"]) - want) < 1e-11
        assert float(row["spatial_overlap"]) == pytest.approx(want, abs=1e-11)
        # conditioned on post-selection the state is purer, so the
        # normalized reading is closed / (2 - spatial factor)
        conditional = want / (2.0 - want)
        assert abs(float(row["c_wootters_normalized"]) - conditional) < 1e-9


def test_single_point_sweep(capsys):
    assert main(["sweep", "--theta-grid", "22.5", "--delay-grid", "0"]) == EXIT_OK
    rows = _read_csv(capsys.readouterr().out)
    assert len(rows) == 1
    assert float(rows[0]["c_closed_form"]) == 1.0
    assert float(rows[0]["e_p"]) == 0.5


def test_delay_section_decays_monotonically(capsys):
    assert main(
        ["sweep", "--theta-grid", "22.5", "--delay-grid", "0,30,60,300"]
    ) == EXIT_OK
    rows = _read_csv(capsys.readouterr().out)
    cs = [float(r["c_closed_form"]) for r in rows]
    assert all(b < a for a, b in zip(cs, cs[1:]))
    assert cs[-1] < 1e-5


def test_noisy_sweep_adds_monte_carlo_columns(capsys):
    assert main(
        [
            "sweep",
            "--theta-grid",
            "22.5",
            "--delay-grid",
            "0",
            "--noisy",
            "--runs",
            "50",
            "--seed",
            "4",
        ]
    ) == EXIT_OK
    out = capsys.readouterr().out
    assert out.splitlines()[0] == SWEEP_HEADER + ",c_mc_mean,c_mc_stddev"
    row = _read_csv(out)[0]
    assert 0.8 < float(row["c_mc_mean"]) <= 1.0
    assert 0.0 < float(row["c_mc_stddev"]) < 0.2


def _assert_noisy_sweep_row_matches_a_per_run_loop(extra_argv, shots, capsys):
    # the noisy columns are the mean and stddev of one X-state concurrence
    # estimate per run, each from its own Poisson draw of the four channels,
    # with the generator of row k seeded [seed, k]; a run that observes no
    # coincidence reads 0
    argv = ["sweep", "--theta-grid", "10,22.5", "--delay-grid", "30", "--noisy"]
    argv += extra_argv + ["--runs", "40", "--seed", "5", "--format", "json"]
    assert main(argv) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["rows"][1]
    ((_, rho),) = cli._theta_rows(
        cli._theta_values(22.5), [cli._delay_values(30.0, DEFAULT_SIGMA_UM, "fitted")]
    )
    p, r, q = rho.matrix[1, 1].real, rho.matrix[2, 2].real, rho.matrix[1, 2].real
    rates = np.array([p, r, (p + r) / 2.0 + q, (p + r) / 2.0 - q]) * shots
    rng = np.random.default_rng([5, 1])
    draws = []
    for _ in range(40):
        n_ud, n_du, n_plus, n_minus = rng.poisson(np.clip(rates, 0.0, None))
        if n_ud + n_du == 0:
            draws.append(0.0)
            continue
        q_hat = (float(n_plus) - float(n_minus)) / 2.0
        draws.append(float(min(1.0, 2.0 * abs(q_hat) / (n_ud + n_du))))
    assert (0.0 in draws) == (shots == 3.0)
    assert row["c_mc_mean"] == float(np.mean(draws))
    assert row["c_mc_stddev"] == float(np.std(draws, ddof=1))


def test_noisy_sweep_row_matches_a_per_run_resampling_loop(capsys):
    # the default of 1000 shots per channel
    _assert_noisy_sweep_row_matches_a_per_run_loop([], 1000.0, capsys)


def test_noisy_sweep_row_at_three_shots_reads_zero_for_empty_runs(capsys):
    _assert_noisy_sweep_row_matches_a_per_run_loop(["--shots", "3"], 3.0, capsys)


def test_sweep_computes_each_concurrence_once_per_point(monkeypatch, capsys):
    calls = []
    original = entanglement.wootters_concurrence

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(entanglement, "wootters_concurrence", counted)
    argv = ["sweep", "--theta-grid", "10,22.5,40", "--delay-grid", "0,60"]
    assert main(argv) == EXIT_OK
    # one stacked call per angle, over that angle's two delays
    assert [len(args[0]) for args in calls] == [2, 2, 2]


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_sweep_matches_a_per_point_reference_of_single_state_calls(convention, capsys):
    thetas, delays = (0.0, 7.5, 22.5, 31.0, 45.0), (-40.0, 0.0, 30.0, 300.0)
    argv = [
        "sweep", "--theta-grid", ",".join(map(str, thetas)),
        "--delay-grid=" + ",".join(map(str, delays)), "--overlap-convention", convention,
    ]
    assert main(argv) == EXIT_OK
    lines = [SWEEP_HEADER]
    for theta in thetas:
        alphas, betas = optics.spatial_amplitudes_from_theta(theta)
        for delay in delays:
            ov = optics.gaussian_overlap(delay, convention, DEFAULT_SIGMA_UM)
            phi_a, phi_b = optics.dist_vectors_for_overlap(ov)
            nd = entanglement.number_distribution(
                SingleParticleState(alphas, Spin.UP, phi_a),
                SingleParticleState(betas, Spin.DOWN, phi_b),
            )
            c = entanglement.wootters_concurrence([nd.state], normalize=True)  # a stack of one
            row = (
                theta,
                delay,
                optics.spatial_overlap_factor(theta),
                optics.gaussian_overlap(delay, "paper", DEFAULT_SIGMA_UM),
                optics.gaussian_overlap(delay, "quadrature", DEFAULT_SIGMA_UM),
                entanglement.concurrence_closed_form(alphas, betas, ov),
                *c,
                *entanglement.entanglement_of_particles([nd], c),
            )
            lines.append(",".join(format(x + 0.0, ".12g") for x in row))  # -0.0 reads 0
    assert capsys.readouterr().out == "\n".join(lines) + "\n"


def test_sweep_computes_each_axis_value_once(monkeypatch, capsys):
    calls = {"gaussian_overlap": 0, "spatial_amplitudes_from_theta": 0}
    for name in calls:
        original = getattr(optics, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        monkeypatch.setattr(optics, name, counted)
    argv = ["sweep", "--theta-grid", "10,22.5,40", "--delay-grid", "0,60"]
    assert main(argv) == EXIT_OK
    # three overlaps per delay; the amplitudes and the spatial factor per angle
    assert calls == {"gaussian_overlap": 6, "spatial_amplitudes_from_theta": 6}


def test_sweep_reruns_are_byte_identical(tmp_path):
    args = [
        "sweep",
        "--theta-grid",
        "0:45:7",
        "--delay-grid",
        "0,40,80",
        "--noisy",
        "--runs",
        "20",
        "--seed",
        "3",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == EXIT_OK
    assert main(args + ["--out", str(b)]) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_sweep_json_payload(tmp_path):
    out = tmp_path / "table.json"
    assert main(
        [
            "sweep",
            "--theta-grid",
            "0,22.5",
            "--delay-grid",
            "0,60",
            "--format",
            "json",
            "--out",
            str(out),
            "--seed",
            "11",
        ]
    ) == EXIT_OK
    payload = json.loads(out.read_text())
    assert set(payload) == {"metadata", "rows"}
    meta = payload["metadata"]
    assert meta["command"] == "sweep"
    assert meta["version"] == __version__
    assert meta["theta_grid"] == [0.0, 22.5]
    assert meta["delay_grid"] == [0.0, 60.0]
    assert meta["seed"] == 11
    assert meta["overlap_convention"] == "fitted"
    assert len(payload["rows"]) == 4
    assert set(payload["rows"][0]) == set(SWEEP_HEADER.split(","))


def test_overlap_convention_changes_the_pipeline_columns(capsys):
    def one_row(convention):
        assert main(
            [
                "sweep",
                "--theta-grid",
                "22.5",
                "--delay-grid",
                "60",
                "--overlap-convention",
                convention,
            ]
        ) == EXIT_OK
        return _read_csv(capsys.readouterr().out)[0]

    fitted = one_row("fitted")
    paper = one_row("paper")
    # the physical-constant columns agree; the pipeline concurrence moves
    assert fitted["overlap_paper"] == paper["overlap_paper"]
    assert float(paper["c_closed_form"]) < float(fitted["c_closed_form"])
    assert float(paper["c_closed_form"]) == pytest.approx(
        float(paper["overlap_paper"]) ** 2, abs=1e-9
    )


# --- hom -------------------------------------------------------------------------


def test_noiseless_dip_fit_matches_the_truth(tmp_path, capsys):
    out = tmp_path / "counts.csv"
    assert main(
        [
            "hom",
            "--visibility",
            "0.9",
            "--fwhm-um",
            "140",
            "--out",
            str(out),
        ]
    ) == EXIT_OK
    text = capsys.readouterr().out
    assert abs(_fit_value(text, "visibility") - 0.9) < 1e-6
    assert abs(_fit_value(text, "fwhm_um") - 140.0) < 1e-4
    assert "mc (" not in text  # error bars only appear for noisy scans
    assert len(out.read_text().splitlines()) == 62  # header + 61 grid points


def _fit_value(out: str, name: str) -> float:
    for line in out.splitlines():
        if line.startswith(f"fit: {name}"):
            return float(line.split("=")[1].split("+/-")[0])
    raise AssertionError(f"no fit line for {name!r}:\n{out}")


def test_zero_visibility_fails_but_still_writes_counts(tmp_path, capsys):
    out = tmp_path / "flat.csv"
    code = main(["hom", "--visibility", "0", "--out", str(out)])
    assert code == EXIT_NUMERICAL
    assert "no dip detected" in capsys.readouterr().err
    assert len(out.read_text().splitlines()) == 62  # data survives the failed fit


def test_noisy_scan_reports_error_bars(tmp_path, capsys):
    out = tmp_path / "noisy.csv"
    assert main(
        [
            "hom",
            "--visibility",
            "0.9",
            "--noisy",
            "--runs",
            "10",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    ) == EXIT_OK
    text = capsys.readouterr().out
    assert "mc (10 runs): visibility" in text
    assert "mc (10 runs): fwhm_um" in text
    assert abs(_fit_value(text, "visibility") - 0.9) < 0.05
    counts = [int(r["counts"]) for r in _read_csv(out.read_text())]
    assert min(counts) < 400 and max(counts) > 800  # a real dip in real counts


def test_hom_json_counts_table(tmp_path):
    out = tmp_path / "counts.json"
    assert main(["hom", "--format", "json", "--out", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["metadata"]["command"] == "hom"
    assert payload["metadata"]["fwhm_um"] == 132.0
    assert len(payload["rows"]) == 61
    assert set(payload["rows"][0]) == {"delay_um", "counts"}


def test_noisy_hom_json_counts_table(tmp_path):
    out = tmp_path / "noisy.json"
    argv = ["hom", "--noisy", "--runs", "3", "--format", "json", "--out", str(out)]
    assert main(argv) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    assert len(rows) == 61
    assert all(r["counts"] == int(r["counts"]) >= 0 for r in rows)


def test_hom_leaves_out_a_few_failed_resample_fits(capsys):
    # 1 resample fit fails and 1 converges to a FWHM of thousands of scan
    # widths, which resolves no dip; were that one kept, the error bar would read
    # 27488.403105 +/- 272132.956642
    argv = ["hom", "--noisy", "--baseline", "5", "--seed", "0"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "monte carlo: left out 2 of 100 runs whose fit failed" in captured.err
    assert "mc (100 runs): visibility" in captured.out
    (line,) = [l for l in captured.out.splitlines() if "fwhm_um    =" in l]
    mean, std = (float(v) for v in line.split("=")[1].split("+/-"))
    assert 100.0 < mean < 200.0 and 0.0 < std < 50.0  # true FWHM 132 um, span 600 um


def test_hom_fails_when_too_many_resample_fits_fail(capsys):
    # the printed fit resolves the dip (FWHM 144 um); 16 resamples do not
    argv = ["hom", "--noisy", "--baseline", "4", "--seed", "1"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "fit: fwhm_um     = 144.093862" in captured.out
    assert "monte carlo failed: 16 of 100 resample fits failed" in captured.err
    assert "resolve no dip over a 600 um scan" in captured.err
    assert "mc (" not in captured.out


def test_noisy_hom_refuses_a_printed_fit_wider_than_the_scan(capsys):
    # the count table's own fit converges to a FWHM of 781793 um over a
    # 600 um scan: the command fails after the table, before any fit line
    argv = ["hom", "--noisy", "--baseline", "5", "--seed", "70"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == (
        "fit failed: fitted FWHM 781793 um and baseline 1327.05 resolve no dip "
        "over a 600 um scan\n"
    )
    assert len(_read_csv(captured.out)) == 61  # the full count table
    assert _report_lines(captured.out) == []


def test_hom_refuses_a_fit_that_is_not_finite(capsys):
    # a baseline near the float range is fitted, and its errors worked, in
    # units of a power of two, and only the residual in counts overflows;
    # RuntimeWarnings are errors under the test settings, so none escapes
    for baseline in ("1e200", "1e300", "1e305"):
        assert main(["hom", "--baseline", baseline]) == EXIT_NUMERICAL
        captured = capsys.readouterr()
        assert len(_read_csv(captured.out)) == 61  # the full count table
        assert "fit:" not in captured.out and "nan" not in captured.out
        assert captured.err == "fit failed: fit is not finite: residual\n"


def test_a_fit_that_is_not_finite_leaves_a_clean_table_on_stdout(capfd):
    # read at the file descriptor, where LAPACK would print its complaint
    # about a matrix that is not finite
    assert main(["hom", "--baseline", "1e305"]) == EXIT_NUMERICAL
    captured = capfd.readouterr()
    assert captured.out.startswith("delay_um,counts\n")
    assert "DLASCL" not in captured.out
    assert len(_read_csv(captured.out)) == 61
    assert captured.err.count("\n") == 1


def test_noiseless_hom_fits_a_dip_wider_than_the_scan(capsys):
    # the width rule applies to noisy data only; exact data whose true FWHM
    # exceeds the 600 um scan is still fitted and printed
    assert main(["hom", "--fwhm-um", "650"]) == EXIT_OK
    text = capsys.readouterr().out
    assert abs(_fit_value(text, "fwhm_um") - 650.0) < 1e-4


def _report_lines(out: str) -> list:
    """The fit and Monte Carlo lines `hom` prints after its count table."""
    return [line for line in out.splitlines() if line.startswith(("fit:", "mc ("))]


def test_hom_recovers_an_exact_dip_at_a_tiny_baseline(capsys):
    # the unweighted fit runs in units of a power of two near the largest
    # count, so a baseline of 1e-20 fits like the default one
    assert main(["hom", "--baseline", "1e-20"]) == EXIT_OK
    lines = _report_lines(capsys.readouterr().out)
    assert any(line.startswith("fit: fwhm_um     = 132.000000 ") for line in lines)
    assert any(line.startswith("fit: visibility  = 1.000000 ") for line in lines)


@pytest.mark.parametrize("baseline", ("1", "4", "1e-300"))
def test_a_fit_value_that_rounds_to_zero_prints_unsigned(baseline, capsys):
    # the exact fit's center is a rounding residue, here a negative one; the
    # fit and mc lines leave no sign on a zero, as the sweep tables do
    assert main(["hom", "--baseline", baseline]) == EXIT_OK
    lines = _report_lines(capsys.readouterr().out)
    assert "fit: center_um   = 0.000000 +/- 0.000000" in lines
    assert not any("-0.000000" in line for line in lines)
    assert [cli._fixed(x) for x in (-1e-12, -0.0, -0.25, -math.inf)] == [
        "0.000000", "0.000000", "-0.250000", "-inf"
    ]


def test_noisy_hom_golden_fit_and_error_bars(capsys):
    argv = ["hom", "--visibility", "0.91", "--fwhm-um", "137", "--noisy", "--runs", "100"]
    assert main(argv + ["--seed", "1"]) == EXIT_OK
    lines = _report_lines(capsys.readouterr().out)
    for want in (
        "fit: visibility  = 0.908152 +/- 0.005620",
        "fit: fwhm_um     = 135.776089 +/- 2.037150",
        "fit: residual    = 34.4404",
        "mc (100 runs): visibility = 0.910168 +/- 0.004607",
        "mc (100 runs): fwhm_um    = 137.098380 +/- 1.720736",
    ):
        assert want in lines


#: SHA-256 of the fields of all 100 resample fits of `hom --visibility 0.91
#: --fwhm-um 137 --noisy --runs 100 --seed 1`, as the block fit gives them
#: with one stacked Householder QR least-squares step per Gauss-Newton round
#: and one stacked result pass, whose covariance comes from the QR triangle
#: of the weighted Jacobian.  Each run's second pass reweights from the
#: current model every round and stops at the fixed point of that
#: reweighting, not after two reweighted passes
HOM_SEED_1_FITS_SHA256 = "053952fed2366463b43f5e5afc2f518761ad2d1ae780fc87abffb811c68b4651"


def test_noisy_hom_resample_fits_keep_their_bits(monkeypatch, capsys):
    fits = []
    fit_gaussian_dip = optics.fit_gaussian_dip

    def recorded(*args, **kwargs):
        fits.append(fit_gaussian_dip(*args, **kwargs))
        return fits[-1]

    monkeypatch.setattr(optics, "fit_gaussian_dip", recorded)
    argv = ["hom", "--visibility", "0.91", "--fwhm-um", "137", "--noisy", "--runs", "100"]
    assert main(argv + ["--seed", "1"]) == EXIT_OK
    capsys.readouterr()
    ((outcomes, _),) = fits
    assert len(outcomes) == 100
    digest = hashlib.sha256()
    for fit in outcomes:
        assert isinstance(fit, optics.FitResult)
        digest.update(np.array(dataclasses.astuple(fit), dtype=float).tobytes())
    assert digest.hexdigest() == HOM_SEED_1_FITS_SHA256


def test_noisy_hom_fits_the_printed_row_once(monkeypatch, capsys):
    fits = []
    fit_gaussian_dip = optics.fit_gaussian_dip

    def counted(*args, **kwargs):
        fits.append(args)
        return fit_gaussian_dip(*args, **kwargs)

    monkeypatch.setattr(optics, "fit_gaussian_dip", counted)
    assert main(["hom", "--noisy", "--runs", "5"]) == EXIT_OK
    # one call fits the whole block; its row 0 is the printed table's
    ((delays, block),) = fits
    assert block.shape == (5, len(delays))
    assert _report_lines(capsys.readouterr().out) == [
        "fit: baseline    = 1011.261410 +/- 6.305268",
        "fit: depth       = 1011.689050 +/- 6.538398",
        "fit: center_um   = -0.659779 +/- 0.477315",
        "fit: fwhm_um     = 132.856402 +/- 1.585447",
        "fit: visibility  = 1.000423 +/- 0.002246",
        "fit: residual    = 55.5008",
        "mc (5 runs): visibility = 0.999891 +/- 0.000370",
        "mc (5 runs): fwhm_um    = 132.802375 +/- 0.506110",
    ]


def test_cached_parser_gives_the_output_of_a_fresh_one(capsys):
    argvs = (["hom", "--noisy", "--seed", "1"], ["sweep"], ["hom", "--noisy", "--runs", "1"])

    def run(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    in_sequence = [run(argv) for argv in argvs]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(run(argv))
    assert in_sequence == fresh
    assert [code for code, _, _ in fresh] == [EXIT_OK, EXIT_OK, EXIT_USAGE]


# --- verify ------------------------------------------------------------------------


def test_verify_passes_and_reports(capsys):
    assert main(["verify", "--trials", "20", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verification: 15/15 checks passed" in out
    assert "[check ] occupation_weighted_vs_half_closed_form" in out
    assert "[check ] overlap_exponent_relation" in out
    assert "FAIL" not in out


VERIFY_TRIALS_100_SEED_1 = """\
[check ] transition_vs_labeled_oracle         max_dev=4.578e-16    tol=1e-12  PASS
[check ] symmetrized_norm_bunching            max_dev=1.332e-15    tol=1e-12  PASS
[check ] single_bra_projection                max_dev=1.570e-16    tol=1e-12  PASS
[check ] detector_expansion_completeness      max_dev=6.661e-16    tol=1e-12  PASS
[check ] postselected_density_vs_oracle       max_dev=6.661e-16    tol=1e-12  PASS
[check ] postselect_idempotent                max_dev=0.000e+00    tol=5e-01  PASS
[check ] density_matrix_validity              max_dev=1.388e-16    tol=1e-12  PASS
[check ] closed_form_vs_wootters_raw          max_dev=3.331e-16    tol=1e-09  PASS
[check ] balanced_manifold_concurrence        max_dev=6.661e-16    tol=1e-09  PASS
[check ] optical_law_splice                   max_dev=3.331e-16    tol=1e-12  PASS
[check ] quadrature_overlap_integral          max_dev=5.516e-16    tol=1e-09  PASS
[check ] hom_level_vs_oracle                  max_dev=4.547e-13    tol=1e-12  PASS
[check ] concurrence_monotonicity             max_dev=0.000e+00    tol=5e-01  PASS
[check ] occupation_weighted_vs_half_closed_form max_dev=2.220e-16    tol=1e-09  PASS
[check ] overlap_exponent_relation            max_dev=2.220e-16    tol=1e-12  PASS
verification: 15/15 checks passed
"""


def test_verify_golden_output(capsys):
    # every random draw, oracle route and tolerance feeds one of these bytes
    assert main(["verify", "--trials", "100", "--seed", "1"]) == EXIT_OK
    assert capsys.readouterr().out == VERIFY_TRIALS_100_SEED_1


def test_verify_makes_one_stacked_wootters_call_per_concurrence_suite(monkeypatch, capsys):
    stacks = []
    original = entanglement.wootters_concurrence

    def counted(rhos, *args, **kwargs):
        stacks.append(len(rhos))
        return original(rhos, *args, **kwargs)

    monkeypatch.setattr(entanglement, "wootters_concurrence", counted)
    assert main(["verify", "--trials", "100"]) == EXIT_OK
    # closed_form_vs_wootters_raw, balanced_manifold_concurrence and
    # occupation_weighted_vs_half_closed_form, one stacked call each
    assert stacks == [100, 100, 100]


def test_verify_single_trial(capsys):
    assert main(["verify", "--trials", "1"]) == EXIT_OK


def test_corrupted_tolerance_makes_verification_fail(capsys, failing_tolerances):
    code = main(["verify", "--trials", "5"])
    assert code == EXIT_VERIFICATION
    assert "FAIL" in capsys.readouterr().out


# --- installed script ----------------------------------------------------------------


def test_console_script_smoke():
    exe = shutil.which("twoboson")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run(
        [exe, "concurrence", "--theta-deg", "22.5"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "C" in proc.stdout
