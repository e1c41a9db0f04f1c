"""Command-line interface: output formats, grids, exit codes, determinism.

Everything drives `twoboson.cli.main` in-process so coverage and debugging
stay simple; one subprocess smoke test exercises the installed script.
"""

import csv
import inspect
import io
import json
import math
import shutil
import subprocess

import numpy as np
import pytest

from twoboson import __version__, cli, entanglement, fq_oracle
from twoboson.cli import EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, EXIT_VERIFICATION, main
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
        (["hom", "--fwhm-um", "0"], "positive"),
        (["hom", "--fwhm-um", "nan"], "finite"),
        (["hom", "--baseline", "-1"], "positive"),
        (["sweep", "--noisy", "--shots", "0"], "positive"),
        (["sweep", "--noisy", "--shots", "-5"], "positive"),
        (["sweep", "--noisy", "--shots", "inf"], "finite"),
        (["sweep", "--noisy", "--runs", "1"], "--runs >= 2"),
        (["hom", "--noisy", "--runs", "1"], "--runs >= 2"),
        (["hom", "--delay-grid", "0,1,2"], "at least 5 points"),
    ],
    ids=lambda v: " ".join(v) if isinstance(v, list) else v,
)
def test_bad_input_is_rejected_before_any_output(argv, reason, capsys):
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert reason in captured.err


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


def test_noisy_sweep_row_matches_a_per_run_resampling_loop(capsys):
    # the noisy columns are the mean and stddev of one X-state concurrence
    # estimate per run, each from its own Poisson draw of the four channels,
    # with the generator of row k seeded [seed, k]
    argv = ["sweep", "--theta-grid", "10,22.5", "--delay-grid", "30", "--noisy"]
    assert main(argv + ["--runs", "40", "--seed", "5", "--format", "json"]) == EXIT_OK
    row = json.loads(capsys.readouterr().out)["rows"][1]
    _, rho = cli._point_values(22.5, 30.0, DEFAULT_SIGMA_UM, "fitted")
    p, r, q = rho.matrix[1, 1].real, rho.matrix[2, 2].real, rho.matrix[1, 2].real
    rates = np.array([p, r, (p + r) / 2.0 + q, (p + r) / 2.0 - q]) * 1000.0
    rng = np.random.default_rng([5, 1])
    draws = []
    for _ in range(40):
        n_ud, n_du, n_plus, n_minus = rng.poisson(np.clip(rates, 0.0, None))
        q_hat = (float(n_plus) - float(n_minus)) / 2.0
        draws.append(float(min(1.0, 2.0 * abs(q_hat) / (n_ud + n_du))))
    assert row["c_mc_mean"] == float(np.mean(draws))
    assert row["c_mc_stddev"] == float(np.std(draws, ddof=1))


def test_sweep_computes_each_concurrence_once_per_point(monkeypatch, capsys):
    calls = []
    original = entanglement.wootters_concurrence

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(entanglement, "wootters_concurrence", counted)
    argv = ["sweep", "--theta-grid", "10,22.5,40", "--delay-grid", "0,60"]
    assert main(argv) == EXIT_OK
    assert len(calls) == 6


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


def test_sweep_unwritable_path_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "not" / "there" / "x.csv"
    code = main(["sweep", "--theta-grid", "22.5", "--delay-grid", "0", "--out", str(missing)])
    assert code == EXIT_USAGE
    assert "cannot write" in capsys.readouterr().err


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


def test_out_of_range_visibility_is_a_usage_error(capsys):
    assert main(["hom", "--visibility", "1.5"]) == EXIT_USAGE
    assert "visibility must lie in [0, 1]" in capsys.readouterr().err


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
    argv = ["hom", "--noisy", "--baseline", "5", "--seed", "0"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert "monte carlo: left out 3 of 100 runs whose fit failed" in captured.err
    assert "mc (100 runs): visibility" in captured.out


def test_hom_fails_when_too_many_resample_fits_fail(capsys):
    argv = ["hom", "--noisy", "--baseline", "3", "--seed", "0"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "monte carlo failed: estimator failed on 24 of 100 runs" in captured.err
    assert "mc (" not in captured.out


# --- verify ------------------------------------------------------------------------


def test_verify_passes_and_reports(capsys):
    assert main(["verify", "--trials", "20", "--seed", "1"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "verification: 14/14 checks passed" in out
    assert "[check ] occupation_weighted_vs_half_closed_form" in out
    assert "[report] overlap_exponent_relation" in out
    assert "FAIL" not in out


def test_verify_single_trial(capsys):
    assert main(["verify", "--trials", "1"]) == EXIT_OK


def test_verify_zero_trials_is_a_usage_error(capsys):
    assert main(["verify", "--trials", "0"]) == EXIT_USAGE
    assert "trials" in capsys.readouterr().err


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
