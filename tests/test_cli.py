"""Command-line interface: output formats, grids, exit codes, determinism.

Everything drives `twoboson.cli.main` in-process so coverage and debugging
stay simple; subprocess tests exercise the installed script, the exit of a
process whose reader closes stdout early, and which modules a fresh process
loads.
"""

import argparse
import csv
import dataclasses
import hashlib
import inspect
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from twoboson import __version__, cli, entanglement, fq_oracle, optics, verification
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


def test_a_concurrence_line_that_rounds_to_zero_prints_unsigned(capsys):
    # a signed zero or a tiny negative input prints as the sweep's CSV
    # prints it, with no sign; a value that rounds away from zero keeps it
    argv = ["concurrence", "--theta-deg", "-0.0", "--delay-um", "-1e-9"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert "-0.000000" not in out
    assert out.startswith("theta_deg            = 0.000000\ndelay_um             = 0.000000\n")
    assert main(["concurrence", "--theta-deg", "-12.5", "--delay-um", "-75"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("theta_deg            = -12.500000\ndelay_um             = -75.000000\n")


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
    # sigma = 1/(2 delta) is 50 um exactly, so the tables are the same bytes
    assert main(["sweep", "--delta", "0.01", "--format", "json"]) == EXIT_OK
    by_delta = capsys.readouterr().out
    assert main(["sweep", "--sigma-um", "50", "--format", "json"]) == EXIT_OK
    assert by_delta == capsys.readouterr().out


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
        # a width whose square is not a positive finite float: sigma = 1/(2 delta)
        # overflows to inf or underflows to 0, or its square does
        (
            ["sweep", "--delta", "1e-320", "--format", "json"],
            "argument --delta: sigma must be positive and its square a positive finite "
            "float, got '1e-320'",
        ),
        (
            ["concurrence", "--theta-deg", "22.5", "--delta", "1e308"],
            "argument --delta: sigma must be positive and its square a positive finite "
            "float, got '1e308'",
        ),
        (
            ["concurrence", "--theta-deg", "22.5", "--sigma-um", "1e-200"],
            "argument --sigma-um: sigma must be positive and its square a positive finite "
            "float, got '1e-200'",
        ),
        (
            ["concurrence", "--theta-deg", "22.5", "--delta", "1e200"],
            "argument --delta: sigma must be positive and its square a positive finite "
            "float, got '1e200'",
        ),
        (
            ["sweep", "--sigma-um", "1e200", "--format", "json", "--out", "t.json"],
            "argument --sigma-um: sigma must be positive and its square a positive finite "
            "float, got '1e200'",
        ),
        (
            ["sweep", "--delta", "1e-200", "--theta-grid", "10", "--delay-grid", "0",
             "--out", "t.csv"],
            "argument --delta: sigma must be positive and its square a positive finite "
            "float, got '1e-200'",
        ),
        (["hom", "--fwhm-um", "0"], "positive"),
        (["hom", "--fwhm-um", "nan"], "finite"),
        (["hom", "--baseline", "-1"], "positive"),
        (["sweep", "--noisy", "--shots", "0"], "positive"),
        (["sweep", "--noisy", "--shots", "-5"], "positive"),
        (["sweep", "--noisy", "--shots", "inf"], "finite"),
        (["sweep", "--noisy", "--runs", "1"], "--runs >= 2"),
        (["hom", "--noisy", "--runs", "1"], "--runs >= 2"),
        (["hom", "--runs", "-3", "--format", "json"], "--runs >= 2 for an error bar, got -3"),
        (
            ["sweep", "--runs", "0", "--theta-grid", "10", "--delay-grid", "0", "--format", "json"],
            "--runs >= 2 for an error bar, got 0",
        ),
        (["hom", "--delay-grid", "0,1,2"], "at least 5 distinct delays"),
        (["hom", "--delay-grid", "0,0,0,0,300"], "at least 5 distinct delays"),
        (["hom", "--visibility", "1.5"], "argument --visibility: expected a number in [0, 1]"),
        # refused as usage before the dip's exponent overflows or divides by zero
        (
            ["hom", "--visibility", "1.5", "--center-um", "1e200"],
            "argument --visibility: expected a number in [0, 1], got '1.5'",
        ),
        (
            ["hom", "--visibility", "inf", "--fwhm-um", "1e-300"],
            "argument --visibility: expected a finite number, got 'inf'",
        ),
        (["hom", "--visibility", "-0.1"], "argument --visibility: expected a number in [0, 1]"),
        # the fit lines would follow the JSON document on stdout
        (
            ["hom", "--format", "json"],
            "error: hom --format json needs --out FILE: the fit lines go to stdout",
        ),
        (
            ["hom", "--noisy", "--format", "json", "--out", "-"],
            "error: hom --format json needs --out FILE: the fit lines go to stdout",
        ),
        (["verify", "--trials", "0"], "error: trials must be >= 1"),
        (
            ["sweep", "--theta-grid", "22.5", "--delay-grid", "0", "--out", "not/there/x.csv"],
            "error: cannot write 'not/there/x.csv': "
            "[Errno 2] No such file or directory: 'not/there/x.csv'",
        ),
        # a Monte Carlo report is due, but only once the output is open
        (
            ["hom", "--noisy", "--baseline", "5", "--seed", "0", "--out", "not/there/t.csv"],
            "error: cannot write 'not/there/t.csv': "
            "[Errno 2] No such file or directory: 'not/there/t.csv'",
        ),
        (
            ["sweep", "--noisy", "--shots", "1e-300", "--theta-grid", "22.5", "--delay-grid", "0",
             "--out", "not/there/x.csv"],
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


@pytest.mark.parametrize(
    "command, grids",
    [
        (["sweep", "--format", "json"], ["--theta-grid", "0:45:19", "--delay-grid", "0,30,60,300"]),
        (["hom"], ["--delay-grid=-300:300:61"]),
    ],
    ids=["sweep", "hom"],
)
def test_a_default_grid_reads_the_bits_of_its_spec_given_on_the_command_line(
    command, grids, capsys
):
    # argparse parses a grid option's string default with the `_parse_grid`
    # call it makes on the same spec given as an argument
    assert main(command) == EXIT_OK
    default = capsys.readouterr()
    assert main(command + grids) == EXIT_OK
    assert capsys.readouterr() == default


#: a negative value that is not a plain "-123" or "-1.5", after a space and
#: after "="
_SPACED_NEGATIVE_VALUES = [
    (["hom", "--delay-grid", "-300:300:61"], ["hom", "--delay-grid=-300:300:61"]),
    (["sweep", "--delay-grid", "-30,0,30"], ["sweep", "--delay-grid=-30,0,30"]),
    (
        ["concurrence", "--theta-deg", "10", "--delay-um", "-1e3"],
        ["concurrence", "--theta-deg", "10", "--delay-um=-1e3"],
    ),
]


@pytest.mark.parametrize(
    "spaced, joined", _SPACED_NEGATIVE_VALUES, ids=["hom", "sweep", "concurrence"]
)
def test_a_negative_value_may_follow_its_option_after_a_space(spaced, joined, capsys):
    parser = cli.build_parser()
    assert parser.parse_args(spaced) == parser.parse_args(joined)
    # an unknown option after it is still refused, and -h still asks for help
    assert main(spaced + ["--bogus"]) == EXIT_USAGE
    assert capsys.readouterr().err.endswith("error: unrecognized arguments: --bogus\n")
    assert main(spaced + ["-h"]) == EXIT_OK
    assert capsys.readouterr().out.startswith(f"usage: twoboson {spaced[0]} [-h]")


def test_an_option_is_not_read_as_a_negative_value(capsys):
    assert main(["concurrence", "--theta-deg", "-h"]) == EXIT_USAGE
    assert "argument --theta-deg: expected one argument" in capsys.readouterr().err


_TINY, _HUGE = 5e-324, sys.float_info.max
_LINSPACE_EDGES = [
    # signed zeros, and a count of 1, which numpy spaces as 0 * delta + start
    (-0.0, 0.0, 3), (0.0, -0.0, 3), (-0.0, -0.0, 4), (-0.0, 5.0, 1), (-0.0, -5.0, 1),
    (-0.0, 5.0, 3), (5.0, -0.0, 4), (0.0, 0.0, 1), (-3.0, 3.0, 1), (7.25, 7.25, 1),
    # equal and reversed ends
    (3.5, 3.5, 7), (-1e-310, -1e-310, 5), (45.0, 0.0, 91), (300.0, -300.0, 61),
    # subnormal ends, where the step underflows to 0
    (_TINY, 2 * _TINY, 4), (0.0, _TINY, 7), (-_TINY, _TINY, 9), (0.0, 3 * _TINY, 1001),
    (-2.2250738585072014e-308, 2.2250738585072014e-308, 1001),
    # near-overflow ends, some whose span overflows to a non-finite grid
    (1e308, _HUGE, 3), (-_HUGE, _HUGE, 5), (-1e308, 1e308, 2), (_HUGE, -_HUGE, 1),
    (-_HUGE, -1e308, 4000),
    # the CLI's own grids, and counts up to a few thousand
    (0.0, 45.0, 19), (0.0, 45.0, 91), (0.0, 300.0, 61), (-300.0, 300.0, 61),
    (0.0, 1.0, 4096), (-123.456, 789.01, 2999), (0.1, 0.3, 3),
]


def _random_linspace_specs(count: int):
    rng = np.random.default_rng(34)
    for _ in range(count):
        ends = []
        for kind in rng.integers(0, 4, size=2):
            if kind == 0:
                ends.append(float(rng.uniform(-1000.0, 1000.0)))
            elif kind == 1:  # any magnitude, subnormal to near overflow
                ends.append(float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-323.0, 308.25)))
            elif kind == 2:
                ends.append(float(rng.choice([0.0, -0.0, 45.0, -300.0, 1e-300, _HUGE])))
            else:
                ends.append(float(rng.integers(-100, 100)))
        yield ends[0], ends[1], int(np.exp(rng.uniform(0.0, np.log(3000.0))))


def test_a_start_stop_count_grid_has_the_bits_of_numpy_linspace():
    # every spec prints its ends by repr, which reads back to the same float
    specs = _LINSPACE_EDGES + list(_random_linspace_specs(2000))
    for start, stop, n in specs:
        spec = f"{start!r}:{stop!r}:{n}"
        with np.errstate(all="ignore"):
            expected = np.linspace(start, stop, n)
        if np.all(np.isfinite(expected)):
            assert np.array(cli._parse_grid(spec)).tobytes() == expected.tobytes(), spec
        else:
            with pytest.raises(argparse.ArgumentTypeError, match="bad grid"):
                cli._parse_grid(spec)


@pytest.mark.parametrize("option", ("--theta-grid", "--delay-grid"))
def test_a_grid_too_large_to_allocate_is_a_usage_error(option, monkeypatch, capsys):
    # stand in for the failed allocation of a list of 100000000000 floats,
    # so that no test builds one
    def too_large(start, stop, n):
        raise MemoryError

    monkeypatch.setattr(cli, "_linspace", too_large)
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
    "count, reason",
    [
        # the list's byte count passes the index range, so nothing is
        # allocated for these
        (sys.maxsize // 8 + 1, "grid {spec!r} is too large to allocate"),
        (sys.maxsize, "grid {spec!r} is too large to allocate"),
        # past the index range no list can have the count as its length
        (sys.maxsize + 1, "bad grid {spec!r}; use 'a,b,c' or 'start:stop:count'"),
        (10**40, "bad grid {spec!r}; use 'a,b,c' or 'start:stop:count'"),
    ],
    ids=["past-bytes", "maxsize", "past-index", "1e40"],
)
def test_a_grid_count_past_the_byte_or_index_range_is_a_usage_error(count, reason, capsys):
    spec = f"0:45:{count}"
    assert main(["sweep", "--theta-grid", spec, "--delay-grid", "0"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --theta-grid: {reason.format(spec=spec)}\n")


@pytest.mark.parametrize(
    "argv",
    [
        ["concurrence", "--theta-deg", "22.5", "--delay-um", "1e200"],
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
    "sigma, far",
    [
        # the overlaps at a 30 um delay are 1 and 0 to every printed digit
        ("1e154", "0.413175911167,1,1,0.413175911167,0.260379152342,0.206587955583"),
        ("1e-160", "0.413175911167,0,0,0,0,0"),
    ],
)
def test_a_width_whose_square_is_a_positive_finite_float_is_accepted(sigma, far, capsys):
    argv = ["sweep", "--theta-grid", "10", "--delay-grid", "0,30", "--sigma-um", sigma]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines()[1:] == [
        "10,0,0.413175911167,1,1,0.413175911167,0.260379152342,0.206587955583",
        f"10,30,{far}",
    ]
    assert main(["concurrence", "--theta-deg", "10", "--sigma-um", sigma]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _report_value(captured.out, "sigma_um") == round(float(sigma), 6)
    assert _report_value(captured.out, "overlap_paper") == 1.0


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
    # each run is its own Poisson draw of the four channels, with the
    # generator of row k seeded [seed, k]; c_mc_mean is the X-state
    # concurrence of the counts pooled over the runs, and c_mc_stddev the
    # stddev of one estimate per run, where a run that observes no
    # coincidence reads 0, and the metadata and stderr count such runs
    argv = ["sweep", "--theta-grid", "10,22.5", "--delay-grid", "30", "--noisy"]
    argv += extra_argv + ["--runs", "40", "--seed", "5", "--format", "json"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    table = json.loads(captured.out)
    _, states = cli._point_values(
        (10.0, 22.5), (30.0,), DEFAULT_SIGMA_UM, "fitted", keep_states=True
    )
    empty = 0
    for k, rho in enumerate(states):
        p, r, q = rho.matrix[1, 1].real, rho.matrix[2, 2].real, rho.matrix[1, 2].real
        rates = np.array([p, r, (p + r) / 2.0 + q, (p + r) / 2.0 - q]) * shots
        rng = np.random.default_rng([5, k])
        draws, pooled = [], np.zeros(4, dtype=np.int64)
        for _ in range(40):
            n_ud, n_du, n_plus, n_minus = rng.poisson(np.clip(rates, 0.0, None))
            pooled += (n_ud, n_du, n_plus, n_minus)
            if n_ud + n_du == 0:
                empty += 1
                draws.append(0.0)
                continue
            q_hat = (float(n_plus) - float(n_minus)) / 2.0
            draws.append(float(min(1.0, 2.0 * abs(q_hat) / (n_ud + n_du))))
        n_ud, n_du, n_plus, n_minus = pooled.tolist()
        c_pooled = min(1.0, abs(n_plus - n_minus) / (n_ud + n_du)) if n_ud + n_du else 0.0
        assert table["rows"][k]["c_mc_mean"] == c_pooled
        assert table["rows"][k]["c_mc_stddev"] == float(np.std(draws, ddof=1))
    assert (empty > 0) == (shots == 3.0)
    assert table["metadata"]["runs_without_coincidence"] == empty
    report = f"monte carlo: {empty} of 80 runs observed no coincidence and read a concurrence of 0"
    assert captured.err == (report + "\n" if empty else "")


def test_noisy_sweep_row_matches_a_per_run_resampling_loop(capsys):
    # the default of 1000 shots per channel
    _assert_noisy_sweep_row_matches_a_per_run_loop([], 1000.0, capsys)


def test_noisy_sweep_row_at_three_shots_reads_zero_for_empty_runs(capsys):
    _assert_noisy_sweep_row_matches_a_per_run_loop(["--shots", "3"], 3.0, capsys)


def test_a_noisy_sweep_reads_the_concurrence_at_the_product_and_balanced_points(capsys):
    # the mean of per-run estimates is biased: |n_plus - n_minus| is never
    # negative, so a product state read about 0.025 and the balanced state
    # about 0.977 at 1000 shots; the counts pooled over 2000 runs are not
    argv = ["sweep", "--noisy", "--theta-grid", "0,22.5", "--delay-grid", "0"]
    assert main(argv + ["--runs", "2000", "--seed", "0", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert [row["c_closed_form"] for row in rows] == [0.0, 1.0]
    for row in rows:
        assert abs(row["c_mc_mean"] - row["c_closed_form"]) <= 0.01


def test_a_noisy_sweep_pools_counts_past_the_int64_range(capsys):
    # two runs of about 8e18 counts each: an int64 sum would wrap negative
    argv = ["sweep", "--noisy", "--shots", "8e18", "--theta-grid", "10", "--delay-grid", "0"]
    assert main(argv + ["--runs", "2", "--format", "json"]) == EXIT_OK
    (row,) = json.loads(capsys.readouterr().out)["rows"]
    assert row["c_mc_mean"] == pytest.approx(row["c_wootters_normalized"], rel=1e-6)


def test_a_noisy_sweep_that_observes_nothing_says_so_on_stderr(capsys):
    # every run of every row sees no coincidence: the table's Monte Carlo
    # columns read 0, and stderr and the metadata give the count
    argv = ["sweep", "--noisy", "--shots", "1e-300", "--theta-grid", "22.5", "--delay-grid", "0"]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.splitlines()[1].endswith(",1,0.5,0,0")  # c_closed_form 1, c_mc 0
    assert captured.err == (
        "monte carlo: 100 of 100 runs observed no coincidence and read a concurrence of 0\n"
    )
    assert main(argv + ["--format", "json"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["metadata"]["runs_without_coincidence"] == 100
    # an exact sweep draws no runs and carries no count
    exact = ["sweep", "--theta-grid", "22.5", "--delay-grid", "0", "--format", "json"]
    assert main(exact) == EXIT_OK
    captured = capsys.readouterr()
    assert "runs_without_coincidence" not in json.loads(captured.out)["metadata"]
    assert captured.err == ""


def test_sweep_and_concurrence_make_no_wootters_call(monkeypatch, capsys):
    # both read the concurrence from the X-state block; the eigen route is
    # the reference that verify and the tests use
    calls = []
    original = entanglement.wootters_concurrence

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(entanglement, "wootters_concurrence", counted)
    argv = ["sweep", "--theta-grid", "10,22.5,40", "--delay-grid", "0,60"]
    assert main(argv) == EXIT_OK
    assert main(argv + ["--noisy", "--runs", "3"]) == EXIT_OK
    assert main(["concurrence", "--theta-deg", "22.5", "--delay-um", "30"]) == EXIT_OK
    assert calls == []


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_sweep_matches_a_per_point_reference_of_single_state_calls(
    convention, capsys, composed_distribution
):
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
            # expand -> postselect -> trace, not the direct pass the sweep runs
            nd = composed_distribution(
                SingleParticleState(alphas, Spin.UP, phi_a),
                SingleParticleState(betas, Spin.DOWN, phi_b),
            )
            # the X-state read of its cells: 2 |rho[1,2]| / (rho[1,1] + rho[2,2])
            rho = nd.state.matrix
            c = [2.0 * abs(complex(rho[1, 2])) / float(rho[1, 1].real + rho[2, 2].real)]
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


def test_a_negative_zero_grid_prints_zero_in_csv_and_keeps_its_sign_in_json(capsys):
    argv = ["sweep", "--theta-grid=-0", "--delay-grid=-0"]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [SWEEP_HEADER, "0,0,0,1,1,0,0,0"]
    assert main(argv + ["--format", "json"]) == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    meta, (row,) = payload["metadata"], payload["rows"]
    for value in (*meta["theta_grid"], *meta["delay_grid"], row["theta_deg"], row["delay_um"]):
        assert value == 0.0 and math.copysign(1.0, value) == -1.0


def test_csv_cells_read_as_the_csv_module_writes_each_twelve_digit_number(tmp_path):
    columns = ("a", "b", "c")
    rows = [(-0.0, 5e-324, 1e300), (-12.5, 1 / 3, 2.0**53)]
    path = tmp_path / "table.csv"
    cli._write_table(str(path), "csv", columns, rows, {})
    reference = io.StringIO()
    writer = csv.writer(reference, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([format(x + 0.0, ".12g") for x in row])
    assert path.read_bytes() == reference.getvalue().encode()


#: grids whose axis-only cells a per-axis CSV could misplace or misformat
EDGE_SWEEP_GRIDS = (
    ["--theta-grid", "22.5", "--delay-grid", "70"],
    ["--theta-grid", "40,10,10,-5", "--delay-grid", "300,0,30,0,120"],
    ["--theta-grid=-0,0,45", "--delay-grid=-0,0,-0"],
    ["--theta-grid", "0:45:4", "--delay-grid", "-300:300:7"],
    ["--theta-grid", "5,33.3", "--delay-grid", "-20,0,20", "--delta", "0.004"],
)


@pytest.mark.parametrize("noisy", ([], ["--noisy", "--runs", "5", "--seed", "2"]), ids=("exact", "noisy"))
@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
@pytest.mark.parametrize("grids", EDGE_SWEEP_GRIDS, ids=" ".join)
def test_every_sweep_csv_cell_is_its_json_value_to_twelve_digits(grids, convention, noisy, capsys):
    # the CSV formats each axis-only cell once per axis, and must print what
    # a per-cell %.12g of x + 0.0 prints of every value the JSON keeps
    argv = ["sweep", *grids, "--overlap-convention", convention, *noisy]
    assert main(argv) == EXIT_OK
    header, *lines = capsys.readouterr().out.splitlines()
    assert main(argv + ["--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    columns = header.split(",")
    assert columns == list(cli.SWEEP_NOISY_COLUMNS if noisy else cli.SWEEP_COLUMNS)
    assert lines == [",".join("%.12g" % (row[name] + 0.0) for name in columns) for row in rows]


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
def test_the_sweep_closed_form_has_the_bits_of_the_one_point_definition(convention, capsys):
    # the sweep multiplies its two axis factors; the one-point definition,
    # which verify and the tests call, must give every bit of each product
    argv = ["sweep", "--theta-grid", "0:45:91", "--delay-grid", "0:300:61", "--format", "json"]
    assert main(argv + ["--overlap-convention", convention]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    assert len(rows) == 91 * 61
    for row in rows:
        alphas, betas = optics.spatial_amplitudes_from_theta(row["theta_deg"])
        ov = optics.gaussian_overlap(row["delay_um"], convention, DEFAULT_SIGMA_UM)
        closed = entanglement.concurrence_closed_form(alphas, betas, ov)
        assert row["c_closed_form"].hex() == closed.hex(), row


@pytest.mark.parametrize("convention", optics.OVERLAP_CONVENTIONS)
@pytest.mark.parametrize("theta, delay", (("22.5", "0"), ("10", "-30"), ("40", "70"), ("0", "300")))
def test_concurrence_prints_the_row_of_a_one_point_sweep(theta, delay, convention, capsys):
    options = ["--overlap-convention", convention]
    assert main(["concurrence", "--theta-deg", theta, "--delay-um=" + delay] + options) == EXIT_OK
    printed = dict(
        (part.strip() for part in line.split("=")) for line in capsys.readouterr().out.splitlines()
    )
    assert main(["sweep", "--theta-grid", theta, "--delay-grid=" + delay] + options) == EXIT_OK
    (row,) = _read_csv(capsys.readouterr().out)
    for name, column in (
        ("spatial_overlap", "spatial_overlap"),
        ("overlap_paper", "overlap_paper"),
        ("overlap_quadrature", "overlap_quadrature"),
        ("C_wootters", "c_wootters_normalized"),
        ("E_P", "e_p"),
    ):
        assert printed[name] == format(float(row[column]), ".6f")


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


def test_an_exact_hom_table_is_the_coincidence_law_of_its_dip(tmp_path):
    out = tmp_path / "counts.json"
    argv = ["hom", "--visibility", "0.8", "--fwhm-um", "90", "--center-um", "12"]
    argv += ["--baseline", "250", "--delay-grid=-200:220:43"]
    assert main(argv + ["--format", "json", "--out", str(out)]) == EXIT_OK
    rows = json.loads(out.read_text())["rows"]
    delays = [r["delay_um"] for r in rows]
    expected = optics.hom_coincidence(0.8, optics.gaussian_dip(delays, 90.0, 12.0), 250.0)
    assert [r["counts"] for r in rows] == expected.tolist()


def _spy(monkeypatch, name):
    """Record the arguments of every call of `optics.<name>` on the list
    returned."""
    calls, original = [], getattr(optics, name)

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(optics, name, spy)
    return calls


def test_hom_and_the_hom_check_reach_one_coincidence_law(monkeypatch, capsys):
    calls = _spy(monkeypatch, "hom_coincidence")
    assert main(["hom", "--visibility", "0.7"]) == EXIT_OK
    assert len(calls) == 1 and calls[0][0] == 0.7
    list(verification._suite_hom_vs_oracle(np.random.default_rng(0), 3))
    assert len(calls) == 4


def test_sweep_and_the_concurrence_checks_reach_one_prepared_pair(monkeypatch, capsys):
    calls = _spy(monkeypatch, "prepared_distributions")
    assert main(["sweep", "--theta-grid", "10,20", "--delay-grid", "0,30,60"]) == EXIT_OK
    assert main(["concurrence", "--theta-deg", "22.5"]) == EXIT_OK
    # one call per table, over its angles' mode amplitudes and its delays' overlaps
    assert [(len(modes), len(overlaps)) for modes, overlaps in calls] == [(2, 3), (1, 1)]
    for suite in (
        verification._suite_wootters_vs_closed_form,
        verification._suite_balanced_manifold,
        verification._suite_ep_relation,
    ):
        before = len(calls)
        list(suite(np.random.default_rng(0), 3))
        assert len(calls) == before + 3


@pytest.mark.parametrize(
    "convention, k",
    (("fitted", 1.0), ("paper", 1.0 / math.sqrt(2.0)), ("quadrature", math.sqrt(2.0))),
)
def test_the_hom_dip_and_the_sweep_read_one_width(convention, k, capsys):
    # the coincidence dip of the theta = 30 deg merge over a convention's
    # overlap, and 1 - C of the balanced sweep over it, fitted exactly on
    # hom's default grid: one FWHM, 2 sqrt(2 ln 2) sigma k, for both
    grid = "-300:300:61"
    delays = list(cli._parse_grid(grid))
    x = np.array([optics.gaussian_overlap(l, convention, DEFAULT_SIGMA_UM) ** 2 for l in delays])
    dip = optics.hom_coincidence(optics.hom_visibility(30.0), x, 1000.0)
    argv = ["sweep", "--theta-grid", "22.5", f"--delay-grid={grid}"]
    assert main(argv + ["--overlap-convention", convention, "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)["rows"]
    one_minus_c = [1.0 - row["c_wootters_normalized"] for row in rows]
    hom_fit, sweep_fit = optics.fit_gaussian_dip(delays, np.array([dip, one_minus_c])).outcomes
    fwhm = optics.GAUSSIAN_FWHM_FACTOR * DEFAULT_SIGMA_UM * k
    assert hom_fit.visibility == pytest.approx(0.6, rel=1e-6)
    assert sweep_fit.depth == pytest.approx(1.0, rel=1e-6)
    assert hom_fit.fwhm_um == pytest.approx(fwhm, rel=1e-6)
    assert sweep_fit.fwhm_um == pytest.approx(fwhm, rel=1e-6)


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
    # the printed fit resolves the dip (FWHM 144 um); 16 resamples do not,
    # the first of them, run 8, at the iteration cap
    argv = ["hom", "--noisy", "--baseline", "4", "--seed", "1"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "fit: fwhm_um     = 144.093862" in captured.out
    assert captured.err == (
        "monte carlo failed: 16 of 100 resample fits failed, more than 10%; first on "
        "run 8: no convergence after 200 iterations (best residual 84.445)\n"
    )
    assert "mc (" not in captured.out


def test_a_resample_fit_wider_than_the_scan_is_named_on_stderr(capsys):
    # the printed fit resolves the dip (FWHM 122 um); 14 resamples do not,
    # the first of them, run 5, under the scan rule
    argv = ["hom", "--noisy", "--baseline", "4", "--seed", "5"]
    assert main(argv) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert "fit: fwhm_um     = 122.061564" in captured.out
    assert captured.err == (
        "monte carlo failed: 14 of 100 resample fits failed, more than 10%; first on "
        "run 5: fitted FWHM 82458.2 um and baseline 339.176 resolve no dip over a "
        "600 um scan\n"
    )
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


def test_hom_refuses_a_fit_narrower_than_the_delay_spacing(capsys):
    # an exact 10 um dip on the default 10 um steps fits to a 0.53 um spike
    # with errors near 1e42: the command fails after the table
    assert main(["hom", "--fwhm-um", "10"]) == EXIT_NUMERICAL
    captured = capsys.readouterr()
    assert captured.err == (
        "fit failed: fitted FWHM 0.530157 um is narrower than the 10 um delay "
        "spacing and resolves no dip\n"
    )
    assert len(_read_csv(captured.out)) == 61
    assert _report_lines(captured.out) == []
    # a 15 um dip is resolved, and fitted exactly
    assert main(["hom", "--fwhm-um", "15"]) == EXIT_OK
    assert "fit: fwhm_um     = 15.000000 +/- 0.000000" in _report_lines(capsys.readouterr().out)


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
#: of the weighted Jacobian.  Each run's observed-weight pass is only a
#: seed and hands over at a relative step of `optics.FIT_SEED_TOL`; its
#: second pass reweights from the current model every round and stops at
#: the fixed point of that reweighting.  Each round runs on the whole
#: working arrays, and the result pass sorts the outcomes by masks over the
#: stacked fields; neither moves a bit of these fits.  Taken on Python
#: 3.11.7 with numpy 2.4.6; another numpy's LAPACK may move the last bits
HOM_SEED_1_FITS_SHA256 = "152dc3bdb45f8fd1d07c6e75c24cb6b628fbdbd54a560773e4457cf517d26061"


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
[check ] closed_form_vs_wootters_raw          max_dev=4.441e-16    tol=1e-09  PASS
[check ] balanced_manifold_concurrence        max_dev=6.661e-16    tol=1e-09  PASS
[check ] optical_law_splice                   max_dev=3.331e-16    tol=1e-12  PASS
[check ] quadrature_overlap_integral          max_dev=5.473e-16    tol=1e-09  PASS
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


# --- a reader that leaves early -----------------------------------------------------


class _ClosedPipe(io.TextIOBase):
    """A stdout whose reader has left: every write raises, as a pipe's does."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def writelines(self, lines):
        raise BrokenPipeError(32, "Broken pipe")


#: the report lines of a success whose Monte Carlo left runs out or read 0
_HOM_REPORT = "monte carlo: left out 2 of 100 runs whose fit failed\n"
_SWEEP_REPORT = (
    "monte carlo: 6941 of 58900 runs observed no coincidence and read a concurrence of 0\n"
)
_HOM_REPORTING = ["hom", "--noisy", "--baseline", "5", "--seed", "0"]
_SWEEP_REPORTING = [
    "sweep", "--noisy", "--shots", "3", "--seed", "7",
    "--theta-grid", "0:45:19", "--delay-grid", "0:300:31",
]


_LEAVES_EARLY = (
    (["sweep"], EXIT_OK, ""),
    (["hom", "--noisy"], EXIT_OK, ""),
    (["--help"], EXIT_OK, ""),
    # the table's first write raises before the failure is reported
    (["hom", "--baseline", "1e200"], EXIT_NUMERICAL, "fit failed: fit is not finite: residual\n"),
    (
        ["hom", "--noisy", "--baseline", "4", "--seed", "1"],
        EXIT_NUMERICAL,
        "monte carlo failed: 16 of 100 resample fits failed, more than 10%; first on "
        "run 8: no convergence after 200 iterations (best residual 84.445)\n",
    ),
    # the reports are printed before the first write raises
    (_HOM_REPORTING, EXIT_OK, _HOM_REPORT),
    (_SWEEP_REPORTING, EXIT_OK, _SWEEP_REPORT),
)


@pytest.mark.parametrize(
    "argv, code, err",
    _LEAVES_EARLY,
    ids=[f"argv{k}-{code}" for k, (_, code, _) in enumerate(_LEAVES_EARLY)],
)
def test_a_reader_that_leaves_early_keeps_the_exit_code_and_stderr(argv, code, err, capsys):
    # those of a reader that stays
    assert main(argv) == code
    assert capsys.readouterr().err == err
    with pytest.MonkeyPatch.context() as m:
        m.setattr(sys, "stdout", _ClosedPipe())
        assert main(argv) == code
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize("buffered", (True, False))
@pytest.mark.parametrize(
    "argv, code, err",
    (
        (["sweep", "--theta-grid", "0:45:91", "--delay-grid", "0:300:61"], EXIT_OK, b""),
        (
            ["hom", "--baseline", "1e200"],
            EXIT_NUMERICAL,
            b"fit failed: fit is not finite: residual\n",
        ),
        (_HOM_REPORTING, EXIT_OK, _HOM_REPORT.encode()),
    ),
)
def test_a_process_whose_reader_leaves_early_says_only_its_failure(buffered, argv, code, err):
    # the reader closes its end before the process writes a byte, so the
    # first write that reaches the pipe fails; buffered, what is still in
    # the buffer then meets the interpreter's flush at exit.  Stderr holds
    # only what a reader that stays sees there: a failure or a report
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "twoboson.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    got = proc.stderr.read()
    assert proc.wait(timeout=120) == code
    assert got == err


# --- module boundary ---------------------------------------------------------------

_REFERENCE_LAYER = ("twoboson.fq_oracle", "twoboson.nolabel_algebra", "twoboson.verification")

_RUN_EVERY_COMMAND = f"""
import contextlib, io, json, sys
from twoboson.cli import main

reference = {_REFERENCE_LAYER!r}
codes = {{}}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["concurrence", "--theta-deg", "22.5"],
        ["sweep"],
        ["sweep", "--noisy", "--runs", "5"],
        ["hom"],
        ["hom", "--noisy", "--runs", "5"],
    ):
        codes[" ".join(argv)] = main(argv)
    production = sorted(m for m in reference if m in sys.modules)
    main(["verify", "--trials", "1"])
    after_verify = sorted(m for m in reference if m in sys.modules)
print(json.dumps({{"codes": codes, "production": production, "verify": after_verify}}))
"""

_IMPORT_THE_PACKAGE = """
import json, sys
import twoboson
print(json.dumps(sorted(m for m in sys.modules if m.startswith(("twoboson.", "numpy")))))
"""


def _fresh_python(source: str):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(cli.__file__)))
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-c", source],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_verify_loads_the_reference_layer_and_the_package_root_loads_nothing():
    # the ket algebra, the oracle and the suites stay out of every production
    # command's process, and `verify` alone loads them
    run = _fresh_python(_RUN_EVERY_COMMAND)
    assert set(run["codes"].values()) == {EXIT_OK}, run["codes"]
    assert run["production"] == []
    assert run["verify"] == sorted(_REFERENCE_LAYER)
    # importing the package root loads no submodule and not numpy
    assert _fresh_python(_IMPORT_THE_PACKAGE) == []


_START_THE_FRONT_END = """
import contextlib, io, json, sys
import twoboson.cli as cli

cli.build_parser()
codes, errors = {}, {}
with contextlib.redirect_stdout(io.StringIO()):
    for argv in (
        ["--help"],
        ["--version"],
        ["sweep", "--help"],
        ["concurrence"],
        ["hom", "--visibility", "2"],
        ["sweep", "--shots", "-1"],
        ["verify", "--trials", "abc"],
        ["sweep", "--bogus"],
        ["hom", "--bogus"],
        ["sweep", "--theta-grid", "0:45:91", "--delay-grid", "0:300:61", "--bogus"],
        ["hom", "--delay-grid=-300:300:61", "--bogus"],
        ["hom", "--delay-grid", "-300:300:61", "--bogus"],
        ["sweep", "--delay-grid", "-30,0,30", "--bogus"],
        ["concurrence", "--theta-deg", "10", "--delay-um", "-1e3", "--bogus"],
    ):
        with contextlib.redirect_stderr(io.StringIO()) as err:
            codes[" ".join(argv)] = cli.main(argv)
        errors[" ".join(argv)] = err.getvalue().splitlines()[-1:]
loaded = sorted(m for m in sys.modules if m.startswith(("twoboson.", "numpy")))
print(json.dumps({"codes": codes, "errors": errors, "loaded": loaded}))
"""


def test_the_front_end_loads_no_physics_and_not_numpy():
    # importing the CLI, building its parser, help, version and a refusal of
    # each subcommand load only `cli` and `wavepacket`; an unknown option is
    # refused after argparse has parsed every grid, given or a default, and
    # a start:stop:count grid is spaced without numpy
    run = _fresh_python(_START_THE_FRONT_END)
    assert run["codes"] == {
        "--help": EXIT_OK,
        "--version": EXIT_OK,
        "sweep --help": EXIT_OK,
        "concurrence": EXIT_USAGE,
        "hom --visibility 2": EXIT_USAGE,
        "sweep --shots -1": EXIT_USAGE,
        "verify --trials abc": EXIT_USAGE,
        "sweep --bogus": EXIT_USAGE,
        "hom --bogus": EXIT_USAGE,
        "sweep --theta-grid 0:45:91 --delay-grid 0:300:61 --bogus": EXIT_USAGE,
        "hom --delay-grid=-300:300:61 --bogus": EXIT_USAGE,
        "hom --delay-grid -300:300:61 --bogus": EXIT_USAGE,
        "sweep --delay-grid -30,0,30 --bogus": EXIT_USAGE,
        "concurrence --theta-deg 10 --delay-um -1e3 --bogus": EXIT_USAGE,
    }
    # each --bogus is refused as an unknown option, after every value before
    # it parsed, negative values after a space included
    for argv, error in run["errors"].items():
        if argv.endswith("--bogus"):
            assert error == ["twoboson: error: unrecognized arguments: --bogus"], argv
    assert run["loaded"] == ["twoboson.cli", "twoboson.wavepacket"]


def test_the_parser_names_in_optics_are_the_wavepacket_objects():
    from twoboson import wavepacket

    for name in ("DEFAULT_SIGMA_UM", "OVERLAP_CONVENTIONS", "sigma_to_delta", "delta_to_sigma"):
        assert getattr(optics, name) is getattr(wavepacket, name), name


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
