"""The three benchmark workloads and the checks on their outputs.

Each workload turns a seed into the argv one `twoboson` CLI call receives,
states how many units one pass processes, and checks the stdout of a pass
against references derived here from the physics, never from the package:

* sweep rows from the closed forms sin^2(4 theta) exp(-l^2/(2 sigma^2)) and
  2 s^2 c^2 ov^2 / (s^4 + c^4), with s, c = sin 2theta, cos 2theta and
  ov = exp(-l^2/(4 sigma^2)) (Yu & Eberly, QIC 7, 459, 2007);
* the fitted HOM visibility and FWHM within five quoted sigma of the truth;
* every `verify` check passing.

A check returns None for a correct output and a one-line reason otherwise.
"""

from __future__ import annotations

import csv
import io
import math
import re
from typing import Optional

import numpy as np

#: the CLI's default Gaussian width of the concurrence-vs-delay law (um)
SIGMA_UM = 59.45
#: tolerance of end-to-end pipeline comparisons; the CSV keeps 12
#: significant digits, which alone deviates by up to about 5e-13
ATOL_PIPELINE = 1e-9
#: a fitted HOM parameter must lie within this many quoted sigma of the truth
HOM_SIGMAS = 5.0
#: verify prints one line per suite: 13 checks and 2 reports
VERIFY_SUITES = 15

SWEEP_COLUMNS = (
    "theta_deg",
    "delay_um",
    "spatial_overlap",
    "overlap_paper",
    "overlap_quadrature",
    "c_closed_form",
    "c_wootters_normalized",
    "e_p",
)


def _linspace(spec: str) -> np.ndarray:
    start, stop, count = spec.split(":")
    return np.linspace(float(start), float(stop), int(count))


def sweep_references(theta_deg: np.ndarray, delay_um: np.ndarray) -> dict:
    """Every deterministic sweep column from its closed form."""
    t = np.radians(theta_deg)
    s, c = np.sin(2.0 * t), np.cos(2.0 * t)
    delta = 1.0 / (2.0 * SIGMA_UM)
    spatial = np.sin(4.0 * t) ** 2
    closed = spatial * np.exp(-(delay_um**2) / (2.0 * SIGMA_UM**2))
    ov = np.exp(-(delay_um**2) / (4.0 * SIGMA_UM**2))
    return {
        "spatial_overlap": spatial,
        "overlap_paper": np.exp(-2.0 * (delta * delay_um) ** 2),
        "overlap_quadrature": np.exp(-0.5 * (delta * delay_um) ** 2),
        "c_closed_form": closed,
        "c_wootters_normalized": 2.0 * s**2 * c**2 * ov**2 / (s**4 + c**4),
        "e_p": closed / 2.0,
    }


class Sweep:
    def __init__(self, name: str, full: tuple, smoke: tuple):
        self.name = name
        self._grids = {False: full, True: smoke}

    def argv(self, seed: int, smoke: bool) -> list[str]:
        theta, delay = self._grids[smoke]
        return ["sweep", "--theta-grid", theta, "--delay-grid", delay]

    def units(self, smoke: bool) -> int:
        """Grid points of one pass."""
        theta, delay = self._grids[smoke]
        return len(_linspace(theta)) * len(_linspace(delay))

    def check(self, out: str, seed: int, smoke: bool) -> Optional[str]:
        theta_spec, delay_spec = self._grids[smoke]
        thetas, delays = _linspace(theta_spec), _linspace(delay_spec)
        rows = list(csv.reader(io.StringIO(out)))
        if not rows or tuple(rows[0]) != SWEEP_COLUMNS:
            return f"unexpected header {rows[0] if rows else None}"
        if len(rows) - 1 != len(thetas) * len(delays):
            return f"{len(rows) - 1} rows, expected {len(thetas) * len(delays)}"
        try:
            data = dict(zip(SWEEP_COLUMNS, np.array(rows[1:], dtype=float).T))
        except ValueError as exc:
            return f"unparsable row: {exc}"
        grid_theta = np.repeat(thetas, len(delays))
        grid_delay = np.tile(delays, len(thetas))
        if not (
            np.allclose(data["theta_deg"], grid_theta, rtol=1e-11, atol=1e-12)
            and np.allclose(data["delay_um"], grid_delay, rtol=1e-11, atol=1e-12)
        ):
            return "rows do not follow the requested grid"
        for name, ref in sweep_references(grid_theta, grid_delay).items():
            worst = float(np.max(np.abs(data[name] - ref)))
            if not worst <= ATOL_PIPELINE:
                return f"{name} deviates by {worst:.3e} from its closed form"
        return None


_FIT_LINE = re.compile(r"^fit: (\w+)\s+= (\S+) \+/- (\S+)$")
_MC_LINE = re.compile(r"^mc \((\d+) runs\): (\w+)\s+= (\S+) \+/- (\S+)$")


class Hom:
    name = "hom_noisy"
    VISIBILITY = 0.91
    FWHM_UM = 137.0
    DELAYS = np.linspace(-300.0, 300.0, 61)  # the CLI's default scan

    def __init__(self, full_runs: int, smoke_runs: int):
        self._runs = {False: full_runs, True: smoke_runs}

    def argv(self, seed: int, smoke: bool) -> list[str]:
        return [
            "hom", "--visibility", f"{self.VISIBILITY:g}", "--fwhm-um", f"{self.FWHM_UM:g}",
            "--noisy", "--runs", str(self._runs[smoke]), "--seed", str(seed),
        ]

    def units(self, smoke: bool) -> int:
        """Monte Carlo resamples of one pass."""
        return self._runs[smoke]

    def check(self, out: str, seed: int, smoke: bool) -> Optional[str]:
        lines = out.splitlines()
        table = [line for line in lines if not line.startswith(("fit:", "mc ("))]
        if not table or table[0] != "delay_um,counts":
            return "missing count table"
        try:
            counts = np.array([row.split(",") for row in table[1:]], dtype=float)
        except ValueError as exc:
            return f"unparsable count row: {exc}"
        if counts.shape != (len(self.DELAYS), 2) or not np.allclose(
            counts[:, 0], self.DELAYS, rtol=1e-11, atol=1e-9
        ):
            return "count table does not follow the delay scan"
        if np.any(counts[:, 1] < 0.0) or np.any(counts[:, 1] != np.round(counts[:, 1])):
            return "counts are not nonnegative integers"
        fit = {}
        for line in lines:
            m = _FIT_LINE.match(line)
            if m:
                fit[m.group(1)] = (float(m.group(2)), float(m.group(3)))
        for name, truth in (("visibility", self.VISIBILITY), ("fwhm_um", self.FWHM_UM)):
            if name not in fit:
                return f"no fitted {name}"
            value, err = fit[name]
            if not (math.isfinite(value) and err > 0.0):
                return f"fitted {name} = {value} +/- {err} is not a finite estimate"
            if abs(value - truth) > HOM_SIGMAS * err:
                return f"fitted {name} = {value} +/- {err} misses the truth {truth}"
        mc = [_MC_LINE.match(line) for line in lines]
        mc = {m.group(2): (float(m.group(3)), float(m.group(4))) for m in mc if m}
        for name in ("visibility", "fwhm_um"):
            if name not in mc or not all(math.isfinite(v) for v in mc[name]):
                return f"no finite Monte Carlo {name}"
        return None


class Verify:
    name = "verify"

    def __init__(self, full_trials: int, smoke_trials: int):
        self._trials = {False: full_trials, True: smoke_trials}

    def argv(self, seed: int, smoke: bool) -> list[str]:
        return ["verify", "--trials", str(self._trials[smoke]), "--seed", str(seed)]

    def units(self, smoke: bool) -> int:
        """Suite trials of one pass: trials times the number of suites."""
        return self._trials[smoke] * VERIFY_SUITES

    def check(self, out: str, seed: int, smoke: bool) -> Optional[str]:
        lines = out.splitlines()
        checks = [line for line in lines if line.startswith("[check ]")]
        reports = [line for line in lines if line.startswith("[report]")]
        if len(checks) + len(reports) != VERIFY_SUITES:
            return f"{len(checks) + len(reports)} suites ran, expected {VERIFY_SUITES}"
        failing = [line.split()[2] for line in checks if not line.rstrip().endswith("PASS")]
        if failing:
            return f"failing checks: {', '.join(failing)}"
        if not lines or lines[-1] != f"verification: {len(checks)}/{len(checks)} checks passed":
            return "missing verification summary"
        return None


WORKLOADS = {
    w.name: w
    for w in (
        Sweep("sweep_exact", ("0:45:91", "0:300:61"), ("0:45:10", "0:300:7")),
        Hom(full_runs=100, smoke_runs=10),
        Verify(full_trials=100, smoke_trials=10),
    )
}
