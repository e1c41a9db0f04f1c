"""Deterministic hypothesis profile so the suite is reproducible run to run,
and shared fixtures."""

import pytest
from hypothesis import HealthCheck, settings

from twoboson import optics, verification

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
