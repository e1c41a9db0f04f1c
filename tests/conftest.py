"""Deterministic hypothesis profile so the suite is reproducible run to run,
and shared fixtures."""

import pytest
from hypothesis import HealthCheck, settings

from twoboson import verification

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
