import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

sys.path.insert(0, str(Path(__file__).parent))

settings.register_profile(
    "pkg",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("pkg")


@pytest.fixture(scope="session")
def suite25():
    """The 25-digit suite, run once and shared by every test that reads it."""
    from eulersum.verify import run_suite
    return run_suite(25)
