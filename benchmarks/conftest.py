"""Shared fixtures for the evaluation harness.

The nine-application, three-variant simulation sweep is the expensive
part, so it runs once per session and feeds Figures 3-6.
"""

import pytest

from repro.runtime.platform import DEFAULT_PLATFORM
from repro.suite import run_sweep


@pytest.fixture(scope="session")
def evaluation_runs():
    """All nine benchmarks, three variants each, outputs verified."""
    return run_sweep([DEFAULT_PLATFORM], verify=True)[DEFAULT_PLATFORM].runs
