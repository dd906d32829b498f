import os

import pytest

from pseirs import simulate_pseirs
from pseirs.presets import baseline_history, baseline_pseirs


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps every process it forked: sweep workers, formatter
    and parser children alike, each a ``_fork.Child``."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def canonical_params():
    return baseline_pseirs()


@pytest.fixture(scope="session")
def canonical_history():
    return baseline_history()


@pytest.fixture(scope="session")
def canonical_run(canonical_params, canonical_history):
    """Baseline run shared by read-only tests (trajectories are immutable)."""
    return simulate_pseirs(canonical_params, canonical_history, 300.0)


@pytest.fixture(scope="session")
def endemic_run(canonical_history):
    """A contact rate high enough that the infected fraction persists."""
    params = baseline_pseirs(gamma=1.0)
    return simulate_pseirs(params, canonical_history, 400.0), params
