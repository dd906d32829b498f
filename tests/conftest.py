import contextlib
import io
import os

import pytest

from pseirs import simulate_pseirs
from pseirs.cli import main

from shipped import CONFIG_DIR, baseline_history, baseline_pseirs

PSEIRS_CONFIGS = ("scale_free_5000", "seirs_baseline", "seirs_long_latency",
                  "seirs_low_immunity")


def children_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return False
    return True


def tree_bytes(root):
    return {path.relative_to(root).as_posix(): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def analyze(config, trajectory, out):
    """(exit code, stderr, output tree) of one ``pseirs analyze``."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), \
            contextlib.redirect_stdout(io.StringIO()):
        code = main(["analyze", "--config", str(config),
                     "--trajectory", str(trajectory), "--out", str(out)])
    return code, err.getvalue(), tree_bytes(out) if out.exists() else None


@pytest.fixture(autouse=True)
def no_child_left():
    """Every test reaps every process it forked: sweep workers and
    formatter children alike, each a ``_fork.Child``."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def stored(tmp_path_factory):
    """name -> (config path, stored trajectory path) for the four shipped
    pSEIRS configs and ``sir_low_infectivity``; read-only, no test writes
    into these files."""
    root = tmp_path_factory.mktemp("stored")
    runs = {}
    for name in (*PSEIRS_CONFIGS, "sir_low_infectivity"):
        config = CONFIG_DIR / f"{name}.json"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["simulate", "--config", str(config),
                         "--out", str(root / name)]) == 0
        runs[name] = (config, root / name / "trajectory.csv")
    return runs


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
