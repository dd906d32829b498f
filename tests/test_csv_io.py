"""The block-formatted CSV writers and the numpy trajectory reader, checked
against the per-row formatters they replaced, which are kept here as the
reference: the bytes of every output file must not change."""

from itertools import zip_longest

import numpy as np
import pytest

from pseirs.core import Trajectory
from pseirs.scenario import read_trajectory_csv, write_trajectory_csv
from pseirs.stats import CSV_BLOCK_ROWS, PhasePlaneSeries, phase_plane

AWKWARD = [-0.0, 5e-324, 1e300, 63.0, 0.1 + 0.2]
# block boundaries: a short table, exactly one block, one row over, several
ROWS = [2, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7]


def reference_trajectory_csv(traj) -> str:
    with_n = len(traj.labels) == 4
    header = "t," + ",".join(traj.labels) + (",N" if with_n else "")
    lines = [header]
    for k in range(len(traj.times)):
        row = traj.states[k]
        vals = [repr(float(traj.times[k]))]
        vals.extend(repr(float(x)) for x in row)
        if with_n:
            vals.append(repr(float(row[0] + row[1] + row[2] + row[3])))
        lines.append(",".join(vals))
    return "\n".join(lines) + "\n"


def reference_phase_csv(series) -> str:
    lines = [",".join(series.labels)]
    for row in series.points:
        lines.append(",".join(repr(float(v)) for v in row))
    return "\n".join(lines) + "\n"


def awkward_table(rows: int, cols: int, seed: int) -> np.ndarray:
    """Values of every magnitude and sign, some integral, with the awkward
    values at both ends of the table."""
    rng = np.random.default_rng(seed)
    table = rng.standard_normal((rows, cols)) * 10.0 ** rng.integers(-300, 300, (rows, cols))
    table[::3] = rng.integers(-100, 100, (len(table[::3]), cols))
    flat = table.reshape(-1)
    flat[:len(AWKWARD)] = AWKWARD[:len(flat)]
    flat[-len(AWKWARD):] = AWKWARD[-len(flat):]
    return table


def awkward_trajectory(rows: int, labels) -> Trajectory:
    states = awkward_table(rows, len(labels), seed=rows)
    return Trajectory(times=np.arange(rows) * 0.25, states=states,
                      derivs=np.zeros_like(states), step=0.25, labels=labels)


def assert_same_text(actual: str, expected: str) -> None:
    """Fails with the first differing line: pytest's own diff of two
    megabyte strings takes minutes."""
    if actual != expected:
        lines = enumerate(zip_longest(actual.split("\n"), expected.split("\n")))
        k, (a, e) = next((k, pair) for k, pair in lines if pair[0] != pair[1])
        pytest.fail(f"line {k}: {a!r} != {e!r}")


def same_bits(a, b) -> bool:
    return np.array_equal(a, b) and a.shape == b.shape and a.tobytes() == b.tobytes()


def check_trajectory_round_trip(traj, path):
    write_trajectory_csv(traj, path)
    assert_same_text(path.read_bytes().decode(), reference_trajectory_csv(traj))
    times, states, labels = read_trajectory_csv(path)
    assert labels == traj.labels
    assert same_bits(times, traj.times)
    assert same_bits(states, traj.states)


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("labels", [("S", "I", "R"), ("S", "E", "I", "R")])
def test_trajectory_csv_matches_row_formatter(tmp_path, rows, labels):
    check_trajectory_round_trip(awkward_trajectory(rows, labels), tmp_path / "t.csv")


def test_solver_trajectory_csv_matches_row_formatter(tmp_path, canonical_run):
    check_trajectory_round_trip(canonical_run, tmp_path / "t.csv")


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("labels", [("S", "I"), ("s", "e", "i")])
def test_phase_csv_matches_row_formatter(rows, labels):
    series = PhasePlaneSeries(labels=labels,
                              points=awkward_table(rows, len(labels), seed=rows + 1))
    assert_same_text(series.to_csv_text(), reference_phase_csv(series))


def test_solver_phase_csv_matches_row_formatter(canonical_run):
    series = phase_plane(canonical_run, ("S", "E", "I"), proportions=True)
    assert_same_text(series.to_csv_text(), reference_phase_csv(series))
