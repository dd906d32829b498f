"""The block-formatted CSV writers and the numpy trajectory reader, checked
against the per-row formatters they replaced, which are kept here as the
reference: the bytes of every output file must not change, however many
processes share the formatting."""

import os
from itertools import zip_longest

import numpy as np
import pytest

from pseirs import _fork
from pseirs.core import Trajectory
from pseirs.scenario import read_trajectory_csv, write_trajectory_csv
from pseirs.stats import (CSV_BLOCK_ROWS, CSV_SPLIT_MIN_VALUES, PhasePlaneSeries,
                          csv_row_blocks, phase_plane)

AWKWARD = [-0.0, 5e-324, 1e300, 63.0, 0.1 + 0.2]
# block boundaries: a short table, exactly one block, one row over, several
ROWS = [2, CSV_BLOCK_ROWS, CSV_BLOCK_ROWS + 1, 2 * CSV_BLOCK_ROWS + 7]
# split edges, resolved for each table width by ``table_rows``: the
# smallest table that is split over processes, and one row fewer
SPLIT_EDGES = ["least", "least-1"]
CPUS = [1, 2, 3]
# columns of a table that splits within three blocks, so that with three
# CPUs its last part is one row
WIDE = 16
WIDE_ROWS = 2 * CSV_BLOCK_ROWS + 1


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def each_cpu_count(monkeypatch):
    """Patches the usable CPUs to each count of CPUS in turn."""
    for n in CPUS:
        monkeypatch.setattr(_fork, "usable_cpus", lambda n=n: n)
        yield n


def table_rows(rows, cols: int) -> int:
    least = -(-CSV_SPLIT_MIN_VALUES // cols)
    return {"least": least, "least-1": least - 1}.get(rows, rows)


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


@pytest.mark.parametrize("rows", ROWS + SPLIT_EDGES)
@pytest.mark.parametrize("labels", [("S", "I", "R"), ("S", "E", "I", "R")])
def test_trajectory_csv_matches_row_formatter(tmp_path, monkeypatch, rows, labels):
    # the table has t, the states and, for four compartments, N
    traj = awkward_trajectory(table_rows(rows, 1 + len(labels) + (len(labels) == 4)),
                              labels)
    for _ in each_cpu_count(monkeypatch):
        check_trajectory_round_trip(traj, tmp_path / "t.csv")


def test_solver_trajectory_csv_matches_row_formatter(tmp_path, monkeypatch, canonical_run):
    for _ in each_cpu_count(monkeypatch):
        check_trajectory_round_trip(canonical_run, tmp_path / "t.csv")


def check_phase_csv(series, monkeypatch):
    expected = reference_phase_csv(series)
    for _ in each_cpu_count(monkeypatch):
        assert_same_text(series.to_csv_text(), expected)


@pytest.mark.parametrize("rows", ROWS + SPLIT_EDGES)
@pytest.mark.parametrize("labels", [("S", "I"), ("s", "e", "i")])
def test_phase_csv_matches_row_formatter(monkeypatch, rows, labels):
    rows = table_rows(rows, len(labels))
    check_phase_csv(PhasePlaneSeries(labels=labels,
                                     points=awkward_table(rows, len(labels), seed=rows + 1)),
                    monkeypatch)


def test_solver_phase_csv_matches_row_formatter(monkeypatch, canonical_run):
    check_phase_csv(phase_plane(canonical_run, ("S", "E", "I"), proportions=True),
                    monkeypatch)


def test_short_last_part_matches_row_formatter(monkeypatch):
    # with three CPUs the parts are blocks 0, 1 and the one row after them
    check_phase_csv(PhasePlaneSeries(labels=tuple(f"c{k}" for k in range(WIDE)),
                                     points=awkward_table(WIDE_ROWS, WIDE, seed=WIDE)),
                    monkeypatch)


@pytest.mark.parametrize("rows, blocks", [
    (table_rows("least-1", WIDE), 2),
    (table_rows("least", WIDE), 2),
    (WIDE_ROWS, 3),
])
def test_forks_one_child_per_later_part(monkeypatch, rows, blocks):
    forks = []
    real_fork = os.fork

    def counting_fork():
        forks.append(None)
        return real_fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    table = awkward_table(rows, WIDE, seed=rows)
    splits = rows * WIDE >= CSV_SPLIT_MIN_VALUES
    for cpus in each_cpu_count(monkeypatch):
        forks.clear()
        "".join(csv_row_blocks(table))
        assert len(forks) == (min(cpus, blocks) - 1 if splits else 0)
