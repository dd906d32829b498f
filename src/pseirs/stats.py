"""Per-compartment summary statistics, phase-plane series extraction and
the CSV formatting of tables: ``csv_row_blocks`` formats a whole table
(a phase plane, an SIR trajectory) after the solve, split over forked
children when it is large, and ``trajectory_stream`` formats a pSEIRS
trajectory in one forked child while the delayed solver runs.

Means are arithmetic means over the discrete samples in the window, not
time integrals; extrema are exact over the same samples.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from . import _fork
from .core import Trajectory, _require
from .errors import EmptyWindow, Overflow, WorkerDied


# rows per formatted block: bounds the temporary floats and strings
CSV_BLOCK_ROWS = 1024
# smallest table, in values, whose text forked children format.  Forking
# a 47 MB process and reading the text back cost about as much as
# formatting 8,000 values; two ways on a 2-vCPU VM, the split broke even
# near 16,000 values and saved 24-27% at 32,768
CSV_SPLIT_MIN_VALUES = 32768
# bytes per read of a child's text: bounds what the parent holds of it
_PIPE_CHUNK = 1 << 16


def _row_format(columns: int) -> str:
    return ",".join(["%r"] * columns) + "\n"


def _blocks(table):
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        yield table[start:start + CSV_BLOCK_ROWS]


def _format_blocks(blocks, row):
    for block in blocks:
        yield (row * len(block)) % tuple(block.ravel().tolist())


def _format_child(fd, blocks, row):
    """A forked formatter's work: format the table ``blocks``, an iterable
    of 2-D blocks, before writing anything to the pipe ``fd``, so that it
    never waits on the parent while the parent works."""
    text = "".join(_format_blocks(blocks, row)).encode("ascii")
    with open(fd, "wb") as pipe:
        pipe.write(text)


def _child_text(child: _fork.Child, rows: int):
    """The text of a ``_format_child`` of ``rows`` lines, in table order,
    in chunks of at most ``_PIPE_CHUNK`` bytes; reaps it, and raises
    ``WorkerDied`` unless it exited 0 after all its lines."""
    lines = 0
    while chunk := os.read(child.fd, _PIPE_CHUNK):
        lines += chunk.count(b"\n")
        yield chunk.decode("ascii")
    code = child.wait()
    if code != 0 or lines != rows:
        raise WorkerDied(f"a CSV formatting process exited with code "
                         f"{code} after {lines} of its {rows} rows")


def csv_row_blocks(table):
    """The CSV lines of a 2-D table, in blocks of CSV_BLOCK_ROWS rows; each
    value is ``repr(float(v))``, its shortest round-trip text.

    A table of CSV_SPLIT_MIN_VALUES values or more is formatted on up to
    one process per usable CPU, in contiguous ranges of whole blocks: this
    process formats the first range while forked children format the
    others, and their text is read back through pipes in bounded chunks,
    in table order, with the same bytes.  Formatting stays in this process
    where ``fork_width`` is 1.  A child that exits non-zero or sends fewer
    lines than its range raises ``WorkerDied``.
    """
    table = np.asarray(table, dtype=float)
    row = _row_format(table.shape[1])
    blocks = -(-len(table) // CSV_BLOCK_ROWS)
    parts = _fork.fork_width(blocks) if table.size >= CSV_SPLIT_MIN_VALUES else 1
    if parts == 1:
        yield from _format_blocks(_blocks(table), row)
        return
    edges = [CSV_BLOCK_ROWS * (blocks * k // parts) for k in range(parts)]
    edges.append(len(table))
    children = []  # (child, rows), in table order
    try:
        for start, stop in zip(edges[1:-1], edges[2:]):
            child = _fork.Child(_format_child, _blocks(table[start:stop]), row)
            children.append((child, stop - start))
        yield from _format_blocks(_blocks(table[:edges[1]]), row)
        for child, rows in children:
            yield from _child_text(child, rows)
    finally:
        for child, _ in children:
            child.close()


def trajectory_table(times, states):
    """The columns of ``trajectory.csv``: t, the states and, for four
    compartments, ``N = ((S+E)+I)+R``."""
    columns = [times, *states.T]
    if states.shape[1] == 4:
        columns.append(columns[1] + columns[2] + columns[3] + columns[4])
    return np.column_stack(columns)


def _streamed_blocks(fd, step: float):
    """``trajectory_table`` blocks of the float64 (S, E, I, R) rows read
    from the pipe ``fd`` until it closes, row k at t = k*step, as the
    solver's ``np.arange(n) * step``."""
    k = 0
    with open(fd, "rb") as pipe:
        # a buffered read returns less than asked only at the end
        while data := pipe.read(CSV_BLOCK_ROWS * 4 * 8):
            block = np.frombuffer(data).reshape(-1, 4)
            times = np.arange(k, k + len(block), dtype=float) * step
            yield trajectory_table(times, block)
            k += len(block)


def trajectory_stream(step: float, rows: int):
    """A ``TrajectoryStream`` for a pSEIRS run of ``rows`` rows, or None
    where ``csv_row_blocks`` is to format its table after the solve: below
    CSV_SPLIT_MIN_VALUES values, where a fork costs more than it saves,
    and without a second process to run it (``fork_width``: one CPU, a
    sweep worker, no ``os.fork``)."""
    if rows * 6 < CSV_SPLIT_MIN_VALUES or _fork.fork_width(2) == 1:
        return None
    return TrajectoryStream(step, rows)


class TrajectoryStream:
    """The ``trajectory.csv`` lines of a pSEIRS run, the six columns
    ``t,S,E,I,R,N``, formatted by one forked child while the solver runs.

    The solver calls ``send`` with its (S, E, I, R) rows, in order, as it
    finishes them; they reach the child in batches of CSV_BLOCK_ROWS rows
    or more, and the pipe is closed once all ``rows`` rows are sent.  The
    child writes its text only then, so it never waits on this process
    while the solve and the analyses run, and ``text`` reads it back.
    ``send`` waits only while the rows pipe is full.
    """

    def __init__(self, step: float, rows: int):
        r, self._w = _fork.pipe()
        try:
            self._child = _fork.Child(_format_child, _streamed_blocks(r, step),
                                      _row_format(6))
        except BaseException:
            _fork.close_end(self._w)
            raise
        finally:
            os.close(r)
        self._rows = open(self._w, "wb", buffering=CSV_BLOCK_ROWS * 4 * 8,
                          closefd=False)
        self._left = self.rows = rows

    def send(self, states: np.ndarray) -> None:
        """Pass on the next finished (S, E, I, R) rows, a C-contiguous
        array; the ``rows_out`` of ``simulate_pseirs``."""
        try:
            self._rows.write(states)
        except BrokenPipeError:
            raise self._died() from None
        self._left -= len(states)
        if self._left <= 0:
            self._end_rows()

    def _died(self) -> WorkerDied:
        return WorkerDied("a CSV formatting process exited before it read "
                          f"all {self.rows} rows")

    def _end_rows(self) -> None:
        if self._rows.closed:
            return
        try:
            self._rows.close()  # a flush: the pipe is closed below
        except BrokenPipeError:
            raise self._died() from None
        finally:
            _fork.close_end(self._w)

    def text(self):
        """The child's text in bounded chunks, as ``csv_row_blocks``
        yields it; raises ``WorkerDied`` unless the child exited 0 after
        one line per row."""
        self._end_rows()  # rows not sent make the line count fall short
        return _child_text(self._child, self.rows)

    def close(self) -> None:
        with contextlib.suppress(WorkerDied):
            self._end_rows()
        self._child.close()


@dataclass(frozen=True)
class StatsTable:
    window: tuple[float, float]
    rows: dict  # label -> (min, max, mean)

    def to_dict(self) -> dict:
        return {"window": [self.window[0], self.window[1]],
                "compartments": {lab: {"min": lo, "max": hi, "mean": mean}
                                 for lab, (lo, hi, mean) in self.rows.items()}}


@dataclass(frozen=True)
class PhasePlaneSeries:
    """Trajectory projected onto 2 or 3 compartment axes, order-preserving.
    Lower-case labels mark proportion axes."""

    labels: tuple[str, ...]
    points: np.ndarray

    def to_csv_text(self) -> str:
        return ",".join(self.labels) + "\n" + "".join(csv_row_blocks(self.points))


def _window_mask(traj: Trajectory, window: tuple[float, float]) -> np.ndarray:
    t0, t1 = float(window[0]), float(window[1])
    _require(t1 >= t0, "window", window, "window end >= window start")
    mask = (traj.times >= t0) & (traj.times <= t1)
    if not bool(mask.any()):
        raise EmptyWindow(f"no samples in [{t0}, {t1}]")
    return mask


def compartment_stats(traj: Trajectory,
                      window: tuple[float, float]) -> StatsTable:
    """Min, max and mean of each compartment over the window's samples.
    Raises Overflow when a mean leaves float64's range: the sum of finite
    samples can."""
    mask = _window_mask(traj, window)
    rows = {}
    for idx, lab in enumerate(traj.labels):
        col = traj.states[mask, idx]
        with np.errstate(over="ignore"):
            mean = float(col.mean())
        if not math.isfinite(mean):
            raise Overflow(f"the mean of compartment {lab} over the window "
                           f"[{window[0]}, {window[1]}] exceeded float64's "
                           "range")
        rows[lab] = (float(col.min()), float(col.max()), mean)
    return StatsTable(window=(float(window[0]), float(window[1])), rows=rows)


def phase_plane(traj: Trajectory, axes, window=None,
                proportions: bool = False) -> PhasePlaneSeries:
    axes = tuple(axes)
    _require(2 <= len(axes) <= 3, "axes", axes, "2 or 3 axes")
    _require(len(set(axes)) == len(axes), "axes", axes, "distinct axes")
    for a in axes:
        _require(a in traj.labels, "axes", a,
                 f"axis must be one of {traj.labels}")
    if window is None:
        window = (float(traj.times[0]), traj.horizon)
    mask = _window_mask(traj, window)
    values = traj.fractions(mask) if proportions else traj.states[mask]
    points = values[:, [traj.labels.index(a) for a in axes]]
    labels = tuple(a.lower() for a in axes) if proportions else axes
    return PhasePlaneSeries(labels=labels, points=points)
