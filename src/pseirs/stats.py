"""Per-compartment summary statistics, phase-plane series extraction and
pairwise run comparison.

Means are arithmetic means over the discrete samples in the window, not
time integrals; extrema are exact over the same samples.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Trajectory, _require
from .errors import EmptyWindow, GridMismatch, ZeroPopulation


# rows per formatted block: bounds the temporary floats and strings
CSV_BLOCK_ROWS = 1024


def csv_row_blocks(table):
    """The CSV lines of a 2-D table, in blocks of CSV_BLOCK_ROWS rows; each
    value is ``repr(float(v))``, its shortest round-trip text."""
    table = np.asarray(table, dtype=float)
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    for start in range(0, len(table), CSV_BLOCK_ROWS):
        block = table[start:start + CSV_BLOCK_ROWS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


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


@dataclass(frozen=True)
class ComparisonSummary:
    compartment: str
    after: float
    max_abs_gap: float
    verdict: str  # "equal" | "a<=b" | "b<=a" | "mixed"
    times: np.ndarray
    differences: np.ndarray  # b - a on the shared grid

    def to_dict(self) -> dict:
        return {"compartment": self.compartment, "after": self.after,
                "max_abs_gap": self.max_abs_gap, "verdict": self.verdict}


def _window_mask(traj: Trajectory, window: tuple[float, float]) -> np.ndarray:
    t0, t1 = float(window[0]), float(window[1])
    _require(t1 >= t0, "window", window, "window end >= window start")
    mask = (traj.times >= t0) & (traj.times <= t1)
    if not bool(mask.any()):
        raise EmptyWindow(f"no samples in [{t0}, {t1}]")
    return mask


def compartment_stats(traj: Trajectory,
                      window: tuple[float, float]) -> StatsTable:
    mask = _window_mask(traj, window)
    rows = {}
    for idx, lab in enumerate(traj.labels):
        col = traj.states[mask, idx]
        rows[lab] = (float(col.min()), float(col.max()), float(col.mean()))
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
    cols = [traj.states[mask, traj.labels.index(a)] for a in axes]
    if proportions:
        n = traj.totals()[mask]
        if not (n > 0.0).all():
            t = float(traj.times[mask][np.argmin(n > 0.0)])
            raise ZeroPopulation(f"population N reached zero at t={t}; "
                                 "proportions are undefined")
        cols = [c / n for c in cols]  # the columns of Trajectory.fractions
    labels = tuple(a.lower() for a in axes) if proportions else axes
    return PhasePlaneSeries(labels=labels, points=np.column_stack(cols))


def compare_runs(a: Trajectory, b: Trajectory, compartment: str,
                 after: float = 0.0) -> ComparisonSummary:
    """Pointwise differences b - a of one compartment on identical grids,
    plus a dominance verdict over samples with t >= after."""
    if a.labels != b.labels or len(a.times) != len(b.times) \
            or not np.array_equal(a.times, b.times):
        raise GridMismatch("trajectories do not share a time grid")
    _require(compartment in a.labels, "compartment", compartment,
             f"one of {a.labels}")
    diffs = b.column(compartment) - a.column(compartment)
    mask = a.times >= after
    if not bool(mask.any()):
        raise EmptyWindow(f"no samples with t >= {after}")
    window = diffs[mask]
    max_gap = float(np.max(np.abs(window)))
    if max_gap == 0.0:
        verdict = "equal"
    elif bool(np.all(window >= 0.0)):
        verdict = "a<=b"
    elif bool(np.all(window <= 0.0)):
        verdict = "b<=a"
    else:
        verdict = "mixed"
    return ComparisonSummary(compartment=compartment, after=float(after),
                             max_abs_gap=max_gap, verdict=verdict,
                             times=a.times, differences=diffs)
