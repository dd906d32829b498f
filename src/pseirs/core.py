"""Shared domain types: model parameters, compartment states, delay
histories and the trajectory container consumed by every other module.

All types are immutable after construction; nothing here mutates shared
state, so instances are safe to hand across threads.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter, OutOfDomain, Overflow, StepTooLarge, ZeroPopulation


def _require(cond: bool, name: str, value, constraint: str) -> None:
    if not cond:
        raise InvalidParameter(name, value, constraint)


def negativity_floor(row) -> float:
    """-1e-9*N of a run's first row (N summed left to right), or 0 if N < 0:
    the least value any compartment of the run may take; none is clamped.
    Raises Overflow if N is past float64's range (the floor would be -inf)."""
    n = row[0]
    for value in row[1:]:
        n += value
    if not math.isfinite(n):
        raise Overflow(f"population N={n!r} of the first row is not finite; "
                       "it exceeded float64's range")
    return min(-1e-9 * n, 0.0)


def undershoot(t: float, floor: float, labels, state) -> StepTooLarge:
    """StepTooLarge naming the first compartment of ``state`` below floor."""
    name, value = next((n, v) for n, v in zip(labels, state) if v < floor)
    return StepTooLarge(f"compartment {name}={value!r} fell below {floor} "
                        f"at t={t}; reduce the step")


def _finite(name: str, value: float) -> float:
    value = float(value)
    _require(math.isfinite(value), name, value, "must be finite")
    return value


@dataclass(frozen=True)
class SirParams:
    """Rates of the classical SIR model: infection rate per (node*node*time)
    and recovery rate per time."""

    beta: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "beta", _finite("beta", self.beta))
        object.__setattr__(self, "alpha", _finite("alpha", self.alpha))
        _require(self.beta >= 0, "beta", self.beta, "beta >= 0")
        _require(self.alpha > 0, "alpha", self.alpha, "alpha > 0")


@dataclass(frozen=True)
class SirState:
    """Non-negative compartment sizes (S, I, R); continuous node-counts,
    never rounded."""

    s: float
    i: float
    r: float

    def __post_init__(self):
        for name in ("s", "i", "r"):
            value = _finite(f"init.{name}", getattr(self, name))
            _require(value >= 0, f"init.{name}", value,
                     "compartment sizes must be non-negative")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class PseirsParams:
    """The nine constants of the delayed probabilistic SEIRS system.

    beta     birth rate per time
    mu       natural death rate per time
    epsilon  infection death rate per time
    alpha    recovery rate per time
    gamma    effective contact rate per time
    omega    latency delay (exposure -> infectious), time units
    tau      temporary-immunity period (recovered -> susceptible), time units
    p        probability that a node leaving I gains temporary immunity
    """

    beta: float
    mu: float
    epsilon: float
    alpha: float
    gamma: float
    omega: float
    tau: float
    p: float

    def __post_init__(self):
        for name in ("beta", "mu", "epsilon", "alpha", "gamma", "omega", "tau", "p"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))
        for name in ("beta", "mu", "epsilon", "alpha", "gamma"):
            _require(getattr(self, name) >= 0, name, getattr(self, name), f"{name} >= 0")
        _require(self.omega > 0, "omega", self.omega, "omega > 0")
        _require(self.tau > 0, "tau", self.tau, "tau > 0")
        _require(0.0 <= self.p <= 1.0, "p", self.p, "0 <= p <= 1")


def kappa(params: PseirsParams) -> float:
    """Delay span max(tau, omega); the history must cover [-kappa, 0]."""
    return max(params.tau, params.omega)


# largest step count of a run (``step_count``): the delayed solver's arrays
# and their copies take about 1.3 GB at 1e7 steps
MAX_STEPS = 10**7


def step_count(horizon: float, h: float) -> int:
    """Steps of a run; its last sample is at ``step_count(horizon, h) * h``.
    The one check of a run's grid: raises InvalidParameter naming
    ``horizon`` below one step, or naming ``step`` past MAX_STEPS steps."""
    _require(horizon >= h, "horizon", horizon, "horizon >= step")
    # near 1e7, the -1e-12 below is under half an ulp of the quotient, so
    # the bound on the quotient bounds the count; an infinite quotient (an
    # infinite horizon, or step 5e-324) fails here instead of in ceil()
    _require(horizon / h <= MAX_STEPS, "step", h,
             f"at most {MAX_STEPS} steps over the horizon")
    return int(math.ceil(horizon / h - 1e-12))


class HistoryFunction(ABC):
    """Prescribed solution values on [-kappa, 0] needed to start the DDE.

    A history implements ``rows_at`` and ``domain_start``; every read
    goes through ``rows_at``."""

    @abstractmethod
    def rows_at(self, x: np.ndarray) -> np.ndarray:
        """(S, E, I, R) at every time t <= 0 of ``x``, as (len(x), 4) rows;
        raises OutOfDomain naming the first time before ``domain_start``."""

    @abstractmethod
    def domain_start(self) -> float:
        """Leftmost time the history is defined for."""

    def covers(self, kap: float) -> bool:
        return self.domain_start() <= -kap


@dataclass(frozen=True)
class ConstantHistory(HistoryFunction):
    """History frozen at one finite, non-negative (S, E, I, R) state for all t <= 0."""

    s: float
    e: float
    i: float
    r: float

    def __post_init__(self):
        for name in ("s", "e", "i", "r"):
            value = _finite(f"history.{name}", getattr(self, name))
            _require(value >= 0, f"history.{name}", value,
                     "history states must be non-negative")
            object.__setattr__(self, name, value)

    def rows_at(self, x):
        return np.tile((self.s, self.e, self.i, self.r), (len(x), 1))

    def domain_start(self):
        return -math.inf


@dataclass(frozen=True)
class SampledHistory(HistoryFunction):
    """History given as samples at times <= 0, linearly interpolated.

    ``times`` must be strictly increasing and end exactly at 0;
    ``states`` is one non-negative (S, E, I, R) row per time.
    """

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        _require(times.ndim == 1 and len(times) >= 2, "history.times", times.shape,
                 "at least two samples")
        _require(bool(np.all(np.diff(times) > 0)), "history.times", times,
                 "strictly increasing")
        _require(times[-1] == 0.0, "history.times", times[-1], "last sample at t = 0")
        _require(states.shape == (len(times), 4), "history.states", states.shape,
                 "one (S, E, I, R) row per time")
        _require(bool(np.all(np.isfinite(states))), "history.states", None, "finite")
        _require(bool(np.all(states >= 0)), "history.states", float(states.min()),
                 "history states must be non-negative")
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    def rows_at(self, x):
        # a + w*(b - a) in the cell [times[j], times[j+1]] holding t, the
        # last cell for t at 0 and the last row for t >= 0
        x = np.asarray(x, dtype=float)
        times = self.times
        early = x < times[0]
        if early.any():
            raise OutOfDomain(f"history evaluation at t={float(x[early][0])} "
                              f"before {times[0]}")
        j = np.minimum(np.searchsorted(times, x, side="right") - 1,
                       len(times) - 2)
        w = ((x - times[j]) / (times[j + 1] - times[j]))[:, None]
        a, b = self.states[j], self.states[j + 1]
        rows = a + w * (b - a)
        rows[x >= 0.0] = self.states[-1]
        return rows

    def domain_start(self):
        return float(self.times[0])


@dataclass(frozen=True)
class Trajectory:
    """Solution samples on a uniform time grid starting at t = 0.

    ``states`` holds one row per time; ``labels`` names the columns
    (("S", "I", "R") or ("S", "E", "I", "R")).  The keyword fields belong
    to delayed runs, and only the delayed solver and reconstruction fill
    them: ``derivs``, one derivative row per time for the Hermite lookups,
    and the attached history, which extends evaluation to [-kappa, 0).
    Arrays are frozen read-only after construction.
    """

    times: np.ndarray
    states: np.ndarray
    step: float
    labels: tuple[str, ...]
    derivs: np.ndarray | None = None
    history: HistoryFunction | None = None
    kappa: float = 0.0
    init_override: bool = False

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        _require(times.ndim == 1 and len(times) >= 2, "times", times.shape,
                 "at least two samples")
        _require(times[0] == 0.0, "times", float(times[0]), "grid starts at t = 0")
        with np.errstate(over="ignore"):  # a gap of 1e308 fails, quietly
            gaps = np.abs(np.diff(times) - self.step)
        _require(bool(np.all(gaps <= 1e-9 * self.step)),
                 "times", None, "uniform spacing equal to the configured step")
        k = len(self.labels)
        _require(states.shape == (len(times), k), "states", states.shape,
                 f"shape ({len(times)}, {k})")
        if self.derivs is not None:
            derivs = np.asarray(self.derivs, dtype=float)
            _require(derivs.shape == states.shape, "derivs", derivs.shape,
                     "same shape as states")
            derivs.flags.writeable = False
            object.__setattr__(self, "derivs", derivs)
        for arr in (times, states):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def column(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]

    def totals(self) -> np.ndarray:
        """Population size N at every sample, inf past float64's range."""
        with np.errstate(over="ignore"):
            return self.states.sum(axis=1)

    def fractions(self, rows=slice(None)) -> np.ndarray:
        """The states at ``rows`` (an index or mask of ``times``; all of
        them by default), each divided by its population N: proportions on
        the simplex.  Raises ZeroPopulation or Overflow, naming t, at the
        first of those rows whose N is not positive or not finite."""
        n = self.totals()[rows]
        good = (n > 0.0) & (n < math.inf)
        if not good.all():
            k = int(np.argmin(good))
            t = float(self.times[rows][k])
            if n[k] > 0.0:
                raise Overflow(f"population N={float(n[k])!r} is not finite at "
                               f"t={t}; it exceeded float64's range")
            raise ZeroPopulation(f"population N reached zero at t={t}; "
                                 "proportions are undefined")
        return self.states[rows] / n[:, None]
