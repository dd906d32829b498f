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

from .errors import InvalidParameter, OutOfDomain


def _require(cond: bool, name: str, value, constraint: str) -> None:
    if not cond:
        raise InvalidParameter(name, value, constraint)


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
    """Compartment sizes (S, I, R); continuous node-counts, never rounded."""

    s: float
    i: float
    r: float

    def __post_init__(self):
        for name in ("s", "i", "r"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

    @property
    def n(self) -> float:
        return self.s + self.i + self.r


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
        _check_pseirs(self)


def _check_pseirs(params: PseirsParams) -> None:
    for name in ("beta", "mu", "epsilon", "alpha", "gamma"):
        _require(getattr(params, name) >= 0, name, getattr(params, name), f"{name} >= 0")
    _require(params.omega > 0, "omega", params.omega, "omega > 0")
    _require(params.tau > 0, "tau", params.tau, "tau > 0")
    _require(0.0 <= params.p <= 1.0, "p", params.p, "0 <= p <= 1")


def validate_pseirs(params: PseirsParams) -> PseirsParams:
    """Return ``params`` unchanged if every bound holds, else raise
    :class:`InvalidParameter` naming the offending field."""
    _check_pseirs(params)
    return params


def kappa(params: PseirsParams) -> float:
    """Delay span max(tau, omega); the history must cover [-kappa, 0]."""
    return max(params.tau, params.omega)


# largest step count of a run (``step_count``): the delayed solver's arrays
# and their copies take about 1.3 GB at 1e7 steps
MAX_STEPS = 10**7


def step_count(horizon: float, h: float) -> int:
    """Steps of a run; its last sample is at ``step_count(horizon, h) * h``.
    Raises InvalidParameter, naming ``step``, past MAX_STEPS steps."""
    # near 1e7, the -1e-12 below is under half an ulp of the quotient, so
    # the bound on the quotient bounds the count; an infinite quotient (an
    # infinite horizon, or step 5e-324) fails here instead of in ceil()
    _require(horizon / h <= MAX_STEPS, "step", h,
             f"at most {MAX_STEPS} steps over the horizon")
    return int(math.ceil(horizon / h - 1e-12))


@dataclass(frozen=True)
class CompartmentState:
    """One (S, E, I, R) sample. The total ``n`` is always the exact float
    sum of the four components."""

    s: float
    e: float
    i: float
    r: float

    def __post_init__(self):
        for name in ("s", "e", "i", "r"):
            object.__setattr__(self, name, _finite(name, getattr(self, name)))

    @property
    def n(self) -> float:
        return self.s + self.e + self.i + self.r

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.s, self.e, self.i, self.r)


class HistoryFunction(ABC):
    """Prescribed solution values on [-kappa, 0] needed to start the DDE."""

    @abstractmethod
    def raw_at(self, t: float) -> tuple[float, float, float, float]:
        """(S, E, I, R) at time t <= 0."""

    @abstractmethod
    def domain_start(self) -> float:
        """Leftmost time the history is defined for."""

    def rows_at(self, x: np.ndarray) -> np.ndarray:
        """``raw_at`` of every time in ``x``, as (len(x), 4) rows with the
        same bits; subclasses replace the loop with numpy."""
        return np.array([self.raw_at(t) for t in np.asarray(x).tolist()],
                        dtype=float).reshape(-1, 4)

    def state_at(self, t: float) -> CompartmentState:
        return CompartmentState(*self.raw_at(t))

    def covers(self, kap: float) -> bool:
        return self.domain_start() <= -kap


@dataclass(frozen=True)
class ConstantHistory(HistoryFunction):
    """History frozen at a single non-negative state for all t <= 0."""

    state: CompartmentState

    def __post_init__(self):
        for name in ("s", "e", "i", "r"):
            _require(getattr(self.state, name) >= 0, f"history.{name}",
                     getattr(self.state, name), "history states must be non-negative")

    def raw_at(self, t):
        st = self.state
        return (st.s, st.e, st.i, st.r)

    def rows_at(self, x):
        return np.tile(self.raw_at(0.0), (len(x), 1))

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

    def raw_at(self, t):
        times = self.times
        if t < times[0]:
            raise OutOfDomain(f"history evaluation at t={t} before {times[0]}")
        if t >= 0.0:
            row = self.states[-1]
            return (row[0], row[1], row[2], row[3])
        j = int(np.searchsorted(times, t, side="right")) - 1
        if j >= len(times) - 1:
            j = len(times) - 2
        t0, t1 = times[j], times[j + 1]
        w = (t - t0) / (t1 - t0)
        a, b = self.states[j], self.states[j + 1]
        return tuple(float(a[k] + w * (b[k] - a[k])) for k in range(4))

    def rows_at(self, x):
        # raw_at's operations on every time at once, so the same bits
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

    ``states`` and ``derivs`` hold one row per time; ``labels`` names the
    columns (("S", "I", "R") or ("S", "E", "I", "R")).  For delayed models
    the attached history extends evaluation to [-kappa, 0).  Arrays are
    frozen read-only after construction.
    """

    times: np.ndarray
    states: np.ndarray
    derivs: np.ndarray
    step: float
    labels: tuple[str, ...]
    history: HistoryFunction | None = None
    kappa: float = 0.0
    init_override: bool = False

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        states = np.asarray(self.states, dtype=float)
        derivs = np.asarray(self.derivs, dtype=float)
        _require(times.ndim == 1 and len(times) >= 2, "times", times.shape,
                 "at least two samples")
        _require(times[0] == 0.0, "times", float(times[0]), "grid starts at t = 0")
        gaps = np.diff(times)
        _require(bool(np.all(np.abs(gaps - self.step) <= 1e-9 * self.step)),
                 "times", None, "uniform spacing equal to the configured step")
        k = len(self.labels)
        _require(states.shape == (len(times), k), "states", states.shape,
                 f"shape ({len(times)}, {k})")
        _require(derivs.shape == states.shape, "derivs", derivs.shape,
                 "same shape as states")
        for arr in (times, states, derivs):
            arr.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        object.__setattr__(self, "derivs", derivs)
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def horizon(self) -> float:
        return float(self.times[-1])

    def column(self, label: str) -> np.ndarray:
        return self.states[:, self.labels.index(label)]

    def totals(self) -> np.ndarray:
        """Population size N at every sample."""
        return self.states.sum(axis=1)

    def fractions(self) -> np.ndarray:
        """States normalized by N row-wise (proportions on the simplex)."""
        return self.states / self.totals()[:, None]
