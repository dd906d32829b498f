"""Reproduction-number formulas, a numerical stability probe for the
infected class, and trajectory-based equilibrium classification.

Two threshold formulas ship side by side and reports always carry both:

    r0_nominal    = gamma * exp(-beta*omega) / (epsilon + beta + alpha)
    r0_linearized = gamma * exp(-mu*omega) / (mu + epsilon + alpha)

The nominal form uses the birth rate in both the attenuation factor and
the waiting-time denominator; the linearized form follows from the
infected equation at the infection-free state (S/N -> 1): the infected
count grows iff gamma*exp(-mu*omega) > mu + epsilon + alpha.  The two
generally disagree and neither is silently "corrected" here.  (When the
population itself grows at rate beta - mu, the nominal form is exactly
the growth threshold of the infected *fraction*.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PseirsParams, Trajectory, _require, validate_pseirs
from .errors import TrajectoryTooShort

# classification bands for the trailing-window equilibrium test
DISEASE_FREE_MAX_FRACTION = 1e-6
ENDEMIC_MIN_FRACTION = 1e-4
SETTLED_VARIATION = 1e-3


def r0_nominal(params: PseirsParams) -> float:
    denom = params.epsilon + params.beta + params.alpha
    _require(denom > 0, "epsilon+beta+alpha", denom, "epsilon + beta + alpha > 0")
    return params.gamma * math.exp(-params.beta * params.omega) / denom


def r0_linearized(params: PseirsParams) -> float:
    denom = params.mu + params.epsilon + params.alpha
    _require(denom > 0, "mu+epsilon+alpha", denom, "mu + epsilon + alpha > 0")
    return params.gamma * math.exp(-params.mu * params.omega) / denom


class StabilityClass(Enum):
    GROWING = "growing"
    DECAYING = "decaying"
    MARGINAL = "marginal"


def stability_probe(params: PseirsParams) -> StabilityClass:
    """Numerical oracle for the linearized threshold.

    Integrates the scalar linear delay equation

        dI/dt = gamma*exp(-mu*omega) * I(t-omega) - (mu+epsilon+alpha) * I(t)

    from the constant history I = 1 over 20*max(omega, 1/b), with step
    min(omega, 1/b)/20 where b = mu+epsilon+alpha, and classifies by the
    sign of the exponential rate fitted over the final half of the run.
    Rates smaller than 1e-3*b in magnitude count as marginal.
    """
    validate_pseirs(params)
    a = params.gamma * math.exp(-params.mu * params.omega)
    b = params.mu + params.epsilon + params.alpha
    _require(b > 0, "mu+epsilon+alpha", b, "mu + epsilon + alpha > 0")
    om = params.omega
    horizon = 20.0 * max(om, 1.0 / b)
    h = min(om, 1.0 / b) / 20.0

    ys = [1.0]
    ds = []

    def past(x):
        if x < 0.0:
            return 1.0
        j = int(x / h)
        jm = len(ys) - 2
        if j > jm:
            j = jm
        th = (x - j * h) / h
        if th == 0.0:
            return ys[j]
        t2 = th * th
        t3 = t2 * th
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h01 = 3.0 * t2 - 2.0 * t3
        h10 = (t3 - 2.0 * t2 + th) * h
        h11 = (t3 - t2) * h
        return h00 * ys[j] + h01 * ys[j + 1] + h10 * ds[j] + h11 * ds[j + 1]

    n_steps = int(math.ceil(horizon / h - 1e-12))
    y = 1.0
    hh = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        t = k * h
        d1 = a * past(t - om) - b * y
        ds.append(d1)
        lag_mid = past(t + hh - om)
        d2 = a * lag_mid - b * (y + hh * d1)
        d3 = a * lag_mid - b * (y + hh * d2)
        d4 = a * past(t + h - om) - b * (y + h * d3)
        y += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        ys.append(y)
        if y > 1e250:
            return StabilityClass.GROWING

    times = np.arange(len(ys), dtype=float) * h
    window = times >= 0.5 * times[-1]
    yw = np.asarray(ys)[window]
    if np.any(yw <= 0.0):
        return StabilityClass.DECAYING
    rate = float(np.polyfit(times[window], np.log(yw), 1)[0])
    if abs(rate) < 1e-3 * b:
        return StabilityClass.MARGINAL
    return StabilityClass.GROWING if rate > 0 else StabilityClass.DECAYING


class EquilibriumKind(Enum):
    DISEASE_FREE = "disease_free"
    ENDEMIC = "endemic"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class EquilibriumClass:
    kind: EquilibriumKind
    point: tuple[float, ...] | None = None

    def to_dict(self) -> dict:
        return {"kind": self.kind.value,
                "point": list(self.point) if self.point is not None else None}


def classify_equilibrium(traj: Trajectory,
                         tail_fraction: float) -> EquilibriumClass:
    """Classify the trailing window of a run, in proportion space.

    Disease-free when the infected fraction never exceeds 1e-6 over the
    window; endemic (with the mean point reported) when it stays above
    1e-4 and every proportion has settled to a peak-to-peak variation of
    at most 1e-3; undetermined otherwise.
    """
    _require(0.0 < tail_fraction <= 0.5, "tail_fraction", tail_fraction,
             "0 < tail_fraction <= 0.5")
    if traj.horizon <= traj.kappa:
        raise TrajectoryTooShort(
            f"horizon {traj.horizon} must exceed kappa {traj.kappa}")
    t_start = traj.horizon * (1.0 - tail_fraction)
    window = traj.times >= t_start - 1e-12
    fr = traj.fractions()[window]
    infected = fr[:, traj.labels.index("I")]
    if float(infected.max()) <= DISEASE_FREE_MAX_FRACTION:
        return EquilibriumClass(EquilibriumKind.DISEASE_FREE)
    settled = bool(np.all(fr.max(axis=0) - fr.min(axis=0) <= SETTLED_VARIATION))
    if float(infected.min()) > ENDEMIC_MIN_FRACTION and settled:
        point = tuple(float(v) for v in fr.mean(axis=0))
        return EquilibriumClass(EquilibriumKind.ENDEMIC, point)
    return EquilibriumClass(EquilibriumKind.UNDETERMINED)
