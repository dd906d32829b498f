"""Reproduction-number formulas, the stability class of the infected
count, and trajectory-based equilibrium classification.

Two threshold formulas ship side by side and reports always carry both:

    r0_nominal    = gamma * exp(-beta*omega) / (epsilon + beta + alpha)
    r0_linearized = gamma * exp(-mu*omega) / (mu + epsilon + alpha)

The nominal form uses the birth rate in both the attenuation factor and
the waiting-time denominator; the linearized form follows from the
infected equation at the infection-free state (S/N -> 1): the infected
count grows iff gamma*exp(-mu*omega) > mu + epsilon + alpha.  The two
generally disagree and neither is silently "corrected" here.  (When the
population itself grows at rate beta - mu, the nominal form is exactly
the growth threshold of the infected *fraction*.)  The stability class of
the infected count comes from the rightmost root of that linearized
equation's characteristic function, without integrating (Hayes, J. London
Math. Soc. 25, 1950).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import PseirsParams, Trajectory, _require
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
    """Growth class of I at the infection-free state, without integrating.

    There dI/dt = a*I(t-omega) - b*I, a = gamma*exp(-mu*omega) >= 0 and
    b = mu+epsilon+alpha.  Its rightmost characteristic root lambda*, the
    zero of the increasing g(lam) = lam + b - a*exp(-lam*omega), is real
    and exceeds the real part of every other root (Hayes 1950).  With the
    marginal band |lambda*| < d = 1e-3*b: growing iff g(d) <= 0, decaying
    iff g(-d) >= 0 (always when a = 0, as lambda* = -b), else marginal;
    compared in log form so that exp(d*omega) cannot overflow.
    """
    a = params.gamma * math.exp(-params.mu * params.omega)
    b = params.mu + params.epsilon + params.alpha
    _require(b > 0, "mu+epsilon+alpha", b, "mu + epsilon + alpha > 0")
    if a == 0.0:
        return StabilityClass.DECAYING
    d = 1e-3 * b
    log_a, d_omega = math.log(a), d * params.omega
    if math.log(b + d) <= log_a - d_omega:
        return StabilityClass.GROWING
    if math.log(b - d) >= log_a + d_omega:
        return StabilityClass.DECAYING
    return StabilityClass.MARGINAL


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
    at most 1e-3; undetermined otherwise.  The proportions are
    ``Trajectory.fractions`` of the window's rows, so a window holding a
    sample of zero population raises ZeroPopulation, naming its t.
    """
    _require(0.0 < tail_fraction <= 0.5, "tail_fraction", tail_fraction,
             "0 < tail_fraction <= 0.5")
    if traj.horizon <= traj.kappa:
        raise TrajectoryTooShort(
            f"horizon {traj.horizon} must exceed kappa {traj.kappa}")
    t_start = traj.horizon * (1.0 - tail_fraction)
    window = traj.times >= t_start - 1e-12
    fr = traj.fractions(window)
    infected = fr[:, traj.labels.index("I")]
    if float(infected.max()) <= DISEASE_FREE_MAX_FRACTION:
        return EquilibriumClass(EquilibriumKind.DISEASE_FREE)
    settled = bool(np.all(fr.max(axis=0) - fr.min(axis=0) <= SETTLED_VARIATION))
    if float(infected.min()) > ENDEMIC_MIN_FRACTION and settled:
        point = tuple(float(v) for v in fr.mean(axis=0))
        return EquilibriumClass(EquilibriumKind.ENDEMIC, point)
    return EquilibriumClass(EquilibriumKind.UNDETERMINED)
