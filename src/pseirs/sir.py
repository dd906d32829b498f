"""Classical SIR model: right-hand side, fixed-step RK4 integrator,
reproduction number and the two closed-form limit predictors.
``simulate_sir`` returns the whole trajectory at once: an SIR
``trajectory.csv`` is formatted after the solve, as a phase plane is.
An SIR trajectory holds states only: no delayed lookup reads it, so it
stores no derivative rows.

The dynamics use unnormalized mass action,

    dS/dt = -beta*I*S
    dI/dt =  beta*I*S - alpha*I
    dR/dt =  alpha*I

so S + I + R is conserved along every trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (SirParams, SirState, Trajectory, _require,
                   negativity_floor, step_count, undershoot)
from .errors import NoPeak, NotEndemic

SIR_LABELS = ("S", "I", "R")


class SirDerivative(NamedTuple):
    ds: float
    di: float
    dr: float


@dataclass(frozen=True)
class SirPrediction:
    """Long-run compartment limits. The endemic formula's components are
    reported verbatim and do not in general sum to N."""

    s_inf: float
    i_inf: float
    r_inf: float


def sir_derivatives(state: SirState, params: SirParams) -> SirDerivative:
    flow = params.beta * state.i * state.s
    rec = params.alpha * state.i
    return SirDerivative(-flow, flow - rec, rec)


def sir_r0(params: SirParams) -> float:
    """Basic reproduction number beta/alpha."""
    return params.beta / params.alpha


def sir_endemic_prediction(params: SirParams, n: float) -> SirPrediction:
    """Endemic limit (N/R0, (N/beta)(R0-1), (alpha*N/beta)(R0-1)).

    Raises NotEndemic when R0 <= 1. Note the three components are the
    stated formula, not a conserved (S, I, R) split of N.
    """
    r0 = sir_r0(params)
    if r0 <= 1.0:
        raise NotEndemic(f"R0 = {r0} <= 1; no endemic limit")
    return SirPrediction(n / r0,
                         (n / params.beta) * (r0 - 1.0),
                         (params.alpha * n / params.beta) * (r0 - 1.0))


def sir_disease_free_prediction(n: float) -> SirPrediction:
    return SirPrediction(n, 0.0, 0.0)


def sir_peak_oracle(params: SirParams, init: SirState) -> float:
    """Peak infected count from the SIR first integral,

        I_max = N - rho + rho*ln(rho/S0),   rho = alpha/beta.

    Independent of the integrator; used to cross-check simulate_sir.
    Raises NoPeak when beta*S0/alpha <= 1 (I is monotone decreasing).
    """
    _require(params.beta > 0, "beta", params.beta, "beta > 0 for a peak")
    rho = params.alpha / params.beta
    if init.s <= rho:
        raise NoPeak(f"beta*S0/alpha = {init.s / rho} <= 1; peak is I(0)")
    n = init.s + init.i + init.r
    return n - rho + rho * math.log(rho / init.s)


def simulate_sir(params: SirParams, init: SirState, horizon: float,
                 step: float) -> Trajectory:
    """Fixed-step explicit RK4 trajectory of the SIR system.

    Aborts with ``undershoot``'s StepTooLarge below ``init``'s
    ``negativity_floor``; conservation then holds at rounding level.
    """
    _require(step > 0, "step", step, "step > 0")
    _require(horizon >= step, "horizon", horizon, "horizon >= step")
    beta, alpha = params.beta, params.alpha
    floor = negativity_floor((init.s, init.i, init.r))

    n_steps = step_count(horizon, step)
    h = step
    hh = 0.5 * h
    h6 = h / 6.0
    s, i, r = init.s, init.i, init.r
    rows = [s, i, r]
    # the four RK4 stages written out: per stage the infection flow f, the
    # recovery c and dI = f - c; dS = -f is negated where it is used
    # (hh * -f1), since -(a + b) and -a + -b differ in the sign of a zero
    for k in range(1, n_steps + 1):
        f1 = beta * i * s
        c1 = alpha * i
        g1 = f1 - c1
        s2 = s + hh * -f1
        i2 = i + hh * g1
        f2 = beta * i2 * s2
        c2 = alpha * i2
        g2 = f2 - c2
        s2 = s + hh * -f2
        i2 = i + hh * g2
        f3 = beta * i2 * s2
        c3 = alpha * i2
        g3 = f3 - c3
        s2 = s + h * -f3
        i2 = i + h * g3
        f4 = beta * i2 * s2
        c4 = alpha * i2
        g4 = f4 - c4
        s += h6 * (-f1 + 2.0 * -f2 + 2.0 * -f3 + -f4)
        i += h6 * (g1 + 2.0 * g2 + 2.0 * g3 + g4)
        r += h6 * (c1 + 2.0 * c2 + 2.0 * c3 + c4)
        if s < floor or i < floor or r < floor:
            raise undershoot(k * h, floor, SIR_LABELS, (s, i, r))
        rows += (s, i, r)

    times = np.arange(n_steps + 1, dtype=float) * h
    states = np.fromiter(rows, float, len(rows)).reshape(-1, 3)
    return Trajectory(times=times, states=states, step=h, labels=SIR_LABELS)
