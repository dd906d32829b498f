"""Classical SIR model: right-hand side, fixed-step RK4 integrator,
reproduction number and the two closed-form limit predictors.
``sir_derivative_rows`` evaluates the right-hand side at a whole array of
states in one numpy pass, with the bits of ``sir_derivatives`` row by row.

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

from .core import SirParams, SirState, Trajectory, _require, step_count
from .errors import NoPeak, NotEndemic, StepTooLarge

SIR_LABELS = ("S", "I", "R")
# steps between calls of simulate_sir's rows_out: the check costs nothing
# per step
BLOCK_STEPS = 1024


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


def sir_derivative_rows(states: np.ndarray, params: SirParams) -> np.ndarray:
    """(dS, dI, dR) for each (S, I, R) row of ``states``: an (n, 3) array
    bit-equal to ``sir_derivatives`` applied row by row (same operations,
    same order, ``(beta*i)*s``)."""
    s, i = states[:, 0], states[:, 1]
    # numpy stays as quiet as the scalar float arithmetic it replaces
    with np.errstate(all="ignore"):
        flow = params.beta * i * s
        rec = params.alpha * i
        return np.column_stack((-flow, flow - rec, rec))


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
                 step: float, *, rows_out=None) -> Trajectory:
    """Fixed-step explicit RK4 trajectory of the SIR system.

    Aborts with StepTooLarge if any compartment undershoots below
    -1e-9 * N; conservation is then guaranteed at rounding level.
    ``rows_out``, if given, is called with the state rows as they are
    finished, in order: row 0, then the rows of each BLOCK_STEPS steps.
    """
    _require(step > 0, "step", step, "step > 0")
    _require(horizon >= step, "horizon", horizon, "horizon >= step")
    beta, alpha = params.beta, params.alpha
    n0 = init.s + init.i + init.r
    floor = -1e-9 * n0 if n0 > 0 else -1e-9

    def rhs(s, i):
        flow = beta * i * s
        rec = alpha * i
        return (-flow, flow - rec, rec)

    n_steps = step_count(horizon, step)
    h = step
    s, i, r = init.s, init.i, init.r
    states = [(s, i, r)]
    if rows_out is not None:
        rows_out(np.array(states))
    for k0 in range(0, n_steps, BLOCK_STEPS):
        for _ in range(min(BLOCK_STEPS, n_steps - k0)):
            d1 = rhs(s, i)
            d2 = rhs(s + 0.5 * h * d1[0], i + 0.5 * h * d1[1])
            d3 = rhs(s + 0.5 * h * d2[0], i + 0.5 * h * d2[1])
            d4 = rhs(s + h * d3[0], i + h * d3[1])
            s += (h / 6.0) * (d1[0] + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
            i += (h / 6.0) * (d1[1] + 2.0 * d2[1] + 2.0 * d3[1] + d4[1])
            r += (h / 6.0) * (d1[2] + 2.0 * d2[2] + 2.0 * d3[2] + d4[2])
            if s < floor or i < floor or r < floor:
                raise StepTooLarge(
                    f"compartment below {floor} at t={len(states) * h}; reduce the step")
            states.append((s, i, r))
        if rows_out is not None:
            rows_out(np.array(states[k0 + 1:]))

    states = np.array(states)
    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states,
                      derivs=sir_derivative_rows(states, params), step=h,
                      labels=SIR_LABELS)
