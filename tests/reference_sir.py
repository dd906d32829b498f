"""``simulate_sir`` as it was before its RK4 stages were written inline,
kept unchanged as the reference: one closure call per stage, one tuple per
row.  The inline loop must give the same bits and the same aborts."""

import numpy as np

from pseirs.core import (SirParams, SirState, Trajectory, _require,
                         negativity_floor, step_count, undershoot)
from pseirs.sir import SIR_LABELS


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

    def rhs(s, i):
        flow = beta * i * s
        rec = alpha * i
        return (-flow, flow - rec, rec)

    n_steps = step_count(horizon, step)
    h = step
    s, i, r = init.s, init.i, init.r
    states = [(s, i, r)]
    for _ in range(n_steps):
        d1 = rhs(s, i)
        d2 = rhs(s + 0.5 * h * d1[0], i + 0.5 * h * d1[1])
        d3 = rhs(s + 0.5 * h * d2[0], i + 0.5 * h * d2[1])
        d4 = rhs(s + h * d3[0], i + h * d3[1])
        s += (h / 6.0) * (d1[0] + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
        i += (h / 6.0) * (d1[1] + 2.0 * d2[1] + 2.0 * d3[1] + d4[1])
        r += (h / 6.0) * (d1[2] + 2.0 * d2[2] + 2.0 * d3[2] + d4[2])
        if s < floor or i < floor or r < floor:
            raise undershoot(len(states) * h, floor, SIR_LABELS, (s, i, r))
        states.append((s, i, r))

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states, step=h, labels=SIR_LABELS)
