"""The scalar delayed-lookup core as it was before reconstruction went
through the solver's lookup plan, kept unchanged as the reference: one
cubic Hermite lookup per call (``_interp4``), the four model rows at one
point (``_pseirs_rhs``) and one history row at a time (``history_reader``,
with the linear interpolation ``SampledHistory`` had as a scalar
``raw_at``).  ``_eval_raw`` and ``rows_at`` must give the same bits.

Beside it, ``fixed_fraction_lookups``: the same ``_interp4`` at the cell
offset and fraction a constant lag has at every step, which the solver and
reconstruction must match bit for bit.  The per-time lookup of the
reference loops, at t - lag with a fraction worked out for each t, stays a
check within rounding."""

import math

import numpy as np

from pseirs import ConstantHistory
from pseirs.dde import _zero_population
from pseirs.errors import OutOfDomain


def sampled_raw_at(history, t):
    """(S, E, I, R) of a SampledHistory at one time t."""
    times = history.times
    if t < times[0]:
        raise OutOfDomain(f"history evaluation at t={t} before {times[0]}")
    if t >= 0.0:
        row = history.states[-1]
        return (row[0], row[1], row[2], row[3])
    j = int(np.searchsorted(times, t, side="right")) - 1
    if j >= len(times) - 1:
        j = len(times) - 2
    t0, t1 = times[j], times[j + 1]
    w = (t - t0) / (t1 - t0)
    a, b = history.states[j], history.states[j + 1]
    return tuple(float(a[k] + w * (b[k] - a[k])) for k in range(4))


def history_reader(history):
    """A function of one time t <= 0 giving the (S, E, I, R) of a
    ConstantHistory or a SampledHistory with scalar arithmetic."""
    if isinstance(history, ConstantHistory):
        row = (history.s, history.e, history.i, history.r)
        return lambda t: row
    return lambda t: sampled_raw_at(history, t)


def _interp4(j, th, h, S, E, I, R, dS, dE, dI, dR):
    # Cubic Hermite over cell [t_j, t_{j+1}]; exact for cubic-in-time data.
    if th == 0.0:
        return (S[j], E[j], I[j], R[j])
    t2 = th * th
    t3 = t2 * th
    h00 = 2.0 * t3 - 3.0 * t2 + 1.0
    h01 = 3.0 * t2 - 2.0 * t3
    h10 = (t3 - 2.0 * t2 + th) * h
    h11 = (t3 - t2) * h
    j1 = j + 1
    return (h00 * S[j] + h01 * S[j1] + h10 * dS[j] + h11 * dS[j1],
            h00 * E[j] + h01 * E[j1] + h10 * dE[j] + h11 * dE[j1],
            h00 * I[j] + h01 * I[j1] + h10 * dI[j] + h11 * dI[j1],
            h00 * R[j] + h01 * R[j1] + h10 * dR[j] + h11 * dR[j1])


def _pseirs_rhs(t, s, e, i, r, s_w, e_w, i_w, r_w, i_tau,
            beta, mu, epsilon, alpha, gamma, p, decay_w, decay_t):
    """The four derivative rows at time t from the current and the two lagged
    states, as the solver's loop and reconstruction's ``_derivative_rows``
    compute them.  decay_w/decay_t are exp(-mu*omega)/exp(-mu*tau); t only
    names the time in a ZeroPopulation."""
    n = s + e + i + r
    n_w = s_w + e_w + i_w + r_w
    if n <= 0.0:
        raise _zero_population(t)
    if n_w <= 0.0:
        raise _zero_population(t, lagged=True)
    inc_now = gamma * (s / n) * i
    inc_lag = gamma * (s_w / n_w) * i_w * decay_w
    ret = p * alpha * i_tau * decay_t
    return (beta * n - mu * s - inc_now + ret,
            inc_now - inc_lag - mu * e,
            inc_lag - (mu + epsilon + alpha) * i,
            p * alpha * i - ret - mu * r)


def _cell(steps):
    """(m, th): ``steps`` steps back is cell -m at fraction th in [0, 1),
    with th = 0 within 1e-9 of a whole number."""
    m = round(steps)
    if abs(steps - m) <= 1e-9:
        return m, 0.0
    m = math.ceil(steps)
    return m, m - steps


def fixed_fraction_lookups(history, h, columns, clamp_to=None):
    """A function of (lag, k, stage) giving the (S, E, I, R) row that
    stage 1 (stage 0 here), the stage-2/3 midpoint (1) or stage 4 (2) of
    step k reads at ``lag``.  Stages 1 and 4 read entry k and k+1 of
    fraction a, at t = n*h - lag; the midpoint entry k of fraction b, at
    t = n*h + h/2 - lag.  Entry n of a fraction (m, th) is the history
    below n = m, else ``_interp4`` of cell n - m at th, except that stage 4
    reads the history at t = 0 where its entry is row 0.  ``columns`` are
    the (S, E, I, R, dS, dE, dI, dR) lists as they fill; no lookup reads
    past a finished cell, so ``clamp_to`` is not used."""
    hist_raw = history_reader(history)
    cells = {}

    def at(lag, k, stage):
        if lag not in cells:
            m, th = _cell(lag / h)
            cells[lag] = ((m, th), _cell(m - th - 0.5))
        (m, th), offset = cells[lag][stage == 1], 0.5 * (stage == 1)
        n = k + (stage == 2)
        if n < m:
            return hist_raw(n * h + offset * h - lag)
        if stage == 2 and n == m and th == 0.0:
            return hist_raw(0.0)
        return _interp4(n - m, th, h, *columns)

    return at
