"""Delayed probabilistic SEIRS solver.

The system (four compartments, two constant delays) is

    dS/dt = beta*N - mu*S - gamma*S*I/N + alpha*I(t-tau)*exp(-mu*tau)
    dE/dt = gamma*S*I/N - gamma*(S*I/N)(t-omega)*exp(-mu*omega) - mu*E
    dI/dt = gamma*(S*I/N)(t-omega)*exp(-mu*omega) - (mu+epsilon+alpha)*I
    dR/dt = p*alpha*I - alpha*I(t-tau)*exp(-mu*tau) - mu*R

integrated by the method of steps with fixed-step RK4 (Bellen & Zennaro,
*Numerical Methods for Delay Differential Equations*, 2003, ch. 3-4).
Delayed lookups resolve through the prescribed history for t < 0 and
through cubic Hermite interpolation of the stored (state, derivative)
samples for t >= 0.  The step must not exceed min(omega, tau)/4 so that
every stage lookup lands in already-computed territory.

Block method of steps.  Each RK4 step makes six delayed lookups: at stage
1, at the stage-2/3 midpoint and at stage 4, each at lag omega and at lag
tau.  As both lags are constant, those lookups read only rows the solver
finished earlier, so ``simulate_pseirs`` computes them in numpy instead of
one at a time:

- For a chunk of ``PLAN_CHUNK`` steps, ``_LookupPlan`` computes each
  lookup's time, whether it falls in the history (and the history value),
  its cell ``j`` and its Hermite weights.
- The steps then advance in blocks.  A block is the longest run of steps
  whose lookups read only finished rows: a block starting at step k0 has
  the states of rows 0..k0 but the derivatives of rows 0..k0-1 only (row
  k0's derivative is its first stage), so it may read cells up to
  [k0-2, k0-1].  Step k's stage-4 lookup at lag L reads the cell about
  k + 1 - L/h, which limits a block to about min(omega, tau)/h - 2 steps:
  18 at the default step, 2 at the smallest legal one.
- For each block, one gather and one Hermite evaluation give the lagged
  incidence gamma*(S_w/N_w)*I_w*exp(-mu*omega) and the return term
  alpha*I_tau*exp(-mu*tau) of all its steps; the Python loop then does
  only the undelayed RK4 arithmetic.

Every bit matches evaluating each lookup on its own (``_interp4``, which
reconstruction still uses): numpy does the same IEEE-754 operations in the
same order and does not fuse a multiply and an add, both decay factors are
``math.exp`` values computed once, and the plan repeats the scalar lookup's
``1e-9*h`` snap at t = 0, its ``int(x/h)`` truncation and its exact-row
branch at ``th == 0``.

Consistent initialization: E(0) and R(0) default to the integrals of the
supplied history,

    E(0) = int_{-omega}^0 gamma*S(x)*I(x)/N(x) * exp(mu*x) dx
    R(0) = int_{-tau}^0   p*alpha*I(x) * exp(mu*x) dx

which is what makes the solution agree with the integro-differential form
(see the integro module, which integrates the same two integrands).
Callers may override either value; the trajectory then carries an
``init_override`` flag that voids the equivalence guarantee.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from functools import partial
from typing import NamedTuple

import numpy as np

from .core import (CompartmentState, ConstantHistory, HistoryFunction,
                   PseirsParams, Trajectory, _require, kappa, step_count,
                   validate_pseirs)
from .errors import InvalidParameter, OutOfDomain, StepTooLarge, ZeroPopulation
from .quadrature import adaptive_simpson

PSEIRS_LABELS = ("S", "E", "I", "R")

# steps per lookup plan: bounds the plan's memory, not the result
PLAN_CHUNK = 1024


class DerivativeSample(NamedTuple):
    ds: float
    de: float
    di: float
    dr: float


def _zero_population(t: float, lagged: bool = False) -> ZeroPopulation:
    which = "lagged population N(t - omega)" if lagged else "population N"
    return ZeroPopulation(f"{which} reached zero at t={t}; S*I/N is undefined")


def _pseirs_rhs(t, s, e, i, r, s_w, e_w, i_w, r_w, i_tau,
            beta, mu, epsilon, alpha, gamma, p, decay_w, decay_t):
    """The four derivative rows at time t from the current and the two lagged
    states, for pseirs_derivatives and reconstruction; the solver does the
    same arithmetic in its loop.  decay_w/decay_t are
    exp(-mu*omega)/exp(-mu*tau); t only names the time in a ZeroPopulation."""
    n = s + e + i + r
    n_w = s_w + e_w + i_w + r_w
    if n <= 0.0:
        raise _zero_population(t)
    if n_w <= 0.0:
        raise _zero_population(t, lagged=True)
    inc_now = gamma * (s / n) * i
    inc_lag = gamma * (s_w / n_w) * i_w * decay_w
    ret = alpha * i_tau * decay_t
    return (beta * n - mu * s - inc_now + ret,
            inc_now - inc_lag - mu * e,
            inc_lag - (mu + epsilon + alpha) * i,
            p * alpha * i - ret - mu * r)


def pseirs_derivatives(now: CompartmentState, at_lag_omega: CompartmentState,
                   at_lag_tau: CompartmentState,
                   params: PseirsParams) -> DerivativeSample:
    """Evaluate the four rows at one point given the two lagged states.
    The point carries no time, so a ZeroPopulation it raises names t=nan."""
    decay_w = math.exp(-params.mu * params.omega)
    decay_t = math.exp(-params.mu * params.tau)
    return DerivativeSample(*_pseirs_rhs(
        math.nan, now.s, now.e, now.i, now.r,
        at_lag_omega.s, at_lag_omega.e, at_lag_omega.i, at_lag_omega.r,
        at_lag_tau.i,
        params.beta, params.mu, params.epsilon, params.alpha, params.gamma,
        params.p, decay_w, decay_t))


def _decay(mu: float, t: float, x: np.ndarray) -> np.ndarray:
    # exp(-mu*(t-x)) by math.exp, node by node: np.exp need not round as
    # libm does.  Mapping over the array, not over its .tolist(), is a
    # little slower but adds less to the benchmark's median peak RSS: 0.1
    # and 2.2 MB on simulate_configs and analyze_stored, against 2.2 and
    # 3.2 MB (CPython 3.11, numpy 2.4, 2-vCPU Xeon)
    return np.fromiter(map(math.exp, -mu * (t - x)), float, len(x))


def _exposed_integrand(at, t: float, params: PseirsParams):
    """Integrand of E(t) over [t-omega, t], reading the (n, 4) state rows
    of an array of nodes through ``at``; consistent init (t = 0) and the
    integro module share it."""
    gamma, mu = params.gamma, params.mu

    def f(x):
        with np.errstate(all="ignore"):
            s, e, i, r = at(x).T
            v = gamma * (s / (s + e + i + r)) * i * _decay(mu, t, x)
            return np.where((s == 0.0) | (i == 0.0) | (gamma == 0.0), 0.0, v)

    return f


def _recovered_integrand(at, t: float, params: PseirsParams):
    """Integrand of R(t) over [t-tau, t], shared like the one of E(t)."""
    p, alpha, mu = params.p, params.alpha, params.mu

    def f(x):
        with np.errstate(all="ignore"):
            return p * alpha * at(x)[:, 2] * _decay(mu, t, x)

    return f


def _history_rows(history: HistoryFunction, x: np.ndarray) -> np.ndarray:
    """``history.raw_at`` of every node, as (n, 4) rows."""
    if isinstance(history, ConstantHistory):
        return np.tile(history.raw_at(0.0), (len(x), 1))
    return np.array([history.raw_at(v) for v in x.tolist()],
                    dtype=float).reshape(-1, 4)


def consistent_initial_exposed(history: HistoryFunction,
                               params: PseirsParams) -> float:
    """E(0) integral of the history over [-omega, 0]."""
    at = partial(_history_rows, history)
    return adaptive_simpson(_exposed_integrand(at, 0.0, params),
                            -params.omega, 0.0)


def consistent_initial_recovered(history: HistoryFunction,
                                 params: PseirsParams) -> float:
    """R(0) integral of the history over [-tau, 0]."""
    at = partial(_history_rows, history)
    return adaptive_simpson(_recovered_integrand(at, 0.0, params),
                            -params.tau, 0.0)


def _hermite_weights(th, h):
    """The weights h00, h01, h10, h11 of ``_interp4``, computed in its
    operation order, for arrays of ``th``."""
    t2 = th * th
    t3 = t2 * th
    return (2.0 * t3 - 3.0 * t2 + 1.0, 3.0 * t2 - 2.0 * t3,
            (t3 - 2.0 * t2 + th) * h, (t3 - t2) * h)


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


def _eval_raw(traj: Trajectory, x: np.ndarray) -> np.ndarray:
    """(S, E, I, R) rows at an array of times in [-kappa, horizon]: history
    on the left (``history.raw_at``), Hermite interpolant of the stored
    samples on the right.

    Each row has the bits of ``_interp4`` at that time: the same cell
    ``int(t / h)``, clamped to the last cell, the same operation order and
    the exact-row branch at ``th == 0``.  So it is not an exact lookup at
    grid points: ``int(t / h)`` can pick the cell to the left of a grid
    time, and the interpolant then misses the stored row by rounding (at
    770 of the 40,001 grid points of the baseline run).  ``history_eval``
    is the exact lookup; the integral forms use this one for all the
    nodes of a quadrature level at once."""
    x = np.asarray(x, dtype=float)
    times = traj.times
    h = traj.step
    left = x < 0.0
    any_left = left.any()
    if any_left:
        t = float(x[left].min())
        if traj.history is None or t < -traj.kappa:
            raise OutOfDomain(f"t={t} outside [-{traj.kappa}, {traj.horizon}]")
    if len(x) and not x.max() <= times[-1] + 1e-9 * h:  # NaN fails too
        raise OutOfDomain(f"t={float(x.max())} beyond the last computed "
                          f"sample {times[-1]}")
    xs = np.where(left, 0.0, x)  # history rows are replaced below
    j = np.minimum((xs / h).astype(np.int64), len(times) - 2)
    th = ((xs - j * h) / h)[:, None]
    h00, h01, h10, h11 = _hermite_weights(th, h)
    st, dv = traj.states, traj.derivs
    rows = st[j]
    v = ((h00 * rows + h01 * st[j + 1]) + h10 * dv[j]) + h11 * dv[j + 1]
    v = np.where(th == 0.0, rows, v)
    if any_left:
        v[left] = _history_rows(traj.history, x[left])
    return v


def history_eval(traj: Trajectory, t: float) -> CompartmentState:
    """Evaluate a four-compartment trajectory (or its history) at time t."""
    _require(len(traj.labels) == 4, "trajectory", traj.labels,
             "four-compartment trajectory required")
    if 0.0 <= t <= traj.horizon:
        j = int(round(t / traj.step))
        if 0 <= j < len(traj.times) and traj.times[j] == t:
            row = traj.states[j]
            return CompartmentState(row[0], row[1], row[2], row[3])
    return CompartmentState(*_eval_raw(traj, np.array([t]))[0])


def default_step(params: PseirsParams) -> float:
    return min(params.omega, params.tau, 1.0) / 20.0


def _delayed_rows(params: PseirsParams, history: HistoryFunction, h: float,
                  Ss: list, Es: list, Is: list, Rs: list):
    """Lookup-and-derivative core of reconstruction, over state columns
    sampled every ``h`` from t=0.

    Returns ``(derivative_at, derivs)``: a ``derivative_at(k, s, e, i, r)``
    that evaluates the rows at t = k*h, resolving the lags one lookup at a
    time exactly as the solver's lookup plan does, and appends them to
    ``derivs``, the four derivative columns.  Rows must be evaluated in
    order: a lookup reads the derivatives of earlier rows.
    """
    beta, mu, eps = params.beta, params.mu, params.epsilon
    alpha, gamma, p = params.alpha, params.gamma, params.p
    om, tau = params.omega, params.tau
    decay_w = math.exp(-mu * om)
    decay_t = math.exp(-mu * tau)

    hist_raw = history.raw_at
    if isinstance(history, ConstantHistory):
        const_row = hist_raw(0.0)
        hist_raw = lambda x: const_row  # noqa: E731 - hot path

    dSs, dEs, dIs, dRs = [], [], [], []
    snap = 1e-9 * h  # stage times t-lag can miss the t=0 boundary by ~1 ulp

    def past(x):
        if x < snap:
            if x < -snap:
                return hist_raw(x)
            x = 0.0
        # every lag is >= 4 steps, so rows j and j+1 and their derivatives
        # are already computed: no clamp is needed
        j = int(x / h)
        return _interp4(j, (x - j * h) / h, h, Ss, Es, Is, Rs,
                        dSs, dEs, dIs, dRs)

    def derivative_at(k, s, e, i, r):
        t = k * h
        lw = past(t - om)
        lt = past(t - tau)
        d = _pseirs_rhs(t, s, e, i, r, lw[0], lw[1], lw[2], lw[3], lt[2],
                        beta, mu, eps, alpha, gamma, p, decay_w, decay_t)
        dSs.append(d[0]); dEs.append(d[1]); dIs.append(d[2]); dRs.append(d[3])
        return d

    return derivative_at, (dSs, dEs, dIs, dRs)


# The plan's six lookups, in this order: lag omega at stage 1, at the
# stage-2/3 midpoint and at stage 4, then lag tau at the same stages.
# Stage 4 integrates the branch left of any breaking point, so its lookup
# reads the history at t=0 (E and R may jump there under consistent init).
_LEFT = np.array([False, False, True, False, False, True])[:, None]


class _LookupPlan:
    """The six delayed lookups of steps c0 <= k < c1, worked out with the
    operations of ``_delayed_rows``' ``past`` (stage 4: taking the history
    at x <= snap, as the left limit) and ``_interp4``."""

    def __init__(self, params: PseirsParams, history: HistoryFunction,
                 h: float, c0: int, c1: int):
        self.c0, self.c1 = c0, c1
        om, tau = params.omega, params.tau
        self.gamma, self.alpha = params.gamma, params.alpha
        self.decay_w = math.exp(-params.mu * om)
        self.decay_t = math.exp(-params.mu * tau)
        t = np.arange(c0, c1, dtype=float) * h
        tm = t + 0.5 * h
        te = t + h
        x = np.stack([t - om, tm - om, te - om, t - tau, tm - tau, te - tau])
        snap = 1e-9 * h
        hist = np.where(_LEFT, x <= snap, x < -snap)
        xs = np.where(x < snap, 0.0, x)  # history lookups get j = 0, th = 0
        j = (xs / h).astype(np.int64)  # xs >= 0: truncation is int()
        th = (xs - j * h) / h
        h00, h01, h10, h11 = _hermite_weights(th, h)
        # axes (row j or j+1, lookup, step, -), as the gathered rows
        self.cells = np.stack([j, j + 1])
        self.value_weights = np.stack([h00, h01])[..., None]
        self.slope_weights = np.stack([h10, h11])[..., None]
        self.exact = (th == 0.0)[:, :, None]
        # the newest row a step reads; non-decreasing in k, so a block is
        # a bisection
        self.need = np.where(hist, -1, j + 1).max(axis=0).tolist()
        self.any_hist = hist.any(axis=0).tolist()
        if self.any_hist[0]:
            self.hist = hist[:, :, None]
            self.hist_rows = np.zeros(x.shape + (4,))
            if isinstance(history, ConstantHistory):
                self.hist_rows[hist] = history.raw_at(0.0)
            else:
                at = np.where(_LEFT & (x > 0.0), 0.0, x)[hist]  # min(x, 0)
                self.hist_rows[hist] = [history.raw_at(a) for a in at.tolist()]

    def block_end(self, k0: int, stop: int) -> int:
        """End of the block starting at k0: its lookups read rows <= k0-1.
        Lags of >= 4 steps keep step k0 itself in the block."""
        c0 = self.c0
        return min(bisect_right(self.need, k0 - 1, k0 - c0) + c0, stop)

    def lagged(self, states: np.ndarray, derivs: np.ndarray, k0: int, k1: int):
        """(incidence, return term, lagged N <= 0) of steps k0 <= k < k1:
        three (3, k1-k0) arrays whose rows are the stages."""
        sl = slice(k0 - self.c0, k1 - self.c0)
        cells = self.cells[:, :, sl]
        values = states[cells]
        a = self.value_weights[:, :, sl] * values
        d = self.slope_weights[:, :, sl] * derivs[cells]
        # ((h00*S[j] + h01*S[j+1]) + h10*dS[j]) + h11*dS[j+1], as _interp4
        v = ((a[0] + a[1]) + d[0]) + d[1]
        v = np.where(self.exact[:, sl], values[0], v)
        if self.any_hist[sl.start]:
            v = np.where(self.hist[:, sl], self.hist_rows[:, sl], v)
        w = v[:3]
        n_w = ((w[..., 0] + w[..., 1]) + w[..., 2]) + w[..., 3]
        inc = self.gamma * (w[..., 0] / n_w) * w[..., 2] * self.decay_w
        ret = self.alpha * v[3:, :, 2] * self.decay_t
        return inc, ret, n_w <= 0.0


def _undershoot(t: float, floor: float, state) -> StepTooLarge:
    name, value = next((n, v) for n, v in zip(PSEIRS_LABELS, state)
                       if v < floor)
    return StepTooLarge(f"compartment {name}={value!r} fell below {floor} "
                        f"at t={t}; reduce the step")


def simulate_pseirs(params: PseirsParams, history: HistoryFunction,
                    horizon: float, step: float | None = None, *,
                    e0: float | None = None,
                    r0: float | None = None) -> Trajectory:
    """Integrate the delayed system from the given history.

    S(0) and I(0) come from the history at t=0; E(0) and R(0) come from the
    consistency integrals unless ``e0``/``r0`` override them.  Aborts with
    StepTooLarge, naming the compartment and t, when a compartment
    undershoots -1e-9*N(0) (no clamping: a clamp would silently break the
    population-balance identity), and with ZeroPopulation, naming t, when
    the current or the lagged population N reaches zero.
    """
    validate_pseirs(params)
    kap = kappa(params)
    if not history.covers(kap):
        raise InvalidParameter("history", history.domain_start(),
                               f"history must cover [-{kap}, 0]")
    if step is None:
        step = default_step(params)
    h = float(step)
    _require(h > 0, "step", h, "step > 0")
    _require(h <= min(params.omega, params.tau) / 4.0, "step", h,
             "step <= min(omega, tau)/4")
    _require(horizon >= h, "horizon", horizon, "horizon >= step")

    override = e0 is not None or r0 is not None
    e_init = consistent_initial_exposed(history, params) if e0 is None else e0
    r_init = consistent_initial_recovered(history, params) if r0 is None else r0
    s0_t = history.raw_at(0.0)
    # Python floats: the same bits as numpy scalars, faster in the loop
    s, e, i, r = float(s0_t[0]), float(e_init), float(s0_t[2]), float(r_init)
    n0 = s + e + i + r
    if n0 <= 0.0:
        raise ZeroPopulation("initial population is zero")
    floor = -1e-9 * n0

    beta, mu, gamma = params.beta, params.mu, params.gamma
    b = mu + params.epsilon + params.alpha  # grouped as in _pseirs_rhs
    pa = params.p * params.alpha
    n_steps = step_count(horizon, h)
    hh = 0.5 * h
    h6 = h / 6.0
    # a block fills the derivative rows of its steps and the state rows
    # after them
    states = np.zeros((n_steps + 1, 4))
    derivs = np.zeros((n_steps + 1, 4))
    states[0] = (s, e, i, r)
    plan = None
    k0 = 0
    # numpy stays as quiet as the scalar float arithmetic it replaces
    with np.errstate(all="ignore"):
        while True:
            if plan is None or k0 == plan.c1:
                plan = _LookupPlan(params, history, h, k0,
                                   min(k0 + PLAN_CHUNK, n_steps + 1))
            if k0 == n_steps:
                break
            k1 = plan.block_end(k0, min(plan.c1, n_steps))
            inc, ret, zero = plan.lagged(states, derivs, k0, k1)
            lag_zero = None
            if zero.any():
                # stop the block at the first step whose lagged N <= 0; NaN
                # in both lagged terms of that stage turns every compartment
                # to NaN from there on, so no check fires before the raise
                kz = int(np.argmax(zero.any(axis=0)))
                stage = int(np.argmax(zero[:, kz]))
                k1 = k0 + kz + 1
                inc, ret = inc[:, :kz + 1].copy(), ret[:, :kz + 1].copy()
                inc[stage, kz] = ret[stage, kz] = math.nan
                lag_zero = (k0 + kz, stage)
            out = []
            for lw1, lwm, lw4, lt1, ltm, lt4 in zip(*inc.tolist(), *ret.tolist()):
                n = s + e + i + r
                if n <= 0.0:
                    raise _zero_population((k0 + len(out) // 8) * h)
                inc_now = gamma * (s / n) * i
                d1s = beta * n - mu * s - inc_now + lt1
                d1e = inc_now - lw1 - mu * e
                d1i = lw1 - b * i
                d1r = pa * i - lt1 - mu * r
                s2 = s + hh * d1s
                e2 = e + hh * d1e
                i2 = i + hh * d1i
                r2 = r + hh * d1r
                n = s2 + e2 + i2 + r2
                if n <= 0.0:
                    raise _zero_population((k0 + len(out) // 8) * h + hh)
                inc_now = gamma * (s2 / n) * i2
                d2s = beta * n - mu * s2 - inc_now + ltm
                d2e = inc_now - lwm - mu * e2
                d2i = lwm - b * i2
                d2r = pa * i2 - ltm - mu * r2
                s2 = s + hh * d2s
                e2 = e + hh * d2e
                i2 = i + hh * d2i
                r2 = r + hh * d2r
                n = s2 + e2 + i2 + r2
                if n <= 0.0:
                    raise _zero_population((k0 + len(out) // 8) * h + hh)
                inc_now = gamma * (s2 / n) * i2
                d3s = beta * n - mu * s2 - inc_now + ltm
                d3e = inc_now - lwm - mu * e2
                d3i = lwm - b * i2
                d3r = pa * i2 - ltm - mu * r2
                s2 = s + h * d3s
                e2 = e + h * d3e
                i2 = i + h * d3i
                r2 = r + h * d3r
                n = s2 + e2 + i2 + r2
                if n <= 0.0:
                    raise _zero_population((k0 + len(out) // 8) * h + h)
                inc_now = gamma * (s2 / n) * i2
                d4s = beta * n - mu * s2 - inc_now + lt4
                d4e = inc_now - lw4 - mu * e2
                d4i = lw4 - b * i2
                d4r = pa * i2 - lt4 - mu * r2
                s += h6 * (d1s + 2.0 * d2s + 2.0 * d3s + d4s)
                e += h6 * (d1e + 2.0 * d2e + 2.0 * d3e + d4e)
                i += h6 * (d1i + 2.0 * d2i + 2.0 * d3i + d4i)
                r += h6 * (d1r + 2.0 * d2r + 2.0 * d3r + d4r)
                if s < floor or e < floor or i < floor or r < floor:
                    raise _undershoot((k0 + len(out) // 8 + 1) * h, floor,
                                      (s, e, i, r))
                out += (d1s, d1e, d1i, d1r, s, e, i, r)
            if lag_zero is not None:
                k, stage = lag_zero
                raise _zero_population(k * h + (0.0, hh, h)[stage], lagged=True)
            block = np.fromiter(out, float, len(out)).reshape(-1, 8)
            derivs[k0:k1] = block[:, :4]
            states[k0 + 1:k1 + 1] = block[:, 4:]
            k0 = k1

        # the derivative row of the last sample: stage 1 of a step not taken
        inc, ret, zero = plan.lagged(states, derivs, n_steps, n_steps + 1)
    lw, lt = float(inc[0, 0]), float(ret[0, 0])
    n = s + e + i + r
    if n <= 0.0:
        raise _zero_population(n_steps * h)
    if zero[0, 0]:
        raise _zero_population(n_steps * h, lagged=True)
    inc_now = gamma * (s / n) * i
    derivs[n_steps] = (beta * n - mu * s - inc_now + lt,
                         inc_now - lw - mu * e, lw - b * i, pa * i - lt - mu * r)

    times = np.arange(n_steps + 1, dtype=float) * h
    # copies made after the solve: holding the arrays allocated before the
    # lookup plans left more of the heap resident (median peak RSS of the
    # analyze_stored benchmark, whose set-up solves: 62.6 MB, 59.6 with copies)
    return Trajectory(times=times, states=states.copy(), derivs=derivs.copy(),
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kap, init_override=override)


def reconstruct_trajectory(params: PseirsParams, history: HistoryFunction,
                           times: np.ndarray, states: np.ndarray) -> Trajectory:
    """Rebuild a full Trajectory (including derivative samples) from stored
    state samples, e.g. a trajectory CSV written by an earlier run.

    Derivatives are recomputed by evaluating the model rows at every sample,
    resolving delayed lookups exactly as the solver did, so analyses run on
    the reconstruction match the original run.
    """
    validate_pseirs(params)
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    _require(len(times) >= 2 and times[0] == 0.0, "times", None,
             "uniform grid starting at 0")
    # times[1] is exactly 1*step as written by the solver, so this recovers
    # the original step bit-for-bit (uniformity is re-checked by Trajectory)
    h = float(times[1] - times[0])
    _require(h > 0 and h <= min(params.omega, params.tau) / 4.0, "step", h,
             "0 < step <= min(omega, tau)/4")

    Ss, Es, Is, Rs = states.T.tolist()
    derivative_at, derivs = _delayed_rows(params, history, h, Ss, Es, Is, Rs)
    for k in range(len(Ss)):
        derivative_at(k, Ss[k], Es[k], Is[k], Rs[k])

    e_consistent = consistent_initial_exposed(history, params)
    r_consistent = consistent_initial_recovered(history, params)
    override = not (Es[0] == e_consistent and Rs[0] == r_consistent)
    return Trajectory(times=times, states=states,
                      derivs=np.column_stack(derivs),
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kappa(params), init_override=override)
