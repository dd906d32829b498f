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

Reconstruction (``reconstruct_trajectory``) rebuilds the derivative rows of
stored states with stage 1's two lookups only (``_derivative_rows``; the
solver's last sample takes its derivative row from the same function).  As
every stored state is known up front, only the lag-omega lookups depend on
the rows just rebuilt, so the work splits by lag:

- For a chunk of ``PLAN_CHUNK`` rows, the undelayed arithmetic runs once:
  N and its zero mask, the current incidence, beta*N - mu*S - incidence,
  mu*E, (mu+epsilon+alpha)*I, p*alpha*I and mu*R.
- Each lag has its own lookup plan and its own blocks.  One gather per
  tau block gives the return term and fills the dS and dR columns; where
  tau/h exceeds ``PLAN_CHUNK`` (4,000 steps on three of the four shipped
  pSEIRS configs) that is one block per chunk.  An omega block, which
  ends no later than the tau block, gives the lagged incidence, checks the
  current and the lagged N, and fills the dE and dI columns.

Every bit matches evaluating each lookup on its own with a scalar cubic
Hermite (kept as the test reference): numpy does the same IEEE-754
operations in the same order and does not fuse a multiply and an add, both
decay factors are ``math.exp`` values computed once, and the plan repeats
the scalar lookup's ``1e-9*h`` snap at t = 0, its ``int(x/h)`` truncation
and its exact-row branch at ``th == 0``.

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
from typing import NamedTuple

import numpy as np

from .core import (CompartmentState, HistoryFunction, PseirsParams,
                   Trajectory, _require, kappa, step_count, validate_pseirs)
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


def pseirs_derivatives(now: CompartmentState, at_lag_omega: CompartmentState,
                   at_lag_tau: CompartmentState,
                   params: PseirsParams) -> DerivativeSample:
    """Evaluate the four rows at one point given the two lagged states.
    The point carries no time, so a ZeroPopulation it raises names t=nan."""
    s, e, i, r = now.as_tuple()
    n, n_w = now.n, at_lag_omega.n
    if n <= 0.0:
        raise _zero_population(math.nan)
    if n_w <= 0.0:
        raise _zero_population(math.nan, lagged=True)
    beta, mu, alpha, gamma = params.beta, params.mu, params.alpha, params.gamma
    inc_now = gamma * (s / n) * i
    inc_lag = (gamma * (at_lag_omega.s / n_w) * at_lag_omega.i
               * math.exp(-mu * params.omega))
    ret = alpha * at_lag_tau.i * math.exp(-mu * params.tau)
    return DerivativeSample(beta * n - mu * s - inc_now + ret,
                            inc_now - inc_lag - mu * e,
                            inc_lag - (mu + params.epsilon + alpha) * i,
                            params.p * alpha * i - ret - mu * r)


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


def consistent_initial_exposed(history: HistoryFunction,
                               params: PseirsParams) -> float:
    """E(0) integral of the history over [-omega, 0]."""
    return adaptive_simpson(_exposed_integrand(history.rows_at, 0.0, params),
                            -params.omega, 0.0)


def consistent_initial_recovered(history: HistoryFunction,
                                 params: PseirsParams) -> float:
    """R(0) integral of the history over [-tau, 0]."""
    return adaptive_simpson(_recovered_integrand(history.rows_at, 0.0, params),
                            -params.tau, 0.0)


def _hermite_weights(th, h):
    """The cubic Hermite weights h00, h01, h10, h11 of an array of cell
    fractions ``th``, in the operation order of the scalar lookup."""
    t2 = th * th
    t3 = t2 * th
    return (2.0 * t3 - 3.0 * t2 + 1.0, 3.0 * t2 - 2.0 * t3,
            (t3 - 2.0 * t2 + th) * h, (t3 - t2) * h)


def _eval_raw(traj: Trajectory, x: np.ndarray) -> np.ndarray:
    """(S, E, I, R) rows at an array of times in [-kappa, horizon]: history
    on the left (``history.rows_at``), Hermite interpolant of the stored
    samples on the right.

    Each row has the bits of the scalar cubic Hermite lookup at that time:
    the same cell ``int(t / h)``, clamped to the last cell, the same
    operation order ``((h00*S[j] + h01*S[j+1]) + h10*dS[j]) + h11*dS[j+1]``
    and the exact-row branch at ``th == 0``.  So it is not an exact lookup at
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
        v[left] = traj.history.rows_at(x[left])
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


# Lookup stages as (offset in steps, left limit): RK4's stage 1, its
# stage-2/3 midpoint and stage 4 for the solver; stage 1 alone for a
# derivative row.  Stage 4 integrates the branch left of any breaking point,
# so its lookup reads the history at t=0 (E and R may jump there under
# consistent init).
_RK4_STAGES = ((0.0, False), (0.5, False), (1.0, True))
_ROW_STAGES = _RK4_STAGES[:1]


class _LookupPlan:
    """The delayed lookups of steps c0 <= k < c1: for each of ``lags`` in
    turn, one for each of ``stages``, at t = k*h + offset*h - lag.  The
    solver plans (omega, tau); reconstruction plans each lag on its own.
    Each lookup is worked out with the operations of a scalar cubic Hermite
    lookup: history for x < -1e-9*h (x <= 1e-9*h at a left limit, read at
    min(x, 0)), else cell ``int(x/h)`` of the samples with x snapped to 0
    within 1e-9*h, and the stored row itself at ``th == 0``.  No cell is
    clamped: every lag is at least 4 steps."""

    def __init__(self, params: PseirsParams, history: HistoryFunction,
                 h: float, c0: int, c1: int, stages: tuple, lags: tuple):
        self.c0, self.c1, self.h = c0, c1, h
        self.n_stages = len(stages)
        self.beta, self.mu, self.gamma = params.beta, params.mu, params.gamma
        self.alpha = params.alpha
        self.b = params.mu + params.epsilon + params.alpha
        self.pa = params.p * params.alpha
        self.decay_w = math.exp(-params.mu * params.omega)
        self.decay_t = math.exp(-params.mu * params.tau)
        t = np.arange(c0, c1, dtype=float) * h
        ts = [t + offset * h for offset, _ in stages]
        x = np.stack([u - lag for lag in lags for u in ts])
        left = np.array([lim for _, lim in stages] * len(lags))[:, None]
        snap = 1e-9 * h  # stage times t-lag can miss t=0 by ~1 ulp
        hist = np.where(left, x <= snap, x < -snap)
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
            at = np.where(left & (x > 0.0), 0.0, x)[hist]  # min(x, 0)
            self.hist_rows[hist] = history.rows_at(at)

    def block_end(self, k0: int, stop: int) -> int:
        """End of the block starting at k0: its lookups read rows <= k0-1.
        Lags of >= 4 steps keep step k0 itself in the block."""
        c0 = self.c0
        return min(bisect_right(self.need, k0 - 1, k0 - c0) + c0, stop)

    def rows(self, states: np.ndarray, derivs: np.ndarray, k0: int, k1: int):
        """The (S, E, I, R) rows looked up for steps k0 <= k < k1: a
        (lookups, k1-k0, 4) array."""
        sl = slice(k0 - self.c0, k1 - self.c0)
        cells = self.cells[:, :, sl]
        # take, not fancy indexing: the same rows, 3-5x faster per block
        # (numpy 2.4)
        values = states.take(cells, axis=0)
        a = self.value_weights[:, :, sl] * values
        d = self.slope_weights[:, :, sl] * derivs.take(cells, axis=0)
        v = ((a[0] + a[1]) + d[0]) + d[1]
        np.copyto(v, values[0], where=self.exact[:, sl])
        if self.any_hist[sl.start]:
            np.copyto(v, self.hist_rows[:, sl], where=self.hist[:, sl])
        return v

    def incidence(self, w: np.ndarray):
        """(gamma*(S/N)*I*exp(-mu*omega), N <= 0) of rows at lag omega."""
        n_w = ((w[..., 0] + w[..., 1]) + w[..., 2]) + w[..., 3]
        inc = self.gamma * (w[..., 0] / n_w) * w[..., 2] * self.decay_w
        return inc, n_w <= 0.0

    def return_term(self, v: np.ndarray) -> np.ndarray:
        """alpha*I*exp(-mu*tau) of rows at lag tau."""
        return self.alpha * v[..., 2] * self.decay_t

    def lagged(self, states: np.ndarray, derivs: np.ndarray, k0: int, k1: int):
        """(incidence, return term, lagged N <= 0) of steps k0 <= k < k1 of
        an (omega, tau) plan: three (stages, k1-k0) arrays whose rows are
        the stages."""
        v = self.rows(states, derivs, k0, k1)
        n = self.n_stages
        inc, lag_zero = self.incidence(v[:n])
        return inc, self.return_term(v[n:]), lag_zero


def _derivative_rows(params: PseirsParams, history: HistoryFunction, h: float,
                     states: np.ndarray, derivs: np.ndarray, k0: int,
                     k1: int) -> None:
    """Fill ``derivs[k0:k1]``, the model rows at the stored states of rows
    k0 <= k < k1 and their stage-1 lookups, with the solver's stage-1
    arithmetic; the rows before k0 must be complete.  Raises
    ZeroPopulation, naming t, at the first row whose current N, or else
    lagged N(t - omega), is <= 0.

    A chunk of ``PLAN_CHUNK`` rows at a time: the undelayed terms of the
    whole chunk first, then a lookup plan and a block schedule per lag.  A
    tau block fills the dS and dR columns of its rows, and the omega blocks
    inside it fill dE and dI, so every lookup reads finished rows."""
    with np.errstate(all="ignore"):
        for c0 in range(k0, k1, PLAN_CHUNK):
            c1 = min(c0 + PLAN_CHUNK, k1)
            w_plan = _LookupPlan(params, history, h, c0, c1, _ROW_STAGES,
                                 (params.omega,))
            t_plan = _LookupPlan(params, history, h, c0, c1, _ROW_STAGES,
                                 (params.tau,))
            mu = w_plan.mu
            s, e, i, r = states[c0:c1].T
            n = s + e + i + r
            zero = n <= 0.0
            inc_now = w_plan.gamma * (s / n) * i
            ds = w_plan.beta * n - mu * s - inc_now
            mu_e, b_i = mu * e, w_plan.b * i
            pa_i, mu_r = w_plan.pa * i, mu * r
            rows = derivs[c0:c1]
            k = kt = c0
            while k < c1:
                if k == kt:
                    kt = t_plan.block_end(k, c1)
                    v = t_plan.rows(states, derivs, k, kt)
                    lt = t_plan.return_term(v)[0]
                    sl = slice(k - c0, kt - c0)
                    rows[sl, 0] = ds[sl] + lt
                    rows[sl, 3] = pa_i[sl] - lt - mu_r[sl]
                kw = w_plan.block_end(k, kt)
                v = w_plan.rows(states, derivs, k, kw)
                lw, lag_zero = w_plan.incidence(v[0])
                sl = slice(k - c0, kw - c0)
                bad = zero[sl] | lag_zero
                if bad.any():
                    m = int(np.argmax(bad))
                    raise _zero_population((k + m) * h, lagged=not zero[sl][m])
                rows[sl, 1] = inc_now[sl] - lw - mu_e[sl]
                rows[sl, 2] = lw - b_i[sl]
                k = kw


def _undershoot(t: float, floor: float, state) -> StepTooLarge:
    name, value = next((n, v) for n, v in zip(PSEIRS_LABELS, state)
                       if v < floor)
    return StepTooLarge(f"compartment {name}={value!r} fell below {floor} "
                        f"at t={t}; reduce the step")


def _checked_kappa(params: PseirsParams, history: HistoryFunction) -> float:
    """kappa(params), once the parameters are valid and the history covers
    [-kappa, 0]; called before any delayed lookup."""
    validate_pseirs(params)
    kap = kappa(params)
    if not history.covers(kap):
        raise InvalidParameter("history", history.domain_start(),
                               f"history must cover [-{kap}, 0]")
    return kap


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
    kap = _checked_kappa(params, history)
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

    n_steps = step_count(horizon, h)
    hh = 0.5 * h
    h6 = h / 6.0
    # a block fills the derivative rows of its steps and the state rows
    # after them
    states = np.zeros((n_steps + 1, 4))
    derivs = np.zeros((n_steps + 1, 4))
    states[0] = (s, e, i, r)
    k0 = 0
    lags = (params.omega, params.tau)
    # numpy stays as quiet as the scalar float arithmetic it replaces
    with np.errstate(all="ignore"):
        plan = _LookupPlan(params, history, h, 0,
                           min(PLAN_CHUNK, n_steps + 1), _RK4_STAGES, lags)
        beta, mu, gamma, b, pa = plan.beta, plan.mu, plan.gamma, plan.b, plan.pa
        while True:
            if k0 == plan.c1:
                plan = _LookupPlan(params, history, h, k0,
                                   min(k0 + PLAN_CHUNK, n_steps + 1),
                                   _RK4_STAGES, lags)
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
        _derivative_rows(params, history, h, states, derivs, n_steps,
                         n_steps + 1)

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
    resolving delayed lookups exactly as the solver did (its lookup plans,
    stage 1 only, one plan per lag), so analyses run on the reconstruction
    match the original run.
    """
    kap = _checked_kappa(params, history)
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    _require(times.ndim == 1 and len(times) >= 2 and times[0] == 0.0,
             "times", None, "uniform grid starting at 0")
    _require(states.shape == (len(times), 4), "states", states.shape,
             "one (S, E, I, R) row per time")
    # times[1] is exactly 1*step as written by the solver, so this recovers
    # the original step bit-for-bit (uniformity is re-checked by Trajectory)
    h = float(times[1] - times[0])
    _require(h > 0 and h <= min(params.omega, params.tau) / 4.0, "step", h,
             "0 < step <= min(omega, tau)/4")

    derivs = np.zeros((len(times), 4))
    _derivative_rows(params, history, h, states, derivs, 0, len(times))

    e_consistent = consistent_initial_exposed(history, params)
    r_consistent = consistent_initial_recovered(history, params)
    override = not (states[0, 1] == e_consistent and
                    states[0, 3] == r_consistent)
    return Trajectory(times=times, states=states, derivs=derivs,
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kap, init_override=override)
