"""Delayed probabilistic SEIRS solver.

The system (four compartments, two constant delays) is

    dS/dt = beta*N - mu*S - gamma*S*I/N + alpha*I(t-tau)*exp(-mu*tau)
    dE/dt = gamma*S*I/N - gamma*(S*I/N)(t-omega)*exp(-mu*omega) - mu*E
    dI/dt = gamma*(S*I/N)(t-omega)*exp(-mu*omega) - (mu+epsilon+alpha)*I
    dR/dt = p*alpha*I - alpha*I(t-tau)*exp(-mu*tau) - mu*R

integrated by the method of steps with fixed-step RK4.  Delayed lookups
resolve through the prescribed history for t < 0 and through cubic Hermite
interpolation of the stored (state, derivative) samples for t >= 0.  The
step must not exceed min(omega, tau)/4 so that every stage lookup lands in
already-computed territory.

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
from typing import NamedTuple

import numpy as np

from .core import (CompartmentState, ConstantHistory, HistoryFunction,
                   PseirsParams, Trajectory, _require, kappa, validate_pseirs)
from .errors import InvalidParameter, OutOfDomain, StepTooLarge, ZeroPopulation
from .quadrature import adaptive_simpson

PSEIRS_LABELS = ("S", "E", "I", "R")


class DerivativeSample(NamedTuple):
    ds: float
    de: float
    di: float
    dr: float


def _pseirs_rhs(s, e, i, r, s_w, e_w, i_w, r_w, i_tau,
            beta, mu, epsilon, alpha, gamma, p, decay_w, decay_t):
    """The four derivative rows; single source of truth for the solver and
    for pseirs_derivatives.  decay_w/decay_t are exp(-mu*omega)/exp(-mu*tau)."""
    n = s + e + i + r
    n_w = s_w + e_w + i_w + r_w
    if n <= 0.0 or n_w <= 0.0:
        raise ZeroPopulation("population reached zero; S*I/N is undefined")
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
    """Evaluate the four rows at one point given the two lagged states."""
    decay_w = math.exp(-params.mu * params.omega)
    decay_t = math.exp(-params.mu * params.tau)
    return DerivativeSample(*_pseirs_rhs(
        now.s, now.e, now.i, now.r,
        at_lag_omega.s, at_lag_omega.e, at_lag_omega.i, at_lag_omega.r,
        at_lag_tau.i,
        params.beta, params.mu, params.epsilon, params.alpha, params.gamma,
        params.p, decay_w, decay_t))


def _exposed_integrand(at, t: float, params: PseirsParams):
    """Integrand of E(t) over [t-omega, t], reading states through ``at``;
    consistent init (t = 0) and the integro module share it."""
    gamma, mu = params.gamma, params.mu

    def f(x):
        s, e, i, r = at(x)
        if s == 0.0 or i == 0.0 or gamma == 0.0:
            return 0.0
        return gamma * (s / (s + e + i + r)) * i * math.exp(-mu * (t - x))

    return f


def _recovered_integrand(at, t: float, params: PseirsParams):
    """Integrand of R(t) over [t-tau, t], shared like the one of E(t)."""
    p, alpha, mu = params.p, params.alpha, params.mu

    def f(x):
        return p * alpha * at(x)[2] * math.exp(-mu * (t - x))

    return f


def consistent_initial_exposed(history: HistoryFunction,
                               params: PseirsParams) -> float:
    """E(0) integral of the history over [-omega, 0]."""
    return adaptive_simpson(_exposed_integrand(history.raw_at, 0.0, params),
                            -params.omega, 0.0)


def consistent_initial_recovered(history: HistoryFunction,
                                 params: PseirsParams) -> float:
    """R(0) integral of the history over [-tau, 0]."""
    return adaptive_simpson(_recovered_integrand(history.raw_at, 0.0, params),
                            -params.tau, 0.0)


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


def _eval_raw(traj: Trajectory, t: float) -> tuple[float, float, float, float]:
    """(S, E, I, R) anywhere in [-kappa, horizon]: history on the left,
    Hermite interpolant of the stored samples on the right.

    Not an exact lookup at grid points: ``int(t / h)`` can pick the cell to
    the left of a grid time, and the interpolant then misses the stored row
    by rounding (at 770 of the 40,001 grid points of the baseline run).
    ``history_eval`` is the exact lookup.  This one does not snap to the
    grid because the quadrature of the integro module calls it for every
    integrand evaluation: snapping to the grid made
    ``verify_integral_equivalence`` 12 to 22% slower (CPython 3.11, 2-core
    Xeon)."""
    if t < 0.0:
        if traj.history is None or t < -traj.kappa:
            raise OutOfDomain(f"t={t} outside [-{traj.kappa}, {traj.horizon}]")
        return traj.history.raw_at(t)
    times = traj.times
    h = traj.step
    if t > times[-1] + 1e-9 * h:
        raise OutOfDomain(f"t={t} beyond the last computed sample {times[-1]}")
    j = int(t / h)
    if j > len(times) - 2:
        j = len(times) - 2
    th = (t - j * h) / h
    st, dv = traj.states, traj.derivs
    return _interp4(j, th, h, st[:, 0], st[:, 1], st[:, 2], st[:, 3],
                    dv[:, 0], dv[:, 1], dv[:, 2], dv[:, 3])


def history_eval(traj: Trajectory, t: float) -> CompartmentState:
    """Evaluate a four-compartment trajectory (or its history) at time t."""
    _require(len(traj.labels) == 4, "trajectory", traj.labels,
             "four-compartment trajectory required")
    if 0.0 <= t <= traj.horizon:
        j = int(round(t / traj.step))
        if 0 <= j < len(traj.times) and traj.times[j] == t:
            row = traj.states[j]
            return CompartmentState(row[0], row[1], row[2], row[3])
    return CompartmentState(*_eval_raw(traj, t))


def default_step(params: PseirsParams) -> float:
    return min(params.omega, params.tau, 1.0) / 20.0


def _delayed_rows(params: PseirsParams, history: HistoryFunction, h: float,
                  Ss: list, Es: list, Is: list, Rs: list):
    """Lookup-and-derivative core of the solver and of reconstruction, over
    state columns sampled every ``h`` from t=0 (the solver appends to them).

    Returns ``(rates, past, past_left, derivative_at, derivs)``: the rate
    constants in ``_pseirs_rhs`` order, the lagged-state lookups, a
    ``derivative_at(k, s, e, i, r)`` that evaluates the rows at t = k*h and
    appends them to ``derivs``, and those four derivative columns.
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
        # both callers keep every lag >= 4 steps, so rows j and j+1 and
        # their derivatives are already computed: no clamp is needed
        j = int(x / h)
        return _interp4(j, (x - j * h) / h, h, Ss, Es, Is, Rs,
                        dSs, dEs, dIs, dRs)

    def past_left(x):
        # Right-endpoint stages integrate the branch left of any breaking
        # point, so a lookup landing on t=0 must see the history (E and R
        # may jump there under consistent initialization).
        if x <= snap:
            return hist_raw(min(x, 0.0))
        return past(x)

    def derivative_at(k, s, e, i, r):
        t = k * h
        lw = past(t - om)
        lt = past(t - tau)
        d = _pseirs_rhs(s, e, i, r, lw[0], lw[1], lw[2], lw[3], lt[2],
                        beta, mu, eps, alpha, gamma, p, decay_w, decay_t)
        dSs.append(d[0]); dEs.append(d[1]); dIs.append(d[2]); dRs.append(d[3])
        return d

    rates = (beta, mu, eps, alpha, gamma, p, decay_w, decay_t)
    return rates, past, past_left, derivative_at, (dSs, dEs, dIs, dRs)


def simulate_pseirs(params: PseirsParams, history: HistoryFunction,
                    horizon: float, step: float | None = None, *,
                    e0: float | None = None,
                    r0: float | None = None) -> Trajectory:
    """Integrate the delayed system from the given history.

    S(0) and I(0) come from the history at t=0; E(0) and R(0) come from the
    consistency integrals unless ``e0``/``r0`` override them.  Aborts with
    StepTooLarge when a compartment undershoots -1e-9*N(0) (no clamping:
    a clamp would silently break the population-balance identity) and with
    ZeroPopulation when N reaches zero.
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
    e_init = consistent_initial_exposed(history, params) if e0 is None else float(e0)
    r_init = consistent_initial_recovered(history, params) if r0 is None else float(r0)
    s0_t = history.raw_at(0.0)
    s, e, i, r = s0_t[0], e_init, s0_t[2], r_init
    n0 = s + e + i + r
    if n0 <= 0.0:
        raise ZeroPopulation("initial population is zero")
    floor = -1e-9 * n0

    Ss, Es, Is, Rs = [s], [e], [i], [r]
    rates, past, past_left, derivative_at, derivs = _delayed_rows(
        params, history, h, Ss, Es, Is, Rs)
    beta, mu, eps, alpha, gamma, p, decay_w, decay_t = rates
    om, tau = params.omega, params.tau
    rhs = _pseirs_rhs
    n_steps = int(math.ceil(horizon / h - 1e-12))
    hh = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        t = k * h
        d1 = derivative_at(k, s, e, i, r)
        tm = t + hh
        lw2 = past(tm - om)
        lt2 = past(tm - tau)
        d2 = rhs(s + hh * d1[0], e + hh * d1[1], i + hh * d1[2], r + hh * d1[3],
                 lw2[0], lw2[1], lw2[2], lw2[3], lt2[2],
                 beta, mu, eps, alpha, gamma, p, decay_w, decay_t)
        d3 = rhs(s + hh * d2[0], e + hh * d2[1], i + hh * d2[2], r + hh * d2[3],
                 lw2[0], lw2[1], lw2[2], lw2[3], lt2[2],
                 beta, mu, eps, alpha, gamma, p, decay_w, decay_t)
        te = t + h
        lw4 = past_left(te - om)
        lt4 = past_left(te - tau)
        d4 = rhs(s + h * d3[0], e + h * d3[1], i + h * d3[2], r + h * d3[3],
                 lw4[0], lw4[1], lw4[2], lw4[3], lt4[2],
                 beta, mu, eps, alpha, gamma, p, decay_w, decay_t)
        s += h6 * (d1[0] + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
        e += h6 * (d1[1] + 2.0 * d2[1] + 2.0 * d3[1] + d4[1])
        i += h6 * (d1[2] + 2.0 * d2[2] + 2.0 * d3[2] + d4[2])
        r += h6 * (d1[3] + 2.0 * d2[3] + 2.0 * d3[3] + d4[3])
        if s < floor or e < floor or i < floor or r < floor:
            raise StepTooLarge(
                f"compartment below {floor} at t={(k + 1) * h}; reduce the step")
        Ss.append(s); Es.append(e); Is.append(i); Rs.append(r)
    derivative_at(n_steps, s, e, i, r)

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times,
                      states=np.column_stack([Ss, Es, Is, Rs]),
                      derivs=np.column_stack(derivs),
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
    *_, derivative_at, derivs = _delayed_rows(params, history, h, Ss, Es, Is, Rs)
    for k in range(len(Ss)):
        derivative_at(k, Ss[k], Es[k], Is[k], Rs[k])

    e_consistent = consistent_initial_exposed(history, params)
    r_consistent = consistent_initial_recovered(history, params)
    override = not (Es[0] == e_consistent and Rs[0] == r_consistent)
    return Trajectory(times=times, states=states,
                      derivs=np.column_stack(derivs),
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kappa(params), init_override=override)
