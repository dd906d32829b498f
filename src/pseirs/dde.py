"""Delayed probabilistic SEIRS solver.

The system (four compartments, two constant delays) is

    dS/dt = beta*N - mu*S - gamma*S*I/N + p*alpha*I(t-tau)*exp(-mu*tau)
    dE/dt = gamma*S*I/N - gamma*(S*I/N)(t-omega)*exp(-mu*omega) - mu*E
    dI/dt = gamma*(S*I/N)(t-omega)*exp(-mu*omega) - (mu+epsilon+alpha)*I
    dR/dt = p*alpha*I - p*alpha*I(t-tau)*exp(-mu*tau) - mu*R

integrated by the method of steps with fixed-step RK4 (Bellen & Zennaro,
*Numerical Methods for Delay Differential Equations*, 2003, ch. 3-4).
Every delayed lookup is one cubic Hermite lookup, ``_HermiteLookup``, into
the stored (state, derivative) samples: the solver's RK4 stages,
reconstruction's derivative rows, and the integral forms through
``_eval_raw``.  A time within 1e-9*h of t = 0 reads the stored row 0
(stage times t - lag can miss 0 by about an ulp); left of that it reads
the prescribed history, right of it cell ``int(t/h)``, clamped to the
last cell, with the stored row itself where the cell fraction is 0.
Stage 4 integrates the branch left of any breaking point, so it reads
the history up to t = 1e-9*h (E and R may jump at t = 0 under
consistent init).  The step must not exceed min(omega, tau)/4, so every
stage lookup lands in already-computed territory.

Block method of steps.  The lags are constant, so the six lookups of an
RK4 step (stage 1, the stage-2/3 midpoint and stage 4, at lags omega and
tau) read rows finished earlier.  ``_LookupPlan`` works them out for a
chunk of ``PLAN_CHUNK`` steps, and the steps advance in blocks: a block
starting at step k0 may read cells up to [k0-2, k0-1] (row k0's
derivative is its first stage), about min(omega, tau)/h - 2 steps.  One
gather per block gives the lagged terms of all its steps, and the Python
loop does only the undelayed arithmetic.  Reconstruction
(``_derivative_rows``, which also gives the solver's last derivative row)
needs stage 1 only and has every state up front: per chunk it runs the
undelayed arithmetic once and plans each lag on its own, so only the
omega lookups go a block at a time.

Every bit matches a scalar cubic Hermite lookup taken one at a time (the
tests' reference): numpy does the same IEEE-754 operations in the same
order and fuses no multiply and add, and both decay factors are
``math.exp`` values computed once per run (``_Rates``).

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
from itertools import chain

import numpy as np

from .core import (HistoryFunction, PseirsParams, Trajectory, _require,
                   kappa, negativity_floor, step_count, undershoot)
from .errors import InvalidParameter, OutOfDomain, Overflow, ZeroPopulation
from .quadrature import adaptive_simpson

PSEIRS_LABELS = ("S", "E", "I", "R")

# steps per lookup plan: bounds the plan's memory, not the result
PLAN_CHUNK = 1024


def _zero_population(t: float, lagged: bool = False) -> ZeroPopulation:
    which = "lagged population N(t - omega)" if lagged else "population N"
    return ZeroPopulation(f"{which} reached zero at t={t}; S*I/N is undefined")


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


class _HermiteLookup:
    """Cubic Hermite lookups into the samples at an (m, n) array of times
    ``x``, one per row and column, with the module's conventions: row 0
    within 1e-9*h of t = 0, the history left of it (up to 1e-9*h in a row
    whose ``left`` flag asks for the left limit, read at min(x, 0)), cell
    ``int(x/h)`` clamped to ``last`` right of it, and the stored row itself
    at ``th == 0``.  Each value has the bits of the scalar lookup
    ``((h00*S[j] + h01*S[j+1]) + h10*dS[j]) + h11*dS[j+1]``."""

    def __init__(self, x: np.ndarray, left, h: float,
                 history: HistoryFunction | None, last: int):
        snap = 1e-9 * h  # times t-lag can miss t=0 by ~1 ulp
        hist = np.where(left, x <= snap, x < -snap)
        xs = np.where(x < snap, 0.0, x)  # history lookups get j = 0, th = 0
        # xs >= 0: truncation is int()
        j = np.minimum((xs / h).astype(np.int64), last)
        th = ((xs - j * h) / h)[..., None]  # one weight per (S, E, I, R) row
        t2 = th * th
        t3 = t2 * th
        # axes (row j or j+1, lookup, column, -), as the gathered rows;
        # np.array, not np.stack: 2-3x less overhead per call (numpy 2.4),
        # which shows at the 129-257 nodes of a verifier call
        self.cells = np.array((j, j + 1))
        self.value_weights = np.array((2.0 * t3 - 3.0 * t2 + 1.0,
                                       3.0 * t2 - 2.0 * t3))
        self.slope_weights = np.array(((t3 - 2.0 * t2 + th) * h,
                                       (t3 - t2) * h))
        self.exact = th == 0.0
        self.hist = hist[..., None]
        cols = np.flatnonzero(hist.any(axis=0))
        # no column from hist_end on reads the history: an O(1) test per block
        self.hist_end = int(cols[-1]) + 1 if len(cols) else 0
        if self.hist_end:
            self.hist_rows = np.zeros(x.shape + (4,))
            at = np.where(left & (x > 0.0), 0.0, x)[hist]  # min(x, 0)
            self.hist_rows[hist] = history.rows_at(at)

    def rows(self, states: np.ndarray, derivs: np.ndarray, sl: slice):
        """The (S, E, I, R) rows looked up in columns ``sl`` (a slice with
        a start) of the samples ``states``, ``derivs``: an (m, columns, 4)
        array."""
        cells = self.cells[:, :, sl]
        # take, not fancy indexing: the same rows, 3-5x faster per block
        # (numpy 2.4)
        values = states.take(cells, axis=0)
        a = self.value_weights[:, :, sl] * values
        d = self.slope_weights[:, :, sl] * derivs.take(cells, axis=0)
        v = ((a[0] + a[1]) + d[0]) + d[1]
        np.copyto(v, values[0], where=self.exact[:, sl])
        if sl.start < self.hist_end:
            np.copyto(v, self.hist_rows[:, sl], where=self.hist[:, sl])
        return v


def _eval_raw(traj: Trajectory, x: np.ndarray) -> np.ndarray:
    """(S, E, I, R) rows at an array of times in [-kappa, horizon], read
    through the solver's ``_HermiteLookup`` and its conventions.  Not exact
    at grid points: ``int(t / h)`` can pick the cell left of a grid time,
    whose interpolant misses the stored row by rounding (at 770 of the
    40,001 grid points of the baseline run); the stored rows are exact
    there.  The integral forms read all the nodes of a quadrature level at
    once."""
    x = np.asarray(x, dtype=float)
    h = traj.step
    if len(x):
        lo, hi = float(x.min()), float(x.max())
        if lo < -1e-9 * h and (traj.history is None or lo < -traj.kappa):
            raise OutOfDomain(f"t={lo} outside [-{traj.kappa}, {traj.horizon}]")
        if not hi <= traj.times[-1] + 1e-9 * h:  # NaN fails too
            raise OutOfDomain(f"t={hi} beyond the last computed sample "
                              f"{traj.times[-1]}")
    lookup = _HermiteLookup(x[None], False, h, traj.history,
                            len(traj.times) - 2)
    return lookup.rows(traj.states, traj.derivs, slice(0, len(x)))[0]


def default_step(params: PseirsParams) -> float:
    return min(params.omega, params.tau, 1.0) / 20.0


# Lookup stages as (offset in steps, left limit): RK4's stage 1, its
# stage-2/3 midpoint and stage 4 for the solver; stage 1 alone for a
# derivative row.
_RK4_STAGES = ((0.0, False), (0.5, False), (1.0, True))
_ROW_STAGES = _RK4_STAGES[:1]


class _LookupPlan(_HermiteLookup):
    """The delayed lookups of steps c0 <= k < c1 in columns k - c0: for
    each of ``lags`` in turn, one for each of ``stages``, at
    t = k*h + offset*h - lag; and the block schedule over them.  The solver
    plans (omega, tau), reconstruction each lag on its own.  The clamp to
    cell ``last`` never fires: every lag is at least 4 steps."""

    def __init__(self, history: HistoryFunction, h: float, last: int,
                 c0: int, c1: int, stages: tuple, lags: tuple):
        t = np.arange(c0, c1, dtype=float) * h
        ts = [t + offset * h for offset, _ in stages]
        x = np.stack([u - lag for lag in lags for u in ts])
        left = np.array([lim for _, lim in stages] * len(lags))[:, None]
        super().__init__(x, left, h, history, last)
        self.c0, self.c1 = c0, c1
        # the newest row a step reads; non-decreasing in k, so a block is
        # a bisection
        self.need = np.where(self.hist[..., 0], -1,
                             self.cells[1]).max(axis=0).tolist()

    def block_end(self, k0: int, stop: int) -> int:
        """End of the block starting at k0: its lookups read rows <= k0-1.
        Lags of >= 4 steps keep step k0 itself in the block."""
        c0 = self.c0
        return min(bisect_right(self.need, k0 - 1, k0 - c0) + c0, stop)


class _Rates:
    """The model's delays and rate constants, worked out once per run, and
    its two delayed terms of looked-up rows."""

    def __init__(self, params: PseirsParams):
        self.omega, self.tau = params.omega, params.tau
        self.beta, self.mu, self.gamma = params.beta, params.mu, params.gamma
        self.b = params.mu + params.epsilon + params.alpha
        self.pa = params.p * params.alpha
        self.decay_w = math.exp(-params.mu * params.omega)
        self.decay_t = math.exp(-params.mu * params.tau)

    def incidence(self, w: np.ndarray):
        """(gamma*(S/N)*I*exp(-mu*omega), N <= 0) of rows at lag omega."""
        n_w = ((w[..., 0] + w[..., 1]) + w[..., 2]) + w[..., 3]
        inc = self.gamma * (w[..., 0] / n_w) * w[..., 2] * self.decay_w
        return inc, n_w <= 0.0

    def return_term(self, v: np.ndarray) -> np.ndarray:
        """p*alpha*I*exp(-mu*tau) of rows at lag tau."""
        return self.pa * v[..., 2] * self.decay_t


def _derivative_rows(rates: _Rates, history: HistoryFunction, h: float,
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
    last = len(states) - 2
    mu = rates.mu
    with np.errstate(all="ignore"):
        for c0 in range(k0, k1, PLAN_CHUNK):
            c1 = min(c0 + PLAN_CHUNK, k1)
            w_plan = _LookupPlan(history, h, last, c0, c1, _ROW_STAGES,
                                 (rates.omega,))
            t_plan = _LookupPlan(history, h, last, c0, c1, _ROW_STAGES,
                                 (rates.tau,))
            s, e, i, r = states[c0:c1].T
            n = s + e + i + r
            zero = n <= 0.0
            inc_now = rates.gamma * (s / n) * i
            ds = rates.beta * n - mu * s - inc_now
            mu_e, b_i = mu * e, rates.b * i
            pa_i, mu_r = rates.pa * i, mu * r
            rows = derivs[c0:c1]
            k = kt = c0
            while k < c1:
                if k == kt:
                    kt = t_plan.block_end(k, c1)
                    sl = slice(k - c0, kt - c0)
                    lt = rates.return_term(t_plan.rows(states, derivs, sl))[0]
                    rows[sl, 0] = ds[sl] + lt
                    rows[sl, 3] = pa_i[sl] - lt - mu_r[sl]
                kw = w_plan.block_end(k, kt)
                sl = slice(k - c0, kw - c0)
                lw, zero_w = rates.incidence(w_plan.rows(states, derivs, sl)[0])
                bad = zero[sl] | zero_w
                if bad.any():
                    m = int(np.argmax(bad))
                    raise _zero_population((k + m) * h, lagged=not zero[sl][m])
                rows[sl, 1] = inc_now[sl] - lw - mu_e[sl]
                rows[sl, 2] = lw - b_i[sl]
                k = kw


def _checked_kappa(params: PseirsParams, history: HistoryFunction,
                   h: float) -> float:
    """kappa(params), once the step h is at most min(omega, tau)/4 and the
    history covers [-kappa, 0]; called before any delayed lookup.  The
    parameters need no check here: a PseirsParams is valid once built."""
    _require(0 < h <= min(params.omega, params.tau) / 4.0, "step", h,
             "0 < step <= min(omega, tau)/4")
    kap = kappa(params)
    if not history.covers(kap):
        raise InvalidParameter("history", history.domain_start(),
                               f"history must cover [-{kap}, 0]")
    return kap


def simulate_pseirs(params: PseirsParams, history: HistoryFunction,
                    horizon: float, step: float | None = None, *,
                    e0: float | None = None,
                    r0: float | None = None, rows_out=None) -> Trajectory:
    """Integrate the delayed system from the given history.

    S(0) and I(0) come from the history at t=0; E(0) and R(0) come from the
    consistency integrals unless ``e0``/``r0`` override them.  ``rows_out``,
    if given, is called with the state rows as they are finished, in
    order: row 0, then the rows of each block of steps.  Aborts with
    ``undershoot``'s StepTooLarge when a compartment falls below the
    ``negativity_floor`` of row 0, with ZeroPopulation, naming t, at the
    first stage whose current or lagged population N is <= 0, and with
    Overflow, naming t and the compartment, at the first state that is not
    finite.
    """
    h = float(default_step(params) if step is None else step)
    kap = _checked_kappa(params, history, h)
    _require(horizon >= h, "horizon", horizon, "horizon >= step")
    n_steps = step_count(horizon, h)

    override = e0 is not None or r0 is not None
    e_init = consistent_initial_exposed(history, params) if e0 is None else e0
    r_init = consistent_initial_recovered(history, params) if r0 is None else r0
    s0_t = history.rows_at(np.zeros(1))[0].tolist()
    # Python floats: the same bits as numpy scalars, faster in the loop
    s, e, i, r = s0_t[0], float(e_init), s0_t[2], float(r_init)
    floor = negativity_floor((s, e, i, r))

    hh = 0.5 * h
    h6 = h / 6.0
    # a block fills the derivative rows of its steps and the state rows
    # after them
    states = np.zeros((n_steps + 1, 4))
    derivs = np.zeros((n_steps + 1, 4))
    states[0] = (s, e, i, r)
    if rows_out is not None:
        rows_out(states[:1])
    k0 = 0
    rates = _Rates(params)
    beta, mu, gamma, b, pa = rates.beta, rates.mu, rates.gamma, rates.b, rates.pa
    lags = (params.omega, params.tau)
    # numpy stays as quiet as the scalar float arithmetic it replaces
    with np.errstate(all="ignore"):
        plan = _LookupPlan(history, h, n_steps - 1, 0,
                           min(PLAN_CHUNK, n_steps + 1), _RK4_STAGES, lags)
        while True:
            if k0 == plan.c1:
                plan = _LookupPlan(history, h, n_steps - 1, k0,
                                   min(k0 + PLAN_CHUNK, n_steps + 1),
                                   _RK4_STAGES, lags)
            if k0 == n_steps:
                break
            k1 = plan.block_end(k0, min(plan.c1, n_steps))
            # rows: the three RK4 stages at lag omega, then at lag tau
            v = plan.rows(states, derivs, slice(k0 - plan.c0, k1 - plan.c0))
            inc, zero = rates.incidence(v[:3])
            ret = rates.return_term(v[3:])
            # NaN lagged terms wherever lagged N <= 0 make every state NaN
            # from the first on: no later check fires before the raise
            if lagged_zero := zero.any():
                inc[zero] = ret[zero] = math.nan
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
                    raise undershoot((k0 + len(out) // 8 + 1) * h, floor,
                                     PSEIRS_LABELS, (s, e, i, r))
                out += (d1s, d1e, d1i, d1r, s, e, i, r)
            if lagged_zero:  # at the first in (step, stage) order
                k, stage = divmod(int(np.argmax(zero.T)), 3)
                raise _zero_population((k0 + k) * h + (0.0, hh, h)[stage],
                                       lagged=True)
            block = np.fromiter(out, float, len(out)).reshape(-1, 8)
            derivs[k0:k1] = block[:, :4]
            states[k0 + 1:k1 + 1] = block[:, 4:]
            if rows_out is not None:
                rows_out(states[k0 + 1:k1 + 1])
            k0 = k1

        # inf and NaN pass every check above; one pass per run finds the
        # first state past float64's range
        finite = np.isfinite(states)
        if not finite.all():
            k, col = divmod(int(np.argmin(finite)), 4)
            raise Overflow(f"compartment {PSEIRS_LABELS[col]}="
                           f"{float(states[k, col])!r} is not finite at "
                           f"t={k * h}; it exceeded float64's range")
        # the derivative row of the last sample: stage 1 of a step not taken
        _derivative_rows(rates, history, h, states, derivs, n_steps,
                         n_steps + 1)

    times = np.arange(n_steps + 1, dtype=float) * h
    # copies made after the solve: holding the arrays allocated before the
    # lookup plans left more of the heap resident (median peak RSS of the
    # analyze_stored benchmark, whose set-up solves: 62.6 MB, 59.6 with copies)
    return Trajectory(times=times, states=states.copy(), derivs=derivs.copy(),
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kap, init_override=override)


def reconstruct_trajectory(params: PseirsParams, history: HistoryFunction,
                           times: np.ndarray, states: np.ndarray, *,
                           rows_in=None) -> Trajectory:
    """Rebuild a full Trajectory (including derivative samples) from stored
    state samples, e.g. a trajectory CSV written by an earlier run.

    Derivatives are recomputed by evaluating the model rows at every sample,
    resolving delayed lookups exactly as the solver did (its lookup plans,
    stage 1 only, one plan per lag), so analyses run on the reconstruction
    match the original run.

    ``rows_in``, if given, is the source that fills ``times`` and
    ``states`` in order during the reconstruction, the mirror of the
    solvers' ``rows_out``: an iterable of how many leading rows hold their
    values, at least 2 at first and all of them at last.  The derivative
    rows up to each count are rebuilt as soon as it arrives, with the
    bits of one pass, since a row reads only earlier rows.  Whatever
    ``rows_in`` raises propagates.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    filled = iter(() if rows_in is None else rows_in)
    first = next(filled, None)  # None: every row holds its values
    _require(times.ndim == 1 and len(times) >= 2 and times[0] == 0.0,
             "times", None, "uniform grid starting at 0")
    _require(states.shape == (len(times), 4), "states", states.shape,
             "one (S, E, I, R) row per time")
    # times[1] is exactly 1*step as written by the solver, so this recovers
    # the original step bit-for-bit (uniformity is re-checked by Trajectory)
    h = float(times[1] - times[0])
    kap = _checked_kappa(params, history, h)

    derivs = np.zeros((len(times), 4))
    rates = _Rates(params)
    done = 0
    for upto in chain((len(times) if first is None else first,), filled):
        _derivative_rows(rates, history, h, states, derivs, done, upto)
        done = upto

    e_consistent = consistent_initial_exposed(history, params)
    r_consistent = consistent_initial_recovered(history, params)
    override = not (states[0, 1] == e_consistent and
                    states[0, 3] == r_consistent)
    return Trajectory(times=times, states=states, derivs=derivs,
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kap, init_override=override)
