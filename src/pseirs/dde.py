"""Delayed probabilistic SEIRS solver.

The system (four compartments, two constant delays) is

    dS/dt = beta*N - mu*S - gamma*S*I/N + p*alpha*I(t-tau)*exp(-mu*tau)
    dE/dt = gamma*S*I/N - gamma*(S*I/N)(t-omega)*exp(-mu*omega) - mu*E
    dI/dt = gamma*(S*I/N)(t-omega)*exp(-mu*omega) - (mu+epsilon+alpha)*I
    dR/dt = p*alpha*I - p*alpha*I(t-tau)*exp(-mu*tau) - mu*R

integrated by the method of steps with fixed-step RK4 on a mesh of step h
(Bellen & Zennaro, *Numerical Methods for Delay Differential Equations*,
2003, ch. 3-4).  Both lags are constant, so every delayed lookup of step k
lands at the same cell offset m and fraction th for all k (``_cell``):
fraction a for RK4's stages 1 and 4, b for its stage-2/3 midpoint.  Entry
n of a fraction reads the history below n = m, else the cubic Hermite
interpolant of the stored (state, derivative) rows of cell [n - m, n - m
+ 1] at th, or the stored row itself where th is 0.  A lag within 1e-9
steps of the grid, as in every shipped config, has th 0 for a and 0.5 for
b, the cell midpoint.  Stage 4 integrates the branch left of the breaking
point t = 0, so where its entry is row 0 it reads the history at t = 0 (E
and R may jump there under consistent init).  The step is at most
min(omega, tau)/4, so every entry is finished before a step reads it.

The solver's scalar RK4 loop appends each lag's delayed term at both
fractions to a Python list once a cell is finished (its right row's
stage-1 derivative known): the incidence gamma*(S/N)*I*exp(-mu*omega) at
lag omega, the return term p*alpha*I*exp(-mu*tau) at lag tau.  Step k
reads entry k, with no numpy call in the loop, in chunks of ``CHUNK``
steps, each stored with one ``np.fromiter`` before the entries it read
are dropped.  Reconstruction (``_derivative_rows``, also the solver's row
0) reads the same stage-1 entries with whole-array numpy and the same
bits: numpy does the same IEEE-754 operations in the same order and fuses
no multiply and add.

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
from itertools import chain, islice

import numpy as np

from .core import (HistoryFunction, PseirsParams, Trajectory, _require,
                   kappa, negativity_floor, step_count, undershoot)
from .errors import InvalidParameter, Overflow, ZeroPopulation
from .quadrature import adaptive_simpson

PSEIRS_LABELS = ("S", "E", "I", "R")

# steps per chunk of the solver's loop: bounds the lag caches and the rows
# held before they are stored, not the result
CHUNK = 1024


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


def _weights(th, h: float) -> tuple:
    """The cubic Hermite weights (h00, h01, h10, h11) at cell fraction th
    (a float or an array) of a cell h wide."""
    t2 = th * th
    t3 = t2 * th
    return (2.0 * t3 - 3.0 * t2 + 1.0, 3.0 * t2 - 2.0 * t3,
            (t3 - 2.0 * t2 + th) * h, (t3 - t2) * h)


def _eval_raw(traj: Trajectory, x: np.ndarray) -> np.ndarray:
    """(S, E, I, R) rows at an array of times in [0, horizon], which the
    callers check: row 0 within 1e-9*h of t = 0, else cell ``int(x/h)``,
    clamped to the last cell, read as ``((h00*S[j] + h01*S[j+1]) +
    h10*dS[j]) + h11*dS[j+1]`` or the stored row itself at fraction 0.
    Not exact at grid points: ``int(t / h)`` can pick the cell left of
    one, off the stored row by rounding (770 of the 40,001 grid points of
    the baseline run)."""
    x = np.asarray(x, dtype=float)
    h, states, derivs = traj.step, traj.states, traj.derivs
    snap = 1e-9 * h  # times t-lag can miss t=0 by ~1 ulp
    xs = np.where(x < snap, 0.0, x)
    j = np.minimum((xs / h).astype(np.int64), len(traj.times) - 2)  # xs >= 0
    th = ((xs - j * h) / h)[:, None]  # one weight per (S, E, I, R)
    h00, h01, h10, h11 = _weights(th, h)
    v = (((h00 * states[j] + h01 * states[j + 1]) + h10 * derivs[j])
         + h11 * derivs[j + 1])
    np.copyto(v, states[j], where=th == 0.0)
    return v


def default_step(params: PseirsParams) -> float:
    return min(params.omega, params.tau, 1.0) / 20.0


def _cell(steps: float, offset: float, lag: float) -> tuple:
    """(m, th, offset, lag) of a lookup ``steps`` steps back: entry n, at
    t = n*h + offset*h - lag, reads cell n - m at fraction th in [0, 1).
    Within 1e-9 of a whole number of steps, where t - lag misses a grid
    time by rounding, th is 0: the stored row itself."""
    m = round(steps)
    if abs(steps - m) <= 1e-9:
        return m, 0.0, offset, lag
    m = math.ceil(steps)
    return m, m - steps, offset, lag


def _fractions(lag: float, h: float) -> tuple:
    """(a, b): the ``_cell`` of entry n at t = n*h - lag, and of the
    midpoint half a step later."""
    m, th, *_ = a = _cell(lag / h, 0.0, lag)
    return a, _cell(m - th - 0.5, 0.5, lag)


class _Rates:
    """The lags (``_fractions``) and rate constants at step h, worked out
    once per run, the history, and the two delayed terms of rows."""

    def __init__(self, params: PseirsParams, h: float,
                 history: HistoryFunction):
        self.h, self.history = h, history
        self.lags = (_fractions(params.omega, h), _fractions(params.tau, h))
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

    def entries(self, cell: tuple, states: np.ndarray, derivs: np.ndarray,
                n0: int, n1: int) -> np.ndarray:
        """The (S, E, I, R) rows of entries n0 <= n < n1 of a ``_cell``;
        the rows they read must be finished."""
        (m, th, offset, lag), h = cell, self.h
        rows = np.empty((n1 - n0, 4))
        c = min(max(n0, m), n1)  # entries below m read the history
        if n0 < c:
            rows[:c - n0] = self.history.rows_at(np.arange(n0, c) * h
                                                 + offset * h - lag)
        j0, j1 = c - m, n1 - m
        if th == 0.0:
            rows[c - n0:] = states[j0:j1]
        else:
            h00, h01, h10, h11 = _weights(th, h)
            rows[c - n0:] = (((h00 * states[j0:j1] + h01 * states[j0 + 1:j1 + 1])
                              + h10 * derivs[j0:j1]) + h11 * derivs[j0 + 1:j1 + 1])
        return rows


def _derivative_rows(rates: _Rates, states: np.ndarray, derivs: np.ndarray,
                     n_rows: int) -> None:
    """Fill ``derivs[:n_rows]``, the model rows at the stored states of the
    first ``n_rows`` rows and their stage-1 entries, with the solver's
    stage-1 arithmetic.  Raises ZeroPopulation, naming t, at the first row
    whose current N, or else lagged N(t - omega), is <= 0.  All the rows at
    once where both fractions a are 0 (the entries read stored states
    only), else blocks of m - 1 rows for the least offset m of a lag off
    the grid, whose entries read the derivative rows of earlier blocks."""
    (wa, _), (ta, _) = rates.lags
    block = min([m - 1 for m, th, *_ in (wa, ta) if th] or [n_rows])
    mu = rates.mu
    with np.errstate(all="ignore"):
        for c0 in range(0, n_rows, block):
            c1 = min(c0 + block, n_rows)
            s, e, i, r = states[c0:c1].T
            n = s + e + i + r
            zero = n <= 0.0
            inc_now = rates.gamma * (s / n) * i
            lw, zero_w = rates.incidence(rates.entries(wa, states, derivs, c0, c1))
            lt = rates.return_term(rates.entries(ta, states, derivs, c0, c1))
            bad = zero | zero_w
            if bad.any():
                m = int(np.argmax(bad))
                raise _zero_population((c0 + m) * rates.h, lagged=not zero[m])
            rows = derivs[c0:c1]
            rows[:, 0] = rates.beta * n - mu * s - inc_now + lt
            rows[:, 1] = inc_now - lw - mu * e
            rows[:, 2] = lw - rates.b * i
            rows[:, 3] = rates.pa * i - lt - mu * r


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

    The step and the grid are checked first, by ``_checked_kappa`` and
    ``step_count``.  S(0) and I(0) come from the history at t=0; E(0) and
    R(0) come from the consistency integrals unless ``e0``/``r0`` override
    them.  ``rows_out``, if given, is called with the state rows as they are
    finished, in order: row 0, then the rows of each chunk of steps.  Aborts
    with ``undershoot``'s StepTooLarge when a compartment falls below the
    ``negativity_floor`` of row 0, with ZeroPopulation, naming t, at the first
    stage whose current or lagged population N is <= 0, and with Overflow,
    naming t and the compartment, at the first state that is not finite.
    """
    h = float(default_step(params) if step is None else step)
    kap = _checked_kappa(params, history, h)
    n_steps = step_count(horizon, h)

    override = e0 is not None or r0 is not None
    e_init = consistent_initial_exposed(history, params) if e0 is None else e0
    r_init = consistent_initial_recovered(history, params) if r0 is None else r0
    hist0 = history.rows_at(np.zeros(1))
    # Python floats: the same bits as numpy scalars, faster in the loop
    s, e, i, r = hist0[0, 0].item(), float(e_init), hist0[0, 2].item(), float(r_init)
    floor = negativity_floor((s, e, i, r))

    hh, h6 = 0.5 * h, h / 6.0
    states = np.zeros((n_steps + 1, 4))
    derivs = np.zeros((n_steps + 1, 4))
    states[0] = (s, e, i, r)
    if rows_out is not None:
        rows_out(states[:1])
    rates = _Rates(params, h, history)
    beta, mu, gamma, b, pa = rates.beta, rates.mu, rates.gamma, rates.b, rates.pa
    dw, dt = rates.decay_w, rates.decay_t
    (wa, wb), (ta, tb) = rates.lags
    # numpy stays as quiet as the scalar float arithmetic it replaces
    with np.errstate(all="ignore"):
        # row 0's derivative row, stage 1 of step 0, checks its populations
        _derivative_rows(rates, states, derivs, 1)

        def entries(cell):  # the history's, up to entry n_steps
            return rates.entries(cell, states, derivs, 0,
                                 min(cell[0], n_steps + 1))

        def omega_terms(rows):  # None where the lagged N is <= 0
            inc, zero = rates.incidence(rows)
            return np.where(zero, None, inc).tolist()

        caches = (omega_terms(entries(wa)), omega_terms(entries(wb)),
                  rates.return_term(entries(ta)).tolist(),
                  rates.return_term(entries(tb)).tolist())
        inc_a, inc_b, ret_a, ret_b = caches
        # where stage 4's entry is row 0, at step p, it reads the history's
        # left limit at t = 0
        (left,), p = omega_terms(hist0), wa[0] - 1 if wa[1] == 0.0 else -1
        # each fraction: its Hermite weights, or the row itself (th = 0)
        wa0, wa1, wa2, wa3 = _weights(wa[1], h)
        wb0, wb1, wb2, wb3 = _weights(wb[1], h)
        ta0, ta1, ta2, ta3 = _weights(ta[1], h)
        tb0, tb1, tb2, tb3 = _weights(tb[1], h)
        wa_row, wb_row, ta_row, tb_row = (c[1] == 0.0 for c in (wa, wb, ta, tb))
        wa_add, wb_add, ta_add, tb_add = (c.append for c in caches)

        ds, de, di, dr = derivs[0].tolist()
        inc, pai = gamma * (s / (s + e + i + r)) * i, pa * i  # row 0's terms
        k0 = done = 0
        while k0 < n_steps:
            k1 = min(k0 + CHUNK, n_steps)
            for cache in caches:
                del cache[:k0 - done]  # the entries before k0 are read
            done = k0
            # entry k for stages 2 and 3 of step k, entry k+1 for its stage
            # 4 and for stage 1 of step k+1
            a4 = islice(inc_a, 1, None)
            if k0 <= p < k1:
                a4 = chain(islice(inc_a, 1, p - k0 + 1), (left,),
                           islice(inc_a, p - k0 + 2, None))
            out = []
            try:
                for lwm, lw4, lw1, ltm, lt1 in islice(
                        zip(inc_b, a4, islice(inc_a, 1, None), ret_b,
                            islice(ret_a, 1, None)), k1 - k0):
                    s2 = s + hh * ds
                    e2 = e + hh * de
                    i2 = i + hh * di
                    r2 = r + hh * dr
                    n = s2 + e2 + i2 + r2
                    if n <= 0.0:
                        raise _zero_population((k0 + len(out) // 8) * h + hh)
                    inc2 = gamma * (s2 / n) * i2
                    d2s = beta * n - mu * s2 - inc2 + ltm
                    d2e = inc2 - lwm - mu * e2
                    d2i = lwm - b * i2
                    d2r = pa * i2 - ltm - mu * r2
                    s2 = s + hh * d2s
                    e2 = e + hh * d2e
                    i2 = i + hh * d2i
                    r2 = r + hh * d2r
                    n = s2 + e2 + i2 + r2
                    if n <= 0.0:
                        raise _zero_population((k0 + len(out) // 8) * h + hh)
                    inc2 = gamma * (s2 / n) * i2
                    d3s = beta * n - mu * s2 - inc2 + ltm
                    d3e = inc2 - lwm - mu * e2
                    d3i = lwm - b * i2
                    d3r = pa * i2 - ltm - mu * r2
                    s2 = s + h * d3s
                    e2 = e + h * d3e
                    i2 = i + h * d3i
                    r2 = r + h * d3r
                    n = s2 + e2 + i2 + r2
                    if n <= 0.0:
                        raise _zero_population((k0 + len(out) // 8) * h + h)
                    inc2 = gamma * (s2 / n) * i2
                    d4s = beta * n - mu * s2 - inc2 + lt1
                    d4e = inc2 - lw4 - mu * e2
                    d4i = lw4 - b * i2
                    d4r = pa * i2 - lt1 - mu * r2
                    s1 = s + h6 * (ds + 2.0 * d2s + 2.0 * d3s + d4s)
                    e1 = e + h6 * (de + 2.0 * d2e + 2.0 * d3e + d4e)
                    i1 = i + h6 * (di + 2.0 * d2i + 2.0 * d3i + d4i)
                    r1 = r + h6 * (dr + 2.0 * d2r + 2.0 * d3r + d4r)
                    if s1 < floor or e1 < floor or i1 < floor or r1 < floor:
                        raise undershoot((k0 + len(out) // 8 + 1) * h, floor,
                                         PSEIRS_LABELS, (s1, e1, i1, r1))
                    # stage 1 of step k+1: the derivative row of row k+1
                    n = s1 + e1 + i1 + r1
                    if n <= 0.0:
                        raise _zero_population((k0 + len(out) // 8 + 1) * h)
                    inc1, pai1 = gamma * (s1 / n) * i1, pa * i1
                    f_s = beta * n - mu * s1 - inc1 + lt1
                    f_e = inc1 - lw1 - mu * e1
                    f_i = lw1 - b * i1
                    f_r = pai1 - lt1 - mu * r1
                    # cell [k, k+1] is finished: its entries (row k's at th 0)
                    if wa_row:
                        wa_add(inc * dw)
                    else:
                        xs = wa0 * s + wa1 * s1 + wa2 * ds + wa3 * f_s
                        xi = wa0 * i + wa1 * i1 + wa2 * di + wa3 * f_i
                        n = (xs + (wa0 * e + wa1 * e1 + wa2 * de + wa3 * f_e) + xi
                             + (wa0 * r + wa1 * r1 + wa2 * dr + wa3 * f_r))
                        wa_add(None if n <= 0.0 else gamma * (xs / n) * xi * dw)
                    if wb_row:
                        wb_add(inc * dw)
                    else:
                        xs = wb0 * s + wb1 * s1 + wb2 * ds + wb3 * f_s
                        xi = wb0 * i + wb1 * i1 + wb2 * di + wb3 * f_i
                        n = (xs + (wb0 * e + wb1 * e1 + wb2 * de + wb3 * f_e) + xi
                             + (wb0 * r + wb1 * r1 + wb2 * dr + wb3 * f_r))
                        wb_add(None if n <= 0.0 else gamma * (xs / n) * xi * dw)
                    ta_add(pai * dt if ta_row else
                           pa * (ta0 * i + ta1 * i1 + ta2 * di + ta3 * f_i) * dt)
                    tb_add(pai * dt if tb_row else
                           pa * (tb0 * i + tb1 * i1 + tb2 * di + tb3 * f_i) * dt)
                    out += (f_s, f_e, f_i, f_r, s1, e1, i1, r1)
                    s, e, i, r, ds, de, di, dr = s1, e1, i1, r1, f_s, f_e, f_i, f_r
                    inc, pai = inc1, pai1
            except TypeError:  # a None entry: lagged N <= 0 at stage 2 or 4
                raise _zero_population((k0 + len(out) // 8) * h
                                       + (hh if lwm is None else h),
                                       lagged=True) from None
            block = np.fromiter(out, float, 8 * (k1 - k0)).reshape(-1, 8)
            derivs[k0 + 1:k1 + 1] = block[:, :4]
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

    times = np.arange(n_steps + 1, dtype=float) * h
    return Trajectory(times=times, states=states, derivs=derivs,
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kap, init_override=override)


def reconstruct_trajectory(params: PseirsParams, history: HistoryFunction,
                           times: np.ndarray, states: np.ndarray) -> Trajectory:
    """Rebuild a full Trajectory (including derivative samples) from stored
    state samples, e.g. a trajectory CSV written by an earlier run.

    Derivatives are recomputed by evaluating the model rows at every sample,
    reading the solver's stage-1 entries of both lags with whole-array
    numpy, so analyses run on the reconstruction match the original run.
    """
    times = np.asarray(times, dtype=float)
    states = np.asarray(states, dtype=float)
    _require(times.ndim == 1 and len(times) >= 2 and times[0] == 0.0,
             "times", None, "uniform grid starting at 0")
    _require(states.shape == (len(times), 4), "states", states.shape,
             "one (S, E, I, R) row per time")
    # times[1] is exactly 1*step as written by the solver, so this recovers
    # the original step bit-for-bit (uniformity is re-checked by Trajectory)
    h = float(times[1] - times[0])
    kap = _checked_kappa(params, history, h)

    derivs = np.zeros((len(times), 4))
    _derivative_rows(_Rates(params, h, history), states, derivs, len(times))

    e_consistent = consistent_initial_exposed(history, params)
    r_consistent = consistent_initial_recovered(history, params)
    override = not (states[0, 1] == e_consistent and
                    states[0, 3] == r_consistent)
    return Trajectory(times=times, states=states, derivs=derivs,
                      step=h, labels=PSEIRS_LABELS, history=history,
                      kappa=kap, init_override=override)
