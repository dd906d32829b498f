import dataclasses
import math
import re
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pseirs import (ConstantHistory, InvalidParameter, OutOfDomain,
                    PseirsParams, SampledHistory, StepTooLarge,
                    Trajectory, ZeroPopulation, consistent_initial_exposed,
                    consistent_initial_recovered, reconstruct_trajectory,
                    simulate_pseirs)
from pseirs.dde import CHUNK, _eval_raw, default_step
from pseirs.presets import baseline_history, baseline_pseirs

from reference_dde import (_interp4, _pseirs_rhs, fixed_fraction_lookups,
                           history_reader)
from reference_quadrature import adaptive_simpson

# frozen hand evaluations of the derivative rows at the baseline point
# now = lagged = (S=63, E=0, I=7, R=0), N=70:
#   dI = 0.308*6.3*exp(-0.0009) - 0.106*7
#   dR(p=1) = 0.28*(1 - exp(-0.18))
DI_BASELINE = 1.1966544256262943
DR_BASELINE = 0.046124340804843844

# frozen closed forms for the consistency integrals with the constant
# baseline history:
#   E(0) = gamma*(63*7/70)*(1-exp(-mu*omega))/mu
#   R(0) = p*alpha*7*(1-exp(-mu*tau))/mu
E0_BASELINE = 0.2909290622842519
R0_BASELINE = 7.6873901341406405

BASE_STATE = (63.0, 0.0, 7.0, 0.0)

positive_states = st.floats(min_value=1e-3, max_value=1e6)


def _first_row(params, state):
    """Row 0 of the derivatives of a reconstruction whose first row and
    history are ``state``: at t = 0 every lookup reads the history, so this
    is f(state, state, state)."""
    h = default_step(params)
    traj = reconstruct_trajectory(params, ConstantHistory(*state),
                                  np.array([0.0, h]),
                                  np.array([state] * 2))
    return traj.derivs[0]


class TestDerivativeRows:
    def test_infected_row_frozen_value(self):
        d = _first_row(baseline_pseirs(), BASE_STATE)
        assert d[2] == pytest.approx(DI_BASELINE, abs=1e-9)

    def test_recovered_row_frozen_value(self):
        d = _first_row(baseline_pseirs(), BASE_STATE)
        assert d[3] == pytest.approx(DR_BASELINE, abs=1e-9)

    def test_infection_free_flow(self):
        params = baseline_pseirs()
        d = _first_row(params, (70.0, 0.0, 0.0, 0.0))
        assert d[0] == pytest.approx(params.beta * 70.0 - params.mu * 70.0, rel=1e-12)
        assert tuple(d[1:]) == (0.0, 0.0, 0.0)

    @settings(max_examples=200)
    @given(now=st.tuples(*[positive_states] * 4),
           lag_w=st.tuples(*[positive_states] * 4), itau=positive_states,
           p=st.floats(0.0, 1.0))
    def test_row_sum_identity(self, now, lag_w, itau, p):
        # summing the four rows: the delayed terms cancel, leaving
        # dN/dt = (beta-mu)*N - (epsilon + (1-p)*alpha)*I; row 32 of the
        # reconstruction reads now, and rows 16 and 0 at its two lags:
        # omega = 2 and tau = 4 are 16 and 32 steps of 0.125, so each
        # lookup returns a stored row exactly
        params = dataclasses.replace(baseline_pseirs(p=p), omega=2.0, tau=4.0)
        h = 0.125
        states = np.ones((33, 4))
        states[0, 2] = itau
        states[16] = lag_w
        states[32] = now
        traj = reconstruct_trajectory(params, baseline_history(),
                                      np.arange(33) * h, states)
        ds, de, di, dr = traj.derivs[32].tolist()
        lhs = ds + de + di + dr
        s, e, i, r = now
        n = s + e + i + r
        rhs = (params.beta - params.mu) * n \
            - (params.epsilon + (1.0 - p) * params.alpha) * i
        # relative to the largest term entering the sum: the delayed terms
        # cancel analytically but leave rounding at their own magnitude
        scale = max(abs(rhs), params.gamma * (s / n) * i,
                    params.gamma * (lag_w[0] / sum(lag_w)) * lag_w[2],
                    params.alpha * itau, params.beta * n, 1.0)
        assert abs(lhs - rhs) <= 1e-12 * scale


class TestConsistentInitialization:
    def test_exposed_closed_form(self):
        got = consistent_initial_exposed(baseline_history(), baseline_pseirs())
        assert got == pytest.approx(E0_BASELINE, abs=1e-5)

    def test_exposed_zero_infection(self):
        hist = ConstantHistory(70.0, 0.0, 0.0, 0.0)
        assert consistent_initial_exposed(hist, baseline_pseirs()) == 0.0

    def test_exposed_vanishing_death_rate_limit(self):
        # mu -> 0 turns the integral into gamma*(63*7/70)*omega
        params = baseline_pseirs()
        params = PseirsParams(beta=params.beta, mu=1e-12, epsilon=params.epsilon,
                              alpha=params.alpha, gamma=params.gamma,
                              omega=params.omega, tau=params.tau, p=params.p)
        got = consistent_initial_exposed(baseline_history(), params)
        assert got == pytest.approx(0.291060, abs=1e-4)

    def test_recovered_closed_form(self):
        got = consistent_initial_recovered(baseline_history(), baseline_pseirs())
        assert got == pytest.approx(R0_BASELINE, abs=1e-3)

    def test_recovered_zero_probability(self):
        assert consistent_initial_recovered(
            baseline_history(), baseline_pseirs(p=0.0)) == 0.0

    def test_recovered_zero_infection(self):
        hist = ConstantHistory(70.0, 0.0, 0.0, 0.0)
        assert consistent_initial_recovered(hist, baseline_pseirs()) == 0.0


class TestSimulate:
    def test_initial_state_uses_consistency_integrals(self, canonical_run):
        assert canonical_run.states[0, 0] == 63.0
        assert canonical_run.states[0, 2] == 7.0
        assert canonical_run.states[0, 1] == pytest.approx(E0_BASELINE, abs=1e-5)
        assert canonical_run.states[0, 3] == pytest.approx(R0_BASELINE, abs=1e-3)
        assert not canonical_run.init_override

    def test_zero_infection_stays_zero(self):
        hist = ConstantHistory(70.0, 0.0, 0.0, 0.0)
        traj = simulate_pseirs(baseline_pseirs(), hist, 40.0)
        assert np.all(traj.states[:, 1:] == 0.0)
        # with nothing to integrate, the history at 0 is the first sample
        assert hist.rows_at(np.array([0.0]))[0].tolist() == traj.states[0].tolist()
        # proportions head to the infection-free corner (1, 0, 0, 0)
        assert traj.fractions()[-1, 0] == 1.0

    def test_infected_count_grows_but_fraction_dies_out(self, canonical_run):
        # gamma*exp(-mu*omega) > mu+epsilon+alpha, so the infected count
        # grows; the population grows faster (beta >> mu), so the infected
        # fraction still tends to zero
        infected = canonical_run.column("I")
        assert infected[-1] > infected[0]
        fractions = canonical_run.fractions()[:, 2]
        assert fractions[-1] < 1e-8 < fractions[0]

    def test_long_latency_fraction_decays_monotonically(self):
        params = baseline_pseirs(omega=30.0)
        traj = simulate_pseirs(params, baseline_history(), 300.0, step=0.05)
        frac = traj.fractions()[:, 2]
        after = traj.times > params.omega
        assert np.all(np.diff(frac[after]) <= 1e-15)
        assert frac[-1] < 1e-8

    def test_recovery_monotone_in_immunity_probability(self):
        # identical histories; the run with smaller p accumulates less R
        hist = baseline_history()
        low = simulate_pseirs(baseline_pseirs(p=0.4), hist, 60.0)
        high = simulate_pseirs(baseline_pseirs(p=1.0), hist, 60.0)
        mask = low.times > 30.0
        assert np.all(low.column("R")[mask] <= high.column("R")[mask])

    def test_positivity(self, canonical_run):
        n0 = canonical_run.totals()[0]
        assert canonical_run.states.min() >= -1e-9 * n0

    def test_step_halving_max_norm(self):
        params = baseline_pseirs()
        hist = baseline_history()
        a = simulate_pseirs(params, hist, 60.0)
        b = simulate_pseirs(params, hist, 60.0, step=a.step / 2.0)
        for k in range(4):
            ma = np.abs(a.states[:, k]).max()
            mb = np.abs(b.states[:, k]).max()
            assert abs(ma - mb) / mb < 1e-5

    def test_deterministic(self, canonical_params, canonical_history, canonical_run):
        again = simulate_pseirs(canonical_params, canonical_history, 300.0)
        assert np.array_equal(again.states, canonical_run.states)
        assert np.array_equal(again.derivs, canonical_run.derivs)

    def test_override_flag_and_values(self):
        traj = simulate_pseirs(baseline_pseirs(), baseline_history(), 40.0,
                               e0=0.0, r0=0.0)
        assert traj.init_override
        assert traj.states[0, 1] == 0.0
        assert traj.states[0, 3] == 0.0

    def test_partial_override_breaks_positivity(self):
        # zeroing E(0) while R(0) stays consistent inflates N relative to
        # the history, so the delayed incidence exceeds the current one and
        # E is driven negative: exactly what consistent initialization avoids
        with pytest.raises(StepTooLarge):
            simulate_pseirs(baseline_pseirs(), baseline_history(), 40.0,
                            e0=0.0)

    def test_step_preconditions(self):
        params = baseline_pseirs()
        with pytest.raises(InvalidParameter):
            simulate_pseirs(params, baseline_history(), 10.0, step=0.1)  # > omega/4
        with pytest.raises(InvalidParameter):
            simulate_pseirs(params, baseline_history(), 10.0, step=-0.01)

    def test_history_coverage_required(self):
        # kappa = 30 > 10: both entry points refuse the history before any
        # delayed lookup (reconstruction used to end in OutOfDomain)
        hist = SampledHistory(np.array([-10.0, 0.0]),
                              np.array([[63.0, 0, 7, 0], [63.0, 0, 7, 0]]))
        with pytest.raises(InvalidParameter, match=r"cover \[-30.0, 0\]") as sim:
            simulate_pseirs(baseline_pseirs(), hist, 10.0)
        times = np.arange(11) * default_step(baseline_pseirs())
        states = np.tile([63.0, 0.0, 7.0, 0.0], (11, 1))
        with pytest.raises(InvalidParameter) as rec:
            reconstruct_trajectory(baseline_pseirs(), hist, times, states)
        assert str(rec.value) == str(sim.value)

    def test_negativity_abort(self):
        # E(0) = 0 overrides the consistent value while the lagged
        # incidence of I = 100 before t = -0.5 drains E: E goes negative
        with pytest.raises(StepTooLarge):
            simulate_pseirs(NEGATIVITY_PARAMS, NEGATIVITY_HISTORY, 10.0,
                            step=1.0, e0=0.0)

    def test_memory_is_bounded_by_the_result(self, canonical_params,
                                             canonical_history):
        # the lag caches drop the entries each chunk has read, and a
        # chunk's rows are stored when it ends: over the 40,001-step
        # seirs_baseline run the traced peak stays under three times the
        # result's state and derivative arrays (a whole run's lists of
        # Python floats would take about nine times them)
        # (a no-op profile function runs the loop unspecialized: CPython
        # 3.11's specialized float arithmetic is 20 times slower traced)
        simulate_pseirs(canonical_params, canonical_history, 1.0)
        profile = sys.getprofile()
        sys.setprofile(lambda *args: None)
        tracemalloc.start()
        try:
            traj = simulate_pseirs(canonical_params, canonical_history, 300.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            sys.setprofile(profile)
        assert len(traj.times) == 40001
        assert peak < 3 * (traj.states.nbytes + traj.derivs.nbytes)

    def test_zero_population_abort(self):
        hist = ConstantHistory(0.0, 0.0, 0.0, 0.0)
        with pytest.raises(ZeroPopulation) as got:
            simulate_pseirs(baseline_pseirs(), hist, 10.0)
        # the current-N check of step 0's first stage
        assert str(got.value).startswith("population N reached zero at t=0.0;")


def _cubic_trajectory():
    h = 0.25
    times = np.arange(0, 41, dtype=float) * h
    coeffs = [(0.3, -1.2, 2.0, 5.0), (0.1, 0.5, -0.4, 3.0),
              (-0.2, 0.8, 1.5, 2.0), (0.05, -0.3, 0.7, 9.0)]

    def value(c, t):
        return ((c[0] * t + c[1]) * t + c[2]) * t + c[3]

    def deriv(c, t):
        return (3.0 * c[0] * t + 2.0 * c[1]) * t + c[2]

    states = np.column_stack([value(c, times) for c in coeffs])
    derivs = np.column_stack([deriv(c, times) for c in coeffs])
    traj = Trajectory(times=times, states=states, derivs=derivs, step=h,
                      labels=("S", "E", "I", "R"))
    return traj, coeffs, value


def _at(traj, t):
    """The (S, E, I, R) row at one time t, read through ``_eval_raw``."""
    return tuple(_eval_raw(traj, np.array([t]))[0])


class TestHistoryEval:
    def test_history_endpoint(self, canonical_run):
        assert _at(canonical_run, -30.0) == (63.0, 0.0, 7.0, 0.0)

    def test_cubic_dynamics_reproduced_exactly(self):
        traj, coeffs, value = _cubic_trajectory()
        for j in range(len(traj.times) - 1):
            t = (j + 0.5) * traj.step
            got = _at(traj, t)
            want = [value(c, t) for c in coeffs]
            for g, w in zip(got, want):
                assert abs(g - w) <= 1e-10 * abs(w)

    def test_out_of_domain(self, canonical_run):
        with pytest.raises(OutOfDomain):
            _at(canonical_run, -31.0)
        with pytest.raises(OutOfDomain):
            _at(canonical_run, 300.1)


class TestReconstruct:
    def test_derivatives_match_original_bitwise(self, canonical_params,
                                                canonical_history):
        traj = simulate_pseirs(canonical_params, canonical_history, 40.0)
        rebuilt = reconstruct_trajectory(canonical_params, canonical_history,
                                         traj.times, traj.states)
        assert np.array_equal(rebuilt.derivs, traj.derivs)
        assert not rebuilt.init_override

    def test_override_detected(self, canonical_params, canonical_history):
        traj = simulate_pseirs(canonical_params, canonical_history, 40.0,
                               e0=0.0, r0=0.0)
        rebuilt = reconstruct_trajectory(canonical_params, canonical_history,
                                         traj.times, traj.states)
        assert rebuilt.init_override


# The solver and reconstruction loops as they were written before they
# shared one lookup-and-derivative core, kept as the reference: every state
# and derivative bit of the library must match them with the solver's
# fixed-fraction lookups, and with the per-time lookups they were written
# with they must agree within rounding.

def per_time_lookups(history, h, columns, clamp_to):
    """A function of (lag, k, stage) as ``fixed_fraction_lookups``, reading
    ``_interp4`` at t - lag with the cell and fraction of each t: stages 1
    and 4 at t = k*h and k*h + h, the midpoint at k*h + h/2."""
    Ss, Es, Is, Rs, dSs, dEs, dIs, dRs = columns
    hist_raw = history_reader(history)
    snap = 1e-9 * h

    def past(x):
        if x < snap:
            if x < -snap:
                return hist_raw(x)
            x = 0.0
        j = int(x / h)
        jm = len(clamp_to) - 2
        if j > jm:
            j = jm
        return _interp4(j, (x - j * h) / h, h, Ss, Es, Is, Rs,
                        dSs, dEs, dIs, dRs)

    def at(lag, k, stage):
        t = k * h
        x = (t, t + 0.5 * h, t + h)[stage] - lag
        if stage == 2 and x <= snap:  # the left limit at t = 0
            return hist_raw(min(x, 0.0))
        return past(x)

    return at


def _reference_rates(params):
    return (params.beta, params.mu, params.epsilon, params.alpha, params.gamma,
            params.p, math.exp(-params.mu * params.omega),
            math.exp(-params.mu * params.tau))


def reference_simulate(params, history, horizon, step=None, e0=None, r0=None,
                       lookups=fixed_fraction_lookups):
    h = float(step if step is not None else default_step(params))
    e_init = consistent_initial_exposed(history, params) if e0 is None else float(e0)
    r_init = consistent_initial_recovered(history, params) if r0 is None else float(r0)
    s0_t = history_reader(history)(0.0)
    Ss, Es, Is, Rs = [s0_t[0]], [e_init], [s0_t[2]], [r_init]
    floor = -1e-9 * (Ss[0] + Es[0] + Is[0] + Rs[0])
    dSs, dEs, dIs, dRs = [], [], [], []
    at = lookups(history, h, (Ss, Es, Is, Rs, dSs, dEs, dIs, dRs),
                 clamp_to=Ss)
    rates = _reference_rates(params)
    om, tau = params.omega, params.tau
    n_steps = int(math.ceil(horizon / h - 1e-12))
    s, e, i, r = Ss[0], Es[0], Is[0], Rs[0]
    hh = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        t = k * h
        lw = at(om, k, 0)
        lt = at(tau, k, 0)
        d1 = _pseirs_rhs(t, s, e, i, r, lw[0], lw[1], lw[2], lw[3], lt[2], *rates)
        dSs.append(d1[0]); dEs.append(d1[1]); dIs.append(d1[2]); dRs.append(d1[3])
        tm = t + hh
        lw2 = at(om, k, 1)
        lt2 = at(tau, k, 1)
        d2 = _pseirs_rhs(tm, s + hh * d1[0], e + hh * d1[1], i + hh * d1[2],
                         r + hh * d1[3], lw2[0], lw2[1], lw2[2], lw2[3], lt2[2],
                         *rates)
        d3 = _pseirs_rhs(tm, s + hh * d2[0], e + hh * d2[1], i + hh * d2[2],
                         r + hh * d2[3], lw2[0], lw2[1], lw2[2], lw2[3], lt2[2],
                         *rates)
        te = t + h
        lw4 = at(om, k, 2)
        lt4 = at(tau, k, 2)
        d4 = _pseirs_rhs(te, s + h * d3[0], e + h * d3[1], i + h * d3[2],
                         r + h * d3[3], lw4[0], lw4[1], lw4[2], lw4[3], lt4[2],
                         *rates)
        s += h6 * (d1[0] + 2.0 * d2[0] + 2.0 * d3[0] + d4[0])
        e += h6 * (d1[1] + 2.0 * d2[1] + 2.0 * d3[1] + d4[1])
        i += h6 * (d1[2] + 2.0 * d2[2] + 2.0 * d3[2] + d4[2])
        r += h6 * (d1[3] + 2.0 * d2[3] + 2.0 * d3[3] + d4[3])
        if s < floor or e < floor or i < floor or r < floor:
            raise StepTooLarge(
                f"compartment below {floor} at t={(k + 1) * h}; reduce the step")
        Ss.append(s); Es.append(e); Is.append(i); Rs.append(r)
    tn = n_steps * h
    lw = at(om, n_steps, 0)
    lt = at(tau, n_steps, 0)
    dlast = _pseirs_rhs(tn, s, e, i, r, lw[0], lw[1], lw[2], lw[3], lt[2], *rates)
    dSs.append(dlast[0]); dEs.append(dlast[1]); dIs.append(dlast[2]); dRs.append(dlast[3])
    return (np.column_stack([Ss, Es, Is, Rs]),
            np.column_stack([dSs, dEs, dIs, dRs]))


def reference_reconstruct(params, history, times, states,
                          lookups=fixed_fraction_lookups):
    h = float(times[1] - times[0])
    Ss, Es, Is, Rs = (states[:, c].tolist() for c in range(4))
    dSs, dEs, dIs, dRs = [], [], [], []
    at = lookups(history, h, (Ss, Es, Is, Rs, dSs, dEs, dIs, dRs),
                 clamp_to=dSs)
    rates = _reference_rates(params)
    om, tau = params.omega, params.tau
    for k in range(len(times)):
        t = k * h
        lw = at(om, k, 0)
        lt = at(tau, k, 0)
        d = _pseirs_rhs(t, Ss[k], Es[k], Is[k], Rs[k],
                        lw[0], lw[1], lw[2], lw[3], lt[2], *rates)
        dSs.append(d[0]); dEs.append(d[1]); dIs.append(d[2]); dRs.append(d[3])
    return np.column_stack([dSs, dEs, dIs, dRs])


class _LeftLimitHistory(SampledHistory):
    """Refuses t > 0, where a history is not defined: a lookup that lands
    just right of t = 0 at stage 4 must read the history at t = 0."""

    def rows_at(self, x):
        if (x > 0.0).any():
            raise OutOfDomain(f"history evaluation at t={float(x.max())} > 0")
        return super().rows_at(x)


def _sampled_history(kind=SampledHistory):
    times = np.linspace(-30.0, 0.0, 13)
    wave = np.sin(times / 4.0)
    states = np.column_stack([63.0 + 2.0 * wave, 0.5 + 0.25 * wave,
                              7.0 - 1.5 * wave, 3.0 + np.cos(times / 7.0)])
    return kind(times, states)


# (params, history, step, e0/r0 overrides, horizon).  The first six runs go
# past tau = 30, so both lags read the solver's own samples; the others sit
# on the edges of the solver's lag caches and chunks.
PINNED_RUNS = {
    "p_1": (baseline_pseirs(), baseline_history(), None, {}, 40.0),
    "p_0.4": (baseline_pseirs(p=0.4), baseline_history(), None, {}, 40.0),
    "omega_30": (baseline_pseirs(omega=30.0), baseline_history(), None, {}, 40.0),
    "e0_r0_override": (baseline_pseirs(), baseline_history(), None,
                       {"e0": 0.0, "r0": 0.0}, 40.0),
    "sampled_history": (baseline_pseirs(), _sampled_history(), None, {}, 40.0),
    "off_grid_step": (baseline_pseirs(), baseline_history(), 0.0071, {}, 40.0),
    # min(omega, tau)/4: 4-step lags, each entry read 3 steps after it is made
    "minimum_step": (baseline_pseirs(), baseline_history(), 0.0375, {}, 40.0),
    # 14 steps, fewer than either lag, the last one past the horizon
    "horizon_under_one_block": (baseline_pseirs(), baseline_history(), None,
                                {}, 0.1),
    "omega_above_tau": (dataclasses.replace(baseline_pseirs(), omega=12.0,
                                            tau=3.0),
                        _sampled_history(), None, {}, 40.0),
    # every lookup lands in the history, across several chunks, off the grid
    "horizon_below_omega": (baseline_pseirs(omega=30.0), _sampled_history(),
                            0.0071, {}, 20.0),
    # step 599's stage-4 lookup lands 3.6e-15 right of t = 0
    "left_limit_at_zero": (baseline_pseirs(omega=30.0),
                           _sampled_history(_LeftLimitHistory), None, {}, 40.0),
    # I(0) = -0.0: only the exact-row branch of a lookup keeps that sign
    "signed_zero_history": (baseline_pseirs(),
                            ConstantHistory(63.0, 0.0, -0.0, 0.0),
                            None, {}, 1.0),
    # lags of 20 and 400 steps, both shorter than a chunk, and the run
    # spans more than three chunks
    "tau_inside_a_chunk": (dataclasses.replace(baseline_pseirs(), omega=0.15,
                                               tau=3.0),
                           baseline_history(), None, {}, 25.0),
}


def _same_bits(a, b):
    # np.array_equal holds for -0.0 against 0.0; the output files do not
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_solver_bits_match_reference_loops(name):
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    states, derivs = reference_simulate(params, hist, horizon, step, **init)
    assert _same_bits(traj.states, states)
    assert _same_bits(traj.derivs, derivs)
    rebuilt = reconstruct_trajectory(params, hist, traj.times, traj.states)
    assert _same_bits(rebuilt.derivs,
                      reference_reconstruct(params, hist, traj.times, traj.states))
    assert _same_bits(rebuilt.derivs, traj.derivs)


@pytest.mark.parametrize("name", PINNED_RUNS)
def test_solver_within_rounding_of_per_time_lookups(name):
    # the fixed fractions read the stored row where t - lag lands on the
    # grid, and the per-time lookup a fraction near 0 or 1 worked out
    # from t - lag: a difference at rounding level, relative to each
    # compartment's maximum
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    states, derivs = reference_simulate(params, hist, horizon, step, **init,
                                        lookups=per_time_lookups)
    for got, want in ((traj.states, states), (traj.derivs, derivs)):
        scale = np.abs(want).max(axis=0)
        assert (np.abs(got - want) <= 1e-12 * scale).all()


def _abort_time(error):
    return re.search(r"at t=([^;]+);", str(error)).group(1)


# a model whose population is zero at t = -1 in the history: the stage-4
# lookup of the step [2, 3] reads it, inside the first block
ABORT_PARAMS = PseirsParams(beta=0.0, mu=0.1, epsilon=0.0, alpha=0.04,
                            gamma=0.0, omega=4.0, tau=4.0, p=0.1)
_ROW = [63.0, 0.0, 100.0, 0.0]
GAP_HISTORY = SampledHistory(np.array([-4.0, -1.5, -1.0, 0.0]),
                             np.array([_ROW, _ROW, [0.0] * 4, _ROW]))
# the abort case of TestSimulate.test_negativity_abort: with E(0) = 0 the
# lagged incidence of I = 100 drains E below the floor in the first step,
# and with the gap history before the lagged N = 0 too
NEGATIVITY_PARAMS = dataclasses.replace(ABORT_PARAMS, gamma=0.5)
_I_OFF = [63.0, 0.0, 0.0, 0.0]
NEGATIVITY_HISTORY = SampledHistory(np.array([-4.0, -0.5, 0.0]),
                                    np.array([_ROW, _ROW, _I_OFF]))
NEGATIVITY_GAP_HISTORY = SampledHistory(
    np.array([-4.0, -1.5, -1.0, -0.5, 0.0]),
    np.array([_ROW, _ROW, [0.0] * 4, _ROW, _I_OFF]))


@pytest.mark.parametrize("params, hist, init, error, lagged", [
    (NEGATIVITY_PARAMS, NEGATIVITY_HISTORY, {"e0": 0.0}, StepTooLarge, False),
    (NEGATIVITY_PARAMS, NEGATIVITY_GAP_HISTORY, {"e0": 0.0}, StepTooLarge,
     False),
    (dataclasses.replace(ABORT_PARAMS, p=1.0), GAP_HISTORY, {},
     ZeroPopulation, True),
], ids=["negativity", "negativity_before_lagged_zero", "lagged_zero"])
def test_abort_matches_reference_loop(params, hist, init, error, lagged):
    with pytest.raises(error) as got:
        simulate_pseirs(params, hist, 10.0, step=1.0, **init)
    with pytest.raises(error) as want:
        reference_simulate(params, hist, 10.0, step=1.0, **init)
    if error is StepTooLarge:
        assert _abort_time(got.value) == _abort_time(want.value) == "1.0"
        assert str(got.value).startswith("compartment E=")
    else:
        # stage 4 of the step at t = 2
        assert _abort_time(got.value) == _abort_time(want.value) == "3.0"
    assert ("lagged" in str(got.value)) == lagged == ("lagged" in str(want.value))


@pytest.mark.parametrize("params, hist, t", [
    # the zero population at t = -1.5 is read by the midpoint of step 2
    (dataclasses.replace(ABORT_PARAMS, p=1.0),
     SampledHistory(np.array([-4.0, -2.0, -1.5, -1.0, 0.0]),
                    np.array([_ROW, _ROW, [0.0] * 4, _ROW, _ROW])), "2.5"),
    # the history's zero population at t = 0 (row 0 holds E(0), R(0) > 0)
    # is read by stage 4 of step 3, as the left limit there
    (dataclasses.replace(ABORT_PARAMS, gamma=0.05),
     SampledHistory(np.array([-4.0, -1.0, 0.0]),
                    np.array([_ROW, _ROW, [0.0] * 4])), "4.0"),
], ids=["midpoint", "left_limit"])
def test_lagged_zero_at_each_kind_of_entry(params, hist, t):
    with pytest.raises(ZeroPopulation) as got:
        simulate_pseirs(params, hist, 10.0, step=1.0)
    for lookups in (fixed_fraction_lookups, per_time_lookups):
        with pytest.raises(ZeroPopulation) as want:
            reference_simulate(params, hist, 10.0, step=1.0, lookups=lookups)
        assert str(got.value) == str(want.value)
    assert _abort_time(got.value) == t
    assert "lagged" in str(got.value)


def _stored(zero_rows=()):
    """11 stored rows 1.0 apart, the constant _ROW but for all-zero rows."""
    states = np.tile(np.array(_ROW), (11, 1))
    states[list(zero_rows)] = 0.0
    return np.arange(11, dtype=float), states


@pytest.mark.parametrize("hist, zero_rows, t, lagged", [
    # row 3 reads the history's zero population at t = -1
    (GAP_HISTORY, (), "3.0", True),
    (ConstantHistory(*_ROW), (5,), "5.0", False),
    # both at row 3: the current population is named first
    (GAP_HISTORY, (3,), "3.0", False),
], ids=["lagged_zero", "current_zero", "current_before_lagged"])
def test_reconstruct_abort_matches_reference_loop(hist, zero_rows, t, lagged):
    times, states = _stored(zero_rows)
    with pytest.raises(ZeroPopulation) as got:
        reconstruct_trajectory(ABORT_PARAMS, hist, times, states)
    with pytest.raises(ZeroPopulation) as want:
        reference_reconstruct(ABORT_PARAMS, hist, times, states)
    assert str(got.value) == str(want.value)
    assert _abort_time(got.value) == t
    assert ("lagged" in str(got.value)) == lagged


@pytest.mark.parametrize("rows", [2, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("name", ["p_1", "minimum_step", "off_grid_step",
                                  "tau_inside_a_chunk"])
def test_reconstruct_bits_at_plan_edges(name, rows):
    # a run of one step, one step short of a chunk and exactly one chunk,
    # against the first rows of a run over several chunks, whose caches
    # are trimmed at each chunk start
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    times, states = traj.times[:rows], traj.states[:rows]
    rebuilt = reconstruct_trajectory(params, hist, times, states)
    assert _same_bits(rebuilt.derivs,
                      reference_reconstruct(params, hist, times, states))
    assert _same_bits(rebuilt.derivs, traj.derivs[:rows])
    short = simulate_pseirs(params, hist, (rows - 1) * traj.step, step, **init)
    assert _same_bits(short.states, states)
    assert _same_bits(short.derivs, rebuilt.derivs)


# Lags of 21.1 and 422.5 steps (omega 0.15, tau 3, step 0.0071), off the
# grid: reconstruction goes in blocks of 21 rows, and rows 1101 and 1501
# lie past the first 1,024.  The (63, 0, 7, 0) rows keep N flat, the S = 1 rows grow it
# at 1e4 per unit time, and the Hermite lookup 0.87 into a cell after them
# dips below zero: the lagged N of the row 21 after the first S = 1 row.
EDGE_PARAMS = PseirsParams(beta=1e4, mu=0.0, epsilon=1e5, alpha=0.0,
                           gamma=0.0, omega=0.15, tau=3.0, p=1.0)
EDGE_STEP = 0.0071


@pytest.mark.parametrize("row", [1101, 1501])
@pytest.mark.parametrize("current, lagged", [
    (True, False), (False, True),
    # the current population is named first
    (True, True),
], ids=["current_zero", "lagged_zero", "current_before_lagged"])
def test_reconstruct_abort_past_the_first_chunk(row, current, lagged):
    states = np.tile(np.array(_ROW), (1600, 1))
    if lagged:
        states[row - 21:row - 11] = [1.0, 0.0, 0.0, 0.0]
    if current:
        states[row] = 0.0
    times = np.arange(1600) * EDGE_STEP
    hist = ConstantHistory(*_ROW)
    with pytest.raises(ZeroPopulation) as got:
        reconstruct_trajectory(EDGE_PARAMS, hist, times, states)
    with pytest.raises(ZeroPopulation) as want:
        reference_reconstruct(EDGE_PARAMS, hist, times, states)
    assert str(got.value) == str(want.value)
    assert _abort_time(got.value) == repr(row * EDGE_STEP)
    assert ("lagged" in str(got.value)) == (not current)


@pytest.mark.parametrize("shape", [(11, 3), (10, 4), (11, 4, 1)])
def test_reconstruct_rejects_misshapen_states(shape):
    hist = ConstantHistory(*_ROW)
    times, _ = _stored()
    with pytest.raises(InvalidParameter, match="states"):
        reconstruct_trajectory(ABORT_PARAMS, hist, times, np.ones(shape))


# The consistency integrands as they were written before consistent
# initialization and the integral forms shared one integrand per
# compartment, with the scalar quadrature, kept as the reference: E(0) and
# R(0) must match bit for bit.

def reference_initial_exposed(history, params):
    gamma, mu = params.gamma, params.mu
    at = history_reader(history)

    def f(x):
        s, e, i, r = at(x)
        if s == 0.0 or i == 0.0 or gamma == 0.0:
            return 0.0
        return gamma * (s / (s + e + i + r)) * i * math.exp(mu * x)

    return adaptive_simpson(f, -params.omega, 0.0)


def reference_initial_recovered(history, params):
    p, alpha, mu = params.p, params.alpha, params.mu
    at = history_reader(history)

    def f(x):
        i = at(x)[2]
        return p * alpha * i * math.exp(mu * x)

    return adaptive_simpson(f, -params.tau, 0.0)


@pytest.mark.parametrize("name", ["p_1", "p_0.4", "omega_30", "sampled_history"])
def test_consistent_init_bits_match_reference_integrands(name):
    params, hist, *_ = PINNED_RUNS[name]
    assert consistent_initial_exposed(hist, params) == \
        reference_initial_exposed(hist, params)
    assert consistent_initial_recovered(hist, params) == \
        reference_initial_recovered(hist, params)
