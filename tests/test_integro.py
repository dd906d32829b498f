import dataclasses
import math
import warnings

import numpy as np
import pytest

from pseirs import (ConstantHistory, InconsistentInit, OutOfDomain,
                    Overflow, Trajectory,
                    consistent_initial_exposed,
                    exposed_integral, kappa, recovered_integral,
                    reconstruct_trajectory, simulate_pseirs,
                    verify_integral_equivalence)
from pseirs.dde import _eval_raw

from reference_dde import _interp4, history_reader
from reference_quadrature import adaptive_simpson
from shipped import baseline_history, baseline_pseirs
from test_dde import PINNED_RUNS, _at, _same_bits


def _frozen_trajectory(state=(63.0, 0.0, 7.0, 0.0), horizon=60.0, step=0.5):
    """Constant-in-time trajectory with matching constant history."""
    n = int(horizon / step) + 1
    times = np.arange(n, dtype=float) * step
    states = np.tile(np.asarray(state, dtype=float), (n, 1))
    derivs = np.zeros((n, 4))
    hist = ConstantHistory(*state)
    return Trajectory(times=times, states=states, derivs=derivs, step=step,
                      labels=("S", "E", "I", "R"), history=hist, kappa=30.0)


class TestExposedIntegral:
    def test_zero_infection_everywhere(self, canonical_params):
        traj = _frozen_trajectory(state=(70.0, 0.0, 0.0, 0.0))
        for t in (0.0, 1.0, 30.0, 60.0):
            assert exposed_integral(traj, t, canonical_params) == 0.0

    def test_constant_trajectory_closed_form(self, canonical_params):
        p = canonical_params
        traj = _frozen_trajectory()
        want = p.gamma * (63.0 * 7.0 / 70.0) * \
            (1.0 - np.exp(-p.mu * p.omega)) / p.mu
        got = exposed_integral(traj, 40.0, p)
        assert got == pytest.approx(want, rel=1e-8)

    def test_matches_solver_exposed_on_canonical_run(self, canonical_run,
                                                     canonical_params):
        k = int(round(50.0 / canonical_run.step))
        t = float(canonical_run.times[k])  # grid point nearest t = 50
        got = exposed_integral(canonical_run, t, canonical_params)
        want = float(canonical_run.states[k, 1])
        assert got == pytest.approx(want, rel=1e-4)

    def test_coverage_required(self, canonical_params):
        traj = _frozen_trajectory()
        with pytest.raises(OutOfDomain):
            exposed_integral(traj, 100.0, canonical_params)
        # a window reaching below t = 0 needs the history
        bare = dataclasses.replace(traj, history=None)
        with pytest.raises(OutOfDomain):
            exposed_integral(bare, 0.07, canonical_params)

    def test_all_zero_states_give_exact_zero_without_warning(self,
                                                           canonical_params):
        # 0/0 in the array integrand is masked, as the scalar 0.0 branch was
        traj = _frozen_trajectory(state=(0.0, 0.0, 0.0, 0.0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for t in (0.0, 30.0, 60.0):
                got = exposed_integral(traj, t, canonical_params)
                assert got == 0.0 and math.copysign(1.0, got) == 1.0
            got = consistent_initial_exposed(traj.history, canonical_params)
            assert got == 0.0 and math.copysign(1.0, got) == 1.0


class TestRecoveredIntegral:
    def test_zero_probability(self, canonical_history):
        params = baseline_pseirs(p=0.0)
        traj = _frozen_trajectory()
        assert recovered_integral(traj, 45.0, params) == 0.0

    def test_constant_trajectory_closed_form(self, canonical_params):
        p = canonical_params
        traj = _frozen_trajectory()
        want = p.p * p.alpha * 7.0 * (1.0 - np.exp(-p.mu * p.tau)) / p.mu
        got = recovered_integral(traj, 45.0, p)
        assert got == pytest.approx(want, rel=1e-8)

    def test_matches_solver_recovered_on_canonical_run(self, canonical_run,
                                                       canonical_params):
        k = int(round(50.0 / canonical_run.step))
        t = float(canonical_run.times[k])
        got = recovered_integral(canonical_run, t, canonical_params)
        want = float(canonical_run.states[k, 3])
        assert got == pytest.approx(want, rel=1e-4)


class TestVerifyIntegralEquivalence:
    def test_canonical_run_residuals(self, canonical_run, canonical_params):
        report = verify_integral_equivalence(canonical_run, canonical_params, 20)
        assert report.max_residual <= 1e-4
        assert report.consistent_init
        assert report.max_residual == max(report.e_residuals.max(),
                                          report.r_residuals.max())
        assert report.times[0] == 30.0
        assert report.times[-1] == canonical_run.horizon

    def test_override_rejected(self, canonical_params, canonical_history):
        # naive initialization E(0) = R(0) = 0 despite infection in the history
        traj = simulate_pseirs(canonical_params, canonical_history, 40.0,
                               e0=0.0, r0=0.0)
        with pytest.raises(InconsistentInit):
            verify_integral_equivalence(traj, canonical_params, 5)

    def test_zero_infection_residuals_exactly_zero(self, canonical_params):
        hist = ConstantHistory(70.0, 0.0, 0.0, 0.0)
        traj = simulate_pseirs(canonical_params, hist, 40.0)
        report = verify_integral_equivalence(traj, canonical_params, 5)
        assert np.all(report.e_residuals == 0.0)
        assert np.all(report.r_residuals == 0.0)
        assert report.max_residual == 0.0

    def test_residual_shrinks_with_step(self, canonical_params,
                                        canonical_history):
        coarse = simulate_pseirs(canonical_params, canonical_history, 60.0,
                                 step=0.03)
        fine = simulate_pseirs(canonical_params, canonical_history, 60.0,
                               step=0.015)
        res_coarse = verify_integral_equivalence(coarse, canonical_params, 10).max_residual
        res_fine = verify_integral_equivalence(fine, canonical_params, 10).max_residual
        assert res_fine <= res_coarse

    def test_scaling_invariance(self, canonical_params):
        # the system is homogeneous of degree one, and scaling by a power
        # of two commutes with rounding, so residuals match bitwise
        a = simulate_pseirs(canonical_params, baseline_history(), 60.0)
        hist4 = ConstantHistory(63.0 * 4, 0.0, 7.0 * 4, 0.0)
        b = simulate_pseirs(canonical_params, hist4, 60.0)
        assert np.array_equal(b.states, 4.0 * a.states)
        ra = verify_integral_equivalence(a, canonical_params, 10)
        rb = verify_integral_equivalence(b, canonical_params, 10)
        assert np.array_equal(ra.e_residuals, rb.e_residuals)
        assert np.array_equal(ra.r_residuals, rb.r_residuals)

    def test_unnormalized_variant_mismatches(self, canonical_run,
                                             canonical_params):
        # dropping /N(x) from the exposed integrand breaks the equivalence
        p = canonical_params

        def unnormalized(t):
            def f(x):
                s, _, i, _ = _at(canonical_run, x)
                return p.gamma * s * i * math.exp(-p.mu * (t - x))
            return adaptive_simpson(f, t - p.omega, t)

        residuals = []
        for t in np.linspace(kappa(p), canonical_run.horizon, 10):
            got, e = unnormalized(float(t)), _at(canonical_run, float(t))[1]
            residuals.append(abs(got - e) / max(abs(got), abs(e)))
        assert max(residuals) > 1e-2


# The integral forms as they were before the quadrature took an array of
# nodes: one scalar lookup and one integrand call per node, kept as the
# reference for the bits of exposed_integral and recovered_integral.

def reference_lookup(traj):
    """The scalar _eval_raw of trajectory times in [0, horizon]: Python
    floats give the bits of numpy scalars, faster."""
    h, last = traj.step, len(traj.times) - 2
    columns = traj.states.T.tolist() + traj.derivs.T.tolist()

    def at(t):
        j = int(t / h)
        if j > last:
            j = last
        return _interp4(j, (t - j * h) / h, h, *columns)

    return at


@pytest.mark.parametrize("name", ["p_1", "sampled_history",
                                  "signed_zero_history"])
def test_eval_raw_bits_match_scalar_lookup(name):
    # grid times (the exact-row branch keeps I(0) = -0.0), cell midpoints
    # and the horizon (the last cell, clamped)
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    at = reference_lookup(traj)
    x = np.concatenate([traj.times, traj.times[:-1] + 0.5 * traj.step,
                        [traj.horizon]])
    want = np.array([at(t) for t in x.tolist()])
    assert _same_bits(_eval_raw(traj, x), want)


def _reference_window(integrand, traj, t, lag):
    # a window that starts before x = 0 is split there, the part left of
    # it read from the history
    f = integrand(reference_lookup(traj))
    if t - lag >= 0.0:
        return adaptive_simpson(f, t - lag, t)
    past = integrand(history_reader(traj.history))
    return adaptive_simpson(past, t - lag, 0.0) + adaptive_simpson(f, 0.0, t)


def reference_exposed_integral(traj, t, params):
    gamma, mu = params.gamma, params.mu

    def integrand(at):
        def f(x):
            s, e, i, r = at(x)
            if s == 0.0 or i == 0.0 or gamma == 0.0:
                return 0.0
            return gamma * (s / (s + e + i + r)) * i * math.exp(-mu * (t - x))
        return f

    return _reference_window(integrand, traj, t, params.omega)


def reference_recovered_integral(traj, t, params):
    p, alpha, mu = params.p, params.alpha, params.mu

    def integrand(at):
        def f(x):
            return p * alpha * at(x)[2] * math.exp(-mu * (t - x))
        return f

    return _reference_window(integrand, traj, t, params.tau)


def _assert_bits_match_reference(name, times):
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    for t in times(params, traj):
        for integral, reference in (
                (exposed_integral, reference_exposed_integral),
                (recovered_integral, reference_recovered_integral)):
            got = integral(traj, t, params)
            want = reference(traj, t, params)
            assert _same_bits(np.float64(got), np.float64(want)), (t, got, want)


@pytest.mark.parametrize("name", ["p_1", "p_0.4", "omega_30", "sampled_history"])
def test_integral_bits_match_scalar_reference(name):
    # the 20 checkpoints of the verifier
    _assert_bits_match_reference(name, lambda params, traj: np.linspace(
        kappa(params), traj.horizon, 20).tolist())


@pytest.mark.parametrize("name", ["p_1", "sampled_history"])
def test_integral_bits_match_scalar_reference_in_the_history(name):
    # before kappa, the nodes of one or both integrals fall in the history
    # (at t = 0 all of them)
    _assert_bits_match_reference(name, lambda params, traj: [0.0, 0.07, 10.0])


@pytest.mark.parametrize("name", ["p_1", "sampled_history"])
def test_integrals_at_zero_are_the_stored_initial_values(name):
    # at t = 0 the window [-lag, 0] is the history's alone, integrated as
    # consistent init integrates it, so both forms give the stored E(0)
    # and R(0) bit for bit (p_1 is seirs_baseline's run); no node may read
    # row 0, whose E(0) is not the history's E
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    assert _same_bits(np.float64(exposed_integral(traj, 0.0, params)),
                      traj.states[0, 1])
    assert _same_bits(np.float64(recovered_integral(traj, 0.0, params)),
                      traj.states[0, 3])


def test_exposed_integral_across_the_breaking_point():
    # before t = omega the window holds x = 0, where N jumps (consistent
    # E(0) against the history's E = 0); split there, the integral meets
    # the solver's E(t), where adaptive Simpson over the jump missed it by
    # up to 2.7e-7 relative at 2^18-2^19 panels
    params, hist, step, init, horizon = PINNED_RUNS["omega_30"]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    for t in (0.07, 10.0, 29.0):
        got, want = exposed_integral(traj, t, params), _at(traj, t)[1]
        assert abs(got - want) <= 1e-8 * abs(want), (t, got, want)


@pytest.mark.parametrize("name", ["p_1", "sampled_history"])
def test_eval_raw_reads_through_the_solver_lookup(name):
    # within 1e-9*h of t = 0 _eval_raw reads the stored row 0 (consistent
    # E(0) and R(0), not the history's), and it clamps the horizon to the
    # last cell as the scalar lookup does
    params, hist, step, init, horizon = PINNED_RUNS[name]
    traj = simulate_pseirs(params, hist, horizon, step, **init)
    h = traj.step
    x = np.array([-1e-12 * h, 0.0, 1e-12 * h, traj.horizon])
    got = _eval_raw(traj, x)
    assert _same_bits(got[3], np.array(reference_lookup(traj)(traj.horizon)))
    assert _same_bits(got[:3], np.tile(traj.states[0], (3, 1)))
    assert _at(traj, -1e-12 * h) == tuple(traj.states[0])


def test_an_infinite_integral_is_no_small_residual():
    # one stored I of 1e308 makes the integral of R infinite at every
    # checkpoint whose window holds it: quadrature raises Overflow there,
    # so no residual, small or NaN, is reported
    params = dataclasses.replace(baseline_pseirs(), tau=3.0)
    traj = simulate_pseirs(params, baseline_history(), 4.0)
    states = traj.states.copy()
    states[267, 2] = 1e308
    damaged = reconstruct_trajectory(params, baseline_history(), traj.times,
                                     states)
    with pytest.raises(Overflow):
        verify_integral_equivalence(damaged, params, n_checkpoints=20)
