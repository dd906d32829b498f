import math

import numpy as np
import pytest

from pseirs import (CompartmentState, ConstantHistory, InconsistentInit,
                    OutOfDomain, Trajectory, exposed_integral, history_eval,
                    kappa, recovered_integral, simulate_pseirs, verify_integral_equivalence)
from pseirs.presets import baseline_history, baseline_pseirs
from pseirs.quadrature import adaptive_simpson


def _frozen_trajectory(state=(63.0, 0.0, 7.0, 0.0), horizon=60.0, step=0.5):
    """Constant-in-time trajectory with matching constant history."""
    n = int(horizon / step) + 1
    times = np.arange(n, dtype=float) * step
    states = np.tile(np.asarray(state, dtype=float), (n, 1))
    derivs = np.zeros((n, 4))
    hist = ConstantHistory(CompartmentState(*state))
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
        hist = ConstantHistory(CompartmentState(70.0, 0.0, 0.0, 0.0))
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
        hist4 = ConstantHistory(CompartmentState(63.0 * 4, 0.0, 7.0 * 4, 0.0))
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
                s, _, i, _ = history_eval(canonical_run, x).as_tuple()
                return p.gamma * s * i * math.exp(-p.mu * (t - x))
            return adaptive_simpson(f, t - p.omega, t)

        residuals = []
        for t in np.linspace(kappa(p), canonical_run.horizon, 10):
            got, e = unnormalized(float(t)), history_eval(canonical_run, float(t)).e
            residuals.append(abs(got - e) / max(abs(got), abs(e)))
        assert max(residuals) > 1e-2
