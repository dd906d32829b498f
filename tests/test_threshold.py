import numpy as np
import pytest

from pseirs import (CompartmentState, ConstantHistory, EquilibriumKind,
                    InvalidParameter, StabilityClass, Trajectory,
                    TrajectoryTooShort, classify_equilibrium, r0_linearized,
                    r0_nominal, simulate_pseirs, stability_probe)
from pseirs.presets import baseline_pseirs

# frozen plug-in evaluations at the baseline parameters
R0_NOMINAL = 0.6816864853628612
R0_NOMINAL_LONG = 3.593907458907439e-05
R0_LINEARIZED = 2.9030464594583623
R0_LINEARIZED_LONG = 2.4270115576855824


class TestFormulas:
    def test_nominal_baseline(self):
        assert r0_nominal(baseline_pseirs()) == pytest.approx(R0_NOMINAL, abs=1e-4)

    def test_nominal_long_latency(self):
        got = r0_nominal(baseline_pseirs(omega=30.0))
        assert got == pytest.approx(R0_NOMINAL_LONG, rel=1e-2)

    def test_linearized_baseline(self):
        assert r0_linearized(baseline_pseirs()) == \
            pytest.approx(R0_LINEARIZED, abs=1e-4)

    def test_linearized_long_latency(self):
        assert r0_linearized(baseline_pseirs(omega=30.0)) == \
            pytest.approx(R0_LINEARIZED_LONG, abs=1e-4)

    def test_nominal_boundary_identity(self):
        # vanishing latency with gamma = epsilon + beta + alpha gives 1
        p = baseline_pseirs(omega=1e-12, gamma=0.060 + 0.330 + 0.040)
        assert r0_nominal(p) == pytest.approx(1.0, rel=1e-9)

    def test_linearized_constructed_boundary(self):
        base = baseline_pseirs()
        b = base.mu + base.epsilon + base.alpha
        p = baseline_pseirs(gamma=b * np.exp(base.mu * base.omega))
        assert r0_linearized(p) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("formula", [r0_nominal, r0_linearized])
    def test_monotone_in_latency_and_contact_rate(self, formula):
        omegas = [0.1, 0.5, 2.0, 10.0, 30.0]
        vals = [formula(baseline_pseirs(omega=w)) for w in omegas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        gammas = [0.05, 0.1, 0.3, 0.8]
        vals = [formula(baseline_pseirs(gamma=g)) for g in gammas]
        assert all(a < b for a, b in zip(vals, vals[1:]))


class TestStabilityProbe:
    def test_baseline_grows(self):
        assert stability_probe(baseline_pseirs()) is StabilityClass.GROWING

    def test_no_contacts_decays(self):
        assert stability_probe(baseline_pseirs(gamma=0.0)) is StabilityClass.DECAYING

    def test_constructed_boundary_is_marginal(self):
        base = baseline_pseirs()
        b = base.mu + base.epsilon + base.alpha
        p = baseline_pseirs(gamma=b * np.exp(base.mu * base.omega))
        assert stability_probe(p) is StabilityClass.MARGINAL

    def test_agrees_with_linearized_formula_on_grid(self):
        for gamma in (0.02, 0.09, 0.15, 0.308):
            for omega in (0.15, 10.0, 30.0):
                params = baseline_pseirs(gamma=gamma, omega=omega)
                r0 = r0_linearized(params)
                if abs(r0 - 1.0) <= 0.05:
                    continue
                want = StabilityClass.GROWING if r0 > 1 else StabilityClass.DECAYING
                assert stability_probe(params) is want


def _constant_proportion_trajectory(fractions, n=200.0, horizon=100.0,
                                    kappa=30.0):
    step = 1.0
    count = int(horizon / step) + 1
    times = np.arange(count, dtype=float) * step
    row = np.asarray(fractions, dtype=float) * n
    states = np.tile(row, (count, 1))
    return Trajectory(times=times, states=states, derivs=np.zeros((count, 4)),
                      step=step, labels=("S", "E", "I", "R"), kappa=kappa)


class TestClassify:
    def test_zero_infection_run_is_disease_free(self, canonical_params):
        hist = ConstantHistory(CompartmentState(70.0, 0.0, 0.0, 0.0))
        traj = simulate_pseirs(canonical_params, hist, 40.0)
        assert classify_equilibrium(traj, 0.25).kind is EquilibriumKind.DISEASE_FREE

    def test_baseline_run_fraction_dies_out(self, canonical_run):
        # the population grows faster than the infected class, so the
        # trailing-window infected fraction sits far below the 1e-6 band
        result = classify_equilibrium(canonical_run, 0.1)
        assert result.kind is EquilibriumKind.DISEASE_FREE

    def test_high_contact_run_is_endemic(self, endemic_run):
        traj, _ = endemic_run
        result = classify_equilibrium(traj, 0.1)
        assert result.kind is EquilibriumKind.ENDEMIC
        assert result.point is not None
        assert sum(result.point) == pytest.approx(1.0, abs=1e-6)
        assert all(0.0 <= v <= 1.0 for v in result.point)
        assert result.point[2] > 1e-4

    def test_settled_synthetic_trajectory(self):
        traj = _constant_proportion_trajectory([0.5, 0.1, 0.2, 0.2])
        result = classify_equilibrium(traj, 0.5)
        assert result.kind is EquilibriumKind.ENDEMIC
        assert result.point == pytest.approx((0.5, 0.1, 0.2, 0.2))

    def test_short_transient_is_undetermined(self, canonical_params,
                                             canonical_history):
        traj = simulate_pseirs(canonical_params, canonical_history, 35.0)
        assert classify_equilibrium(traj, 0.5).kind is EquilibriumKind.UNDETERMINED

    def test_scale_invariance(self, endemic_run):
        traj, _ = endemic_run
        scaled = Trajectory(times=traj.times, states=3.7 * traj.states,
                            derivs=3.7 * traj.derivs, step=traj.step,
                            labels=traj.labels, history=traj.history,
                            kappa=traj.kappa)
        a = classify_equilibrium(traj, 0.1)
        b = classify_equilibrium(scaled, 0.1)
        assert a.kind is b.kind
        assert a.point == pytest.approx(b.point, rel=1e-12)

    def test_too_short_rejected(self, canonical_params, canonical_history):
        traj = simulate_pseirs(canonical_params, canonical_history, 20.0)
        with pytest.raises(TrajectoryTooShort):
            classify_equilibrium(traj, 0.2)

    def test_tail_fraction_bounds(self, canonical_run):
        with pytest.raises(InvalidParameter):
            classify_equilibrium(canonical_run, 0.0)
        with pytest.raises(InvalidParameter):
            classify_equilibrium(canonical_run, 0.6)


class TestFractionThresholdConsistency:
    def test_nominal_formula_predicts_fraction_outcome(self, canonical_run,
                                                       endemic_run):
        # with the population growing at beta - mu, the nominal formula is
        # the growth threshold for the infected fraction: the baseline
        # (0.68 < 1) dies out in proportion space, the high-contact variant
        # (2.21 > 1) persists
        assert r0_nominal(baseline_pseirs()) < 1.0
        assert classify_equilibrium(canonical_run, 0.1).kind \
            is EquilibriumKind.DISEASE_FREE
        traj, params = endemic_run
        assert r0_nominal(params) > 1.0
        assert classify_equilibrium(traj, 0.1).kind is EquilibriumKind.ENDEMIC
