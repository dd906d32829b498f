import dataclasses
import math
import time

import numpy as np
import pytest

from pseirs import (ConstantHistory, EquilibriumKind, InvalidParameter,
                    PseirsParams, StabilityClass, Trajectory,
                    TrajectoryTooShort, classify_equilibrium, r0_linearized,
                    r0_nominal, simulate_pseirs, stability_probe)
from pseirs.core import _require
from pseirs.scenario import _prepare_network

from conftest import PSEIRS_CONFIGS
from shipped import baseline_pseirs, shipped

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

    def test_same_class_as_reference_integration(self):
        # criterion 06's grid, which holds the grid of the test above
        points = [baseline_pseirs(gamma=g, omega=w)
                  for g in (0.02, 0.06, 0.09, 0.15, 0.308)
                  for w in (0.15, 2.0, 10.0, 30.0)]
        # with the gamma each scenario runs with
        points += [_prepare_network(shipped(name))[1] for name in PSEIRS_CONFIGS]
        points += [baseline_pseirs(gamma=g) for g in (0.02, 0.1061, 0.308)]
        points += _random_params(48, seed=2026)
        edges = _band_edge_params()
        points += [params for params, _ in edges]
        got = [stability_probe(p) for p in points]
        want = [reference_stability_probe(p) for p in points]
        assert got == want
        assert set(got) == set(StabilityClass)
        assert got[-len(edges):] == [cls for _, cls in edges]

    @pytest.mark.parametrize("params, want", [
        (baseline_pseirs(gamma=0.0), StabilityClass.DECAYING),
        # exp(-mu*omega) underflows to 0, so a = 0 and lambda* = -b
        (dataclasses.replace(baseline_pseirs(), mu=1.0, omega=800.0),
         StabilityClass.DECAYING),
        # 1e-3*b*omega = 1000 > 710, where exp(d*omega) would overflow;
        # lambda* ~ log(a/b)/omega ~ 1e-7 lies inside the band of 1e-4
        (dataclasses.replace(baseline_pseirs(), mu=0.0, omega=1e7),
         StabilityClass.MARGINAL),
    ], ids=["no_contacts", "attenuation_underflows", "band_times_omega_overflows"])
    def test_extreme_inputs_classified_at_once(self, params, want):
        # the reference would integrate for minutes or overflow on these
        elapsed = []
        for _ in range(3):
            start = time.perf_counter()
            got = stability_probe(params)
            elapsed.append(time.perf_counter() - start)
            assert got is want
        assert min(elapsed) < 1e-3


# The probe as it was written before it classified from the characteristic
# equation, kept as the reference: it integrates the linearized infected
# equation and fits its growth rate, so it can only be run where that
# integration is short.

def reference_stability_probe(params: PseirsParams) -> StabilityClass:
    """Numerical oracle for the linearized threshold.

    Integrates the scalar linear delay equation

        dI/dt = gamma*exp(-mu*omega) * I(t-omega) - (mu+epsilon+alpha) * I(t)

    from the constant history I = 1 over 20*max(omega, 1/b), with step
    min(omega, 1/b)/20 where b = mu+epsilon+alpha, and classifies by the
    sign of the exponential rate fitted over the final half of the run.
    Rates smaller than 1e-3*b in magnitude count as marginal.
    """
    a = params.gamma * math.exp(-params.mu * params.omega)
    b = params.mu + params.epsilon + params.alpha
    _require(b > 0, "mu+epsilon+alpha", b, "mu + epsilon + alpha > 0")
    om = params.omega
    horizon = 20.0 * max(om, 1.0 / b)
    h = min(om, 1.0 / b) / 20.0

    ys = [1.0]
    ds = []

    def past(x):
        if x < 0.0:
            return 1.0
        j = int(x / h)
        jm = len(ys) - 2
        if j > jm:
            j = jm
        th = (x - j * h) / h
        if th == 0.0:
            return ys[j]
        t2 = th * th
        t3 = t2 * th
        h00 = 2.0 * t3 - 3.0 * t2 + 1.0
        h01 = 3.0 * t2 - 2.0 * t3
        h10 = (t3 - 2.0 * t2 + th) * h
        h11 = (t3 - t2) * h
        return h00 * ys[j] + h01 * ys[j + 1] + h10 * ds[j] + h11 * ds[j + 1]

    n_steps = int(math.ceil(horizon / h - 1e-12))
    y = 1.0
    hh = 0.5 * h
    h6 = h / 6.0
    for k in range(n_steps):
        t = k * h
        d1 = a * past(t - om) - b * y
        ds.append(d1)
        lag_mid = past(t + hh - om)
        d2 = a * lag_mid - b * (y + hh * d1)
        d3 = a * lag_mid - b * (y + hh * d2)
        d4 = a * past(t + h - om) - b * (y + h * d3)
        y += h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        ys.append(y)
        if y > 1e250:
            return StabilityClass.GROWING

    times = np.arange(len(ys), dtype=float) * h
    window = times >= 0.5 * times[-1]
    yw = np.asarray(ys)[window]
    if np.any(yw <= 0.0):
        return StabilityClass.DECAYING
    rate = float(np.polyfit(times[window], np.log(yw), 1)[0])
    if abs(rate) < 1e-3 * b:
        return StabilityClass.MARGINAL
    return StabilityClass.GROWING if rate > 0 else StabilityClass.DECAYING


def _gamma_for_root(base, lam):
    """gamma that puts the rightmost characteristic root at ``lam``:
    lam + b = gamma*exp(-mu*omega)*exp(-lam*omega)."""
    b = base.mu + base.epsilon + base.alpha
    return (lam + b) * math.exp((lam + base.mu) * base.omega)


def _random_params(count, seed):
    # omega within a factor 20 of 1/b keeps the reference's run to at most
    # 8,000 steps
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        mu, epsilon, alpha = rng.uniform(0.001, 0.05), rng.uniform(0.0, 0.2), \
            rng.uniform(0.01, 0.3)
        b = mu + epsilon + alpha
        omega = math.exp(rng.uniform(math.log(1 / 20), math.log(20))) / b
        out.append(PseirsParams(beta=rng.uniform(0.0, 0.5), mu=mu,
                                epsilon=epsilon, alpha=alpha,
                                gamma=b * math.exp(rng.uniform(-1.5, 1.5)),
                                omega=omega, tau=rng.uniform(1.0, 40.0),
                                p=rng.uniform(0.0, 1.0)))
    return out


def _band_edge_params():
    """gamma set so that |lambda*| = 1e-3*b*(1 +- rel) on either side of 0:
    just outside and just inside the marginal band, never on its edge.

    rel is 2e-7, except at omega = 30: there the reference's fitted rate is
    lambda*(1 - 7.3e-6) (an RK4 step of 0.47), so it puts both points at
    1e-3*b*(1 + 2e-7) inside the band, and rel is 2e-5."""
    out = []
    for omega, margin in ((0.15, 2e-7), (2.0, 2e-7), (10.0, 2e-7), (30.0, 2e-5)):
        base = baseline_pseirs(omega=omega)
        d = 1e-3 * (base.mu + base.epsilon + base.alpha)
        for sign in (1.0, -1.0):
            for rel in (margin, -margin):
                lam = sign * d * (1.0 + rel)
                params = dataclasses.replace(base, gamma=_gamma_for_root(base, lam))
                if rel < 0:
                    want = StabilityClass.MARGINAL
                else:
                    want = (StabilityClass.GROWING if sign > 0
                            else StabilityClass.DECAYING)
                out.append((params, want))
    return out


def _constant_proportion_trajectory(fractions, n=200.0, horizon=100.0,
                                    kappa=30.0):
    step = 1.0
    count = int(horizon / step) + 1
    times = np.arange(count, dtype=float) * step
    row = np.asarray(fractions, dtype=float) * n
    states = np.tile(row, (count, 1))
    return Trajectory(times=times, states=states, step=step,
                      labels=("S", "E", "I", "R"), kappa=kappa)


class TestClassify:
    def test_zero_infection_run_is_disease_free(self, canonical_params):
        hist = ConstantHistory(70.0, 0.0, 0.0, 0.0)
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
