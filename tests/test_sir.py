import json
from pathlib import Path

import numpy as np
import pytest

from pseirs import (NoPeak, NotEndemic, SirParams, SirState, StepTooLarge,
                    simulate_sir, sir_derivatives, sir_disease_free_prediction,
                    sir_endemic_prediction, sir_peak_oracle, sir_r0)
from pseirs.presets import (sir_high_infectivity, sir_low_infectivity,
                            sir_twelve_node_init)
from pseirs.scenario import (ScenarioConfig, read_trajectory_csv,
                             write_trajectory_csv)
from pseirs.sir import sir_derivative_rows

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SIR_CONFIGS = ("sir_high_infectivity.json", "sir_low_infectivity.json")

# frozen oracle values from the first-integral formula
# I_max = N - rho + rho*ln(rho/S0), rho = alpha/beta
PEAK_LOW = 7.1882172516127
PEAK_HIGH = 9.954478773320842


class TestDerivatives:
    def test_hand_evaluated_point(self):
        d = sir_derivatives(SirState(11.0, 1.0, 0.0), SirParams(0.06, 0.1))
        assert d.ds == pytest.approx(-0.66, rel=1e-12)
        assert d.di == pytest.approx(0.56, rel=1e-12)
        assert d.dr == pytest.approx(0.1, rel=1e-12)

    def test_no_infected_no_flow(self):
        d = sir_derivatives(SirState(8.0, 0.0, 4.0), SirParams(0.3, 0.2))
        assert d == (0.0, 0.0, 0.0)

    def test_pure_recovery(self):
        d = sir_derivatives(SirState(0.0, 5.0, 0.0), SirParams(0.1, 0.2))
        assert d.ds == 0.0
        assert d.di == pytest.approx(-1.0, rel=1e-12)
        assert d.dr == pytest.approx(1.0, rel=1e-12)


def reference_rows(states, params):
    # the per-row derivatives analyze built before sir_derivative_rows
    return np.array([sir_derivatives(SirState(*row), params) for row in states])


def _same_bits(a, b):
    # np.array_equal holds for -0.0 against 0.0; the output files do not
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _shipped(name):
    return ScenarioConfig.from_dict(json.loads((CONFIG_DIR / name).read_text()))


class TestDerivativeRowBits:
    @pytest.mark.parametrize("name", SIR_CONFIGS)
    def test_stored_trajectory(self, name, tmp_path):
        # the states analyze reads back from a shipped config's trajectory
        config = _shipped(name)
        write_trajectory_csv(simulate_sir(config.params, config.init,
                                          config.horizon, config.step),
                             tmp_path / "trajectory.csv")
        _, states, _ = read_trajectory_csv(tmp_path / "trajectory.csv")
        assert _same_bits(sir_derivative_rows(states, config.params),
                          reference_rows(states, config.params))

    @pytest.mark.parametrize("beta", [0.2, 0.0])
    def test_hand_rows(self, beta):
        # signed zeros, and a flow that overflows to inf without a warning
        states = np.array([[11.0, 0.0, 1.0], [11.0, -0.0, 1.0],
                           [0.0, 5.0, 7.0], [-0.0, 5.0, 7.0],
                           [-3.0, -0.0, 0.0], [0.0, -2.5, 0.0],
                           [1e200, 1e200, 0.0]])
        params = SirParams(beta, 0.1)
        assert _same_bits(sir_derivative_rows(states, params),
                          reference_rows(states, params))

    @pytest.mark.parametrize("step", [None, 0.07])
    @pytest.mark.parametrize("name", SIR_CONFIGS)
    def test_simulate_derivs(self, name, step):
        # 0.07 does not divide the horizon: the last sample is at 200.06
        config = _shipped(name)
        traj = simulate_sir(config.params, config.init, config.horizon,
                            step or config.step)
        assert _same_bits(traj.derivs, reference_rows(traj.states, config.params))


class TestR0:
    def test_ratio(self):
        assert sir_r0(SirParams(0.06, 0.1)) == pytest.approx(0.6, rel=1e-12)
        assert sir_r0(SirParams(0.1, 0.2)) == pytest.approx(0.5, rel=1e-12)

    def test_equal_rates_give_one(self):
        assert sir_r0(SirParams(0.37, 0.37)) == 1.0


class TestPredictions:
    def test_endemic_plugin_values(self):
        pred = sir_endemic_prediction(SirParams(0.2, 0.1), 12.0)
        assert pred.s_inf == pytest.approx(6.0, rel=1e-12)
        assert pred.i_inf == pytest.approx(60.0, rel=1e-12)
        assert pred.r_inf == pytest.approx(6.0, rel=1e-12)

        pred = sir_endemic_prediction(SirParams(0.5, 0.25), 1.0)
        assert pred.s_inf == pytest.approx(0.5, rel=1e-12)
        assert pred.i_inf == pytest.approx(2.0, rel=1e-12)
        assert pred.r_inf == pytest.approx(0.5, rel=1e-12)

    def test_boundary_is_not_endemic(self):
        with pytest.raises(NotEndemic):
            sir_endemic_prediction(SirParams(0.1, 0.1), 12.0)

    @pytest.mark.parametrize("n", [12.0, 0.0, 5000.0])
    def test_disease_free(self, n):
        pred = sir_disease_free_prediction(n)
        assert (pred.s_inf, pred.i_inf, pred.r_inf) == (n, 0.0, 0.0)


class TestPeakOracle:
    def test_frozen_values(self):
        init = sir_twelve_node_init()
        assert sir_peak_oracle(sir_low_infectivity(), init) == \
            pytest.approx(PEAK_LOW, abs=1e-10)
        assert sir_peak_oracle(sir_high_infectivity(), init) == \
            pytest.approx(PEAK_HIGH, abs=1e-10)

    def test_subcritical_has_no_peak(self):
        with pytest.raises(NoPeak):
            sir_peak_oracle(SirParams(0.01, 1.0), SirState(11.0, 1.0, 0.0))


class TestSimulate:
    def test_peak_matches_oracle_and_reference(self):
        traj = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(),
                            200.0, 0.01)
        max_i = float(traj.column("I").max())
        assert max_i == pytest.approx(PEAK_LOW, rel=5e-3)
        assert max_i == pytest.approx(7.189, rel=5e-3)

    def test_high_infectivity_peak(self):
        traj = simulate_sir(sir_high_infectivity(), sir_twelve_node_init(),
                            200.0, 0.01)
        assert float(traj.column("I").max()) == pytest.approx(9.954, rel=5e-3)

    def test_conservation(self):
        traj = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(),
                            200.0, 0.01)
        assert np.abs(traj.totals() - 12.0).max() <= 1e-9 * 12.0

    def test_monotone_susceptible_and_recovered(self):
        traj = simulate_sir(sir_high_infectivity(), sir_twelve_node_init(),
                            200.0, 0.01)
        assert np.all(np.diff(traj.column("S")) <= 1e-12 * 12.0)
        assert np.all(np.diff(traj.column("R")) >= -1e-12 * 12.0)

    def test_disease_free_invariant(self):
        traj = simulate_sir(SirParams(0.4, 0.2), SirState(9.0, 0.0, 3.0),
                            50.0, 0.01)
        assert np.all(traj.column("S") == 9.0)
        assert np.all(traj.column("I") == 0.0)
        assert np.all(traj.column("R") == 3.0)

    def test_subcritical_infected_decreases(self):
        traj = simulate_sir(SirParams(0.01, 1.0), SirState(11.0, 1.0, 0.0),
                            20.0, 0.01)
        assert np.all(np.diff(traj.column("I")) <= 0.0)

    def test_step_halving_agreement(self):
        a = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(), 200.0, 0.01)
        b = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(), 200.0, 0.005)
        shared = b.states[::2]
        rel = np.abs(a.states - shared) / np.maximum(np.abs(shared), 1e-30)
        assert rel.max() < 1e-6

    def test_oversized_step_aborts(self):
        with pytest.raises(StepTooLarge):
            simulate_sir(SirParams(0.2, 0.1), SirState(11.0, 1.0, 0.0),
                         60.0, 30.0)

    def test_deterministic(self):
        a = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(), 50.0, 0.01)
        b = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(), 50.0, 0.01)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.derivs, b.derivs)
