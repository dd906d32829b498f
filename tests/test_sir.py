import re

import numpy as np
import pytest

from pseirs import (NoPeak, NotEndemic, SirParams, SirState, StepTooLarge,
                    simulate_sir, sir_derivatives, sir_disease_free_prediction,
                    sir_endemic_prediction, sir_peak_oracle, sir_r0)
from pseirs.scenario import _rebuilt, write_trajectory_csv

import reference_sir
from shipped import (shipped, sir_high_infectivity, sir_low_infectivity,
                     sir_twelve_node_init)

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


class TestStatesOnly:
    @pytest.mark.parametrize("name", SIR_CONFIGS)
    def test_no_derivative_rows(self, name, tmp_path):
        # no delayed lookup reads an SIR trajectory: neither a solve nor the
        # trajectory analyze reads back from its CSV holds derivative rows
        config = shipped(name)
        traj = simulate_sir(config.params, config.init, config.horizon,
                            config.step)
        assert traj.derivs is None
        write_trajectory_csv(traj, tmp_path / "trajectory.csv")
        stored, _, _ = _rebuilt(config, tmp_path / "trajectory.csv")
        assert stored.derivs is None
        assert np.array_equal(stored.states, traj.states)


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
        with pytest.raises(StepTooLarge) as got:
            simulate_sir(SirParams(0.2, 0.1), SirState(11.0, 1.0, 0.0),
                         60.0, 30.0)
        # the delayed solver's report: the compartment, its value and t
        assert re.fullmatch(r"compartment I=-\S+ fell below "
                            r"-1\.2000000000000002e-08 at t=30\.0; "
                            r"reduce the step", str(got.value))

    def test_deterministic(self):
        a = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(), 50.0, 0.01)
        b = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(), 50.0, 0.01)
        assert np.array_equal(a.states, b.states)


class TestReferenceLoop:
    """The inline RK4 loop against the closure-based one it replaced
    (``tests/reference_sir.py``): the same bits, the same aborts."""

    @pytest.mark.parametrize("name, step", [
        ("sir_high_infectivity.json", None),
        ("sir_low_infectivity.json", None),
        # a step that does not divide the horizon
        ("sir_high_infectivity.json", 0.07),
    ])
    def test_states_bit_identical(self, name, step):
        config = shipped(name)
        args = (config.params, config.init, config.horizon,
                config.step if step is None else step)
        got, want = simulate_sir(*args), reference_sir.simulate_sir(*args)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.times.tobytes() == want.times.tobytes()

    def test_negative_zero_susceptible(self):
        # s = -0.0 passes SirState; every zero keeps the reference's sign
        args = (SirParams(0.2, 0.1), SirState(-0.0, 1.0, 0.0), 5.0, 0.1)
        got, want = simulate_sir(*args), reference_sir.simulate_sir(*args)
        assert got.states.tobytes() == want.states.tobytes()

    def test_undershoot_abort_matches(self):
        # I falls below the floor at the second step, t = 5.0
        args = (SirParams(0.2, 0.1), SirState(11.0, 1.0, 0.0), 60.0, 2.5)
        with pytest.raises(StepTooLarge) as got:
            simulate_sir(*args)
        with pytest.raises(StepTooLarge) as want:
            reference_sir.simulate_sir(*args)
        assert str(got.value) == str(want.value)
