import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from pseirs import (ConstantHistory, HistoryFunction,
                    InvalidParameter, OutOfDomain, PseirsParams,
                    SampledHistory, SirParams, SirState, Trajectory, kappa,
                    simulate_pseirs, simulate_sir)
from pseirs.core import MAX_STEPS
from pseirs.dde import default_step
from pseirs.presets import baseline_history

from reference_dde import sampled_raw_at

finite_counts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)


def make_params(**overrides):
    base = dict(beta=0.330, mu=0.006, epsilon=0.060, alpha=0.040,
                gamma=0.308, omega=0.15, tau=30.0, p=1.0)
    base.update(overrides)
    return PseirsParams(**base)


class _RowsAtOnly(HistoryFunction):
    """A sampled history that defines only the two abstract methods."""

    def __init__(self, times, states):
        self._sampled = SampledHistory(times, states)

    def rows_at(self, x):
        return self._sampled.rows_at(x)

    def domain_start(self):
        return self._sampled.domain_start()


def _wave_history():
    times = np.linspace(-30.0, 0.0, 13)
    wave = np.sin(times / 4.0)
    states = np.column_stack([63.0 + 2.0 * wave, 0.5 + 0.25 * wave,
                              7.0 - 1.5 * wave, 3.0 + np.cos(times / 7.0)])
    return times, states


def _history_times(times):
    # the sample times, both zeros, the smallest subnormals, t > 0, the left
    # end and 200 random times inside
    inner = np.random.default_rng(5).uniform(-30.0, 0.0, 200)
    return np.concatenate([times, inner, [-0.0, 5e-324, 0.5, -5e-324, -30.0]])


class TestPseirsParams:
    def test_baseline_parameters_validate(self):
        # dataclasses.replace re-runs the checks, as a derived gamma needs
        params = make_params()
        assert dataclasses.replace(params, gamma=0.5).gamma == 0.5
        with pytest.raises(InvalidParameter) as err:
            dataclasses.replace(params, gamma=-0.5)
        assert err.value.name == "gamma"

    def test_immunity_probability_bound(self):
        with pytest.raises(InvalidParameter) as err:
            make_params(p=1.5)
        assert err.value.name == "p"
        assert err.value.value == 1.5

    def test_zero_latency_rejected(self):
        with pytest.raises(InvalidParameter) as err:
            make_params(omega=0.0)
        assert err.value.name == "omega"

    @pytest.mark.parametrize("field", ["beta", "mu", "epsilon", "alpha", "gamma"])
    def test_negative_rates_rejected(self, field):
        with pytest.raises(InvalidParameter):
            make_params(**{field: -0.1})

    def test_zero_immunity_period_rejected(self):
        with pytest.raises(InvalidParameter):
            make_params(tau=0.0)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidParameter):
            make_params(gamma=float("nan"))


class TestKappa:
    @pytest.mark.parametrize("omega,tau,expected", [
        (0.15, 30.0, 30.0),
        (30.0, 30.0, 30.0),
        (30.0, 1.0, 30.0),
    ])
    def test_values(self, omega, tau, expected):
        assert kappa(make_params(omega=omega, tau=tau)) == expected

    @given(omega=st.floats(1e-6, 1e3), tau=st.floats(1e-6, 1e3))
    def test_dominates_both_delays(self, omega, tau):
        params = make_params(omega=omega, tau=tau)
        assert kappa(params) >= params.omega
        assert kappa(params) >= params.tau


class TestConstantHistory:
    @given(s=finite_counts, e=finite_counts, i=finite_counts, r=finite_counts)
    def test_total_is_exact_sum(self, s, e, i, r):
        rows = ConstantHistory(s, e, i, r).rows_at(np.array([-1.0, 0.0]))
        traj = Trajectory(times=[0.0, 1.0], states=rows, step=1.0,
                          labels=("S", "E", "I", "R"))
        assert traj.totals().tolist() == [s + e + i + r] * 2

    def test_rejects_non_finite(self):
        # named as a config's history block names it, as SirState names init.*
        for value in (math.inf, -math.inf, math.nan):
            with pytest.raises(InvalidParameter) as err:
                ConstantHistory(1.0, value, 0.0, 0.0)
            assert err.value.name == "history.e"


class TestSirTypes:
    def test_sir_params_bounds(self):
        SirParams(beta=0.0, alpha=0.1)
        with pytest.raises(InvalidParameter):
            SirParams(beta=-0.1, alpha=0.1)
        with pytest.raises(InvalidParameter):
            SirParams(beta=0.1, alpha=0.0)

    def test_sir_state_total(self):
        traj = simulate_sir(SirParams(0.0, 0.1), SirState(11.0, 1.0, 0.0),
                            1.0, 0.5)
        assert traj.totals()[0] == 12.0


class TestHistories:
    def test_constant_history_covers_everything(self):
        hist = ConstantHistory(63.0, 0.0, 7.0, 0.0)
        assert hist.covers(1e9)
        rows = hist.rows_at(np.array([-30.0, 0.0]))
        assert rows.tolist() == [[63.0, 0.0, 7.0, 0.0]] * 2
        assert rows.sum(axis=1).tolist() == [70.0, 70.0]

    def test_constant_history_rejects_negative_states(self):
        with pytest.raises(InvalidParameter):
            ConstantHistory(63.0, 0.0, -7.0, 0.0)

    def test_sampled_history_interpolates(self):
        times = np.array([-2.0, -1.0, 0.0])
        states = np.array([[4.0, 0.0, 2.0, 0.0],
                           [2.0, 0.0, 1.0, 0.0],
                           [2.0, 0.0, 3.0, 0.0]])
        hist = SampledHistory(times, states)
        assert hist.covers(2.0)
        assert not hist.covers(2.5)
        rows = hist.rows_at(np.array([-2.0, -1.5]))
        assert rows[0].tolist() == [4.0, 0.0, 2.0, 0.0]
        assert rows[1].tolist() == pytest.approx([3.0, 0.0, 1.5, 0.0])
        with pytest.raises(OutOfDomain):
            hist.rows_at(np.array([-2.5]))

    def test_rows_at_matches_scalar_reference(self):
        hist = SampledHistory(*_wave_history())
        x = _history_times(hist.times)
        want = np.array([sampled_raw_at(hist, t) for t in x.tolist()],
                        dtype=float)
        assert hist.rows_at(x).tobytes() == want.tobytes()
        assert hist.rows_at(x[:0]).shape == (0, 4)

    @pytest.mark.parametrize("kind", ["sampled", "constant", "rows_at_only"])
    def test_rows_at_matches_raw_at(self, kind):
        times, states = _wave_history()
        hist = {"sampled": SampledHistory(times, states),
                "constant": ConstantHistory(63.0, 0.0, -0.0, 0.0),
                "rows_at_only": _RowsAtOnly(times, states)}[kind]
        x = _history_times(times)
        rows = hist.rows_at(x)
        # one time at a time, the rows of the whole array
        one = [hist.rows_at(np.array([t]))[0] for t in x.tolist()]
        assert np.array(one).tobytes() == rows.tobytes()

    def test_rows_at_and_domain_start_make_a_history(self):
        assert HistoryFunction.__abstractmethods__ == {"rows_at", "domain_start"}
        hist = _RowsAtOnly(*_wave_history())
        assert hist.covers(30.0) and not hist.covers(30.5)
        rows = hist.rows_at(np.array([-30.0, 0.0]))
        assert rows.tobytes() == hist._sampled.states[[0, -1]].tobytes()

    @pytest.mark.parametrize("cls", [SampledHistory, _RowsAtOnly])
    def test_rows_at_out_of_domain_names_the_first_time(self, cls):
        times, states = np.array([-2.0, -1.0, 0.0]), np.ones((3, 4))
        hist = cls(times, states)
        with pytest.raises(OutOfDomain) as want:
            sampled_raw_at(SampledHistory(times, states), -2.5)
        with pytest.raises(OutOfDomain) as got:
            hist.rows_at(np.array([-1.0, -2.5, -3.0]))
        assert str(got.value) == str(want.value)

    def test_sampled_history_validation(self):
        good_states = np.ones((3, 4))
        with pytest.raises(InvalidParameter):
            SampledHistory(np.array([-2.0, -1.0, -0.5]), good_states)  # no t=0
        with pytest.raises(InvalidParameter):
            SampledHistory(np.array([-2.0, -2.0, 0.0]), good_states)  # not increasing
        bad = good_states.copy()
        bad[1, 2] = -1.0
        with pytest.raises(InvalidParameter):
            SampledHistory(np.array([-2.0, -1.0, 0.0]), bad)


class TestTrajectory:
    def _build(self, times, step):
        n = len(times)
        states = np.ones((n, 4))
        return Trajectory(times=times, states=states, step=step,
                          labels=("S", "E", "I", "R"))

    def test_uniform_spacing_enforced(self):
        with pytest.raises(InvalidParameter):
            self._build(np.array([0.0, 0.1, 0.3]), 0.1)

    def test_grid_must_start_at_zero(self):
        with pytest.raises(InvalidParameter):
            self._build(np.array([1.0, 1.1, 1.2]), 0.1)

    def test_arrays_are_read_only(self):
        traj = self._build(np.arange(5) * 0.1, 0.1)
        assert traj.derivs is None
        with pytest.raises(ValueError):
            traj.states[0, 0] = 2.0
        traj = dataclasses.replace(traj, derivs=np.zeros((5, 4)))
        with pytest.raises(ValueError):
            traj.derivs[0, 0] = 2.0

    def test_columns_and_fractions(self):
        traj = self._build(np.arange(5) * 0.1, 0.1)
        assert np.all(traj.column("I") == 1.0)
        assert np.all(traj.totals() == 4.0)
        assert np.all(traj.fractions() == 0.25)


@pytest.mark.parametrize("steps", [math.inf, MAX_STEPS + 1, 1e30])
def test_solvers_refuse_more_than_max_steps(steps):
    # the limit the config parser applies, raised before any allocation:
    # an infinite horizon used to end in OverflowError from ceil(), and
    # simulate_sir at 1e30 steps looped, growing its lists
    params = make_params()
    h = default_step(params)
    with pytest.raises(InvalidParameter) as err:
        simulate_pseirs(params, baseline_history(), steps * h, h)
    assert err.value.name == "step"
    with pytest.raises(InvalidParameter) as err:
        simulate_sir(SirParams(beta=0.001, alpha=0.1),
                     SirState(s=990.0, i=10.0, r=0.0), steps * 0.01, 0.01)
    assert err.value.name == "step"
