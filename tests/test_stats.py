import numpy as np
import pytest

from pseirs import (EmptyWindow, InvalidParameter, Overflow, Trajectory,
                    ZeroPopulation,
                    compartment_stats, phase_plane, simulate_pseirs,
                    simulate_sir)
from pseirs.presets import (sir_high_infectivity, sir_low_infectivity,
                            sir_twelve_node_init)


def _constant_traj(value=5.0, n=11):
    times = np.arange(n, dtype=float)
    states = np.full((n, 4), value)
    return Trajectory(times=times, states=states, step=1.0,
                      labels=("S", "E", "I", "R"))


class TestCompartmentStats:
    def test_constant_trajectory(self):
        table = compartment_stats(_constant_traj(), (0.0, 10.0))
        for lo, hi, mean in table.rows.values():
            assert lo == hi == mean == 5.0

    def test_mean_past_float64_is_overflow(self):
        # finite samples whose sum is not: no numpy warning, no inf mean
        with pytest.raises(Overflow, match=r"mean of compartment S over the "
                                           r"window \[0.0, 10.0\]"):
            compartment_stats(_constant_traj(1e308), (0.0, 10.0))

    def test_reference_peaks(self):
        low = simulate_sir(sir_low_infectivity(), sir_twelve_node_init(),
                           200.0, 0.01)
        assert compartment_stats(low, (0.0, 200.0)).rows["I"][1] == \
            pytest.approx(7.189, rel=5e-3)
        high = simulate_sir(sir_high_infectivity(), sir_twelve_node_init(),
                            200.0, 0.01)
        assert compartment_stats(high, (0.0, 200.0)).rows["I"][1] == \
            pytest.approx(9.954, rel=5e-3)

    def test_min_mean_max_ordering(self, canonical_run):
        table = compartment_stats(canonical_run, (0.0, 300.0))
        for lo, hi, mean in table.rows.values():
            assert lo <= mean <= hi

    def test_window_mergeability(self, canonical_run):
        left = compartment_stats(canonical_run, (0.0, 150.0))
        right = compartment_stats(canonical_run, (150.0, 300.0))
        union = compartment_stats(canonical_run, (0.0, 300.0))
        for lab in canonical_run.labels:
            assert union.rows[lab][0] == min(left.rows[lab][0], right.rows[lab][0])
            assert union.rows[lab][1] == max(left.rows[lab][1], right.rows[lab][1])

    def test_empty_window(self, canonical_run):
        with pytest.raises(EmptyWindow):
            compartment_stats(canonical_run, (301.0, 302.0))


class TestPhasePlane:
    def test_projection_shape_and_order(self, canonical_run):
        series = phase_plane(canonical_run, ("S", "I"))
        assert series.labels == ("S", "I")
        assert series.points.shape == (len(canonical_run.times), 2)
        assert np.array_equal(series.points[:, 0], canonical_run.column("S"))

    def test_axis_permutation(self, canonical_run):
        a = phase_plane(canonical_run, ("S", "I"))
        b = phase_plane(canonical_run, ("I", "S"))
        assert np.array_equal(a.points[:, 0], b.points[:, 1])
        assert np.array_equal(a.points[:, 1], b.points[:, 0])

    def test_disease_free_run_converges_to_origin(self, canonical_params):
        from pseirs import ConstantHistory
        hist = ConstantHistory(70.0, 0.0, 0.0, 0.0)
        traj = simulate_pseirs(canonical_params, hist, 40.0)
        series = phase_plane(traj, ("E", "I", "R"), proportions=True)
        assert series.labels == ("e", "i", "r")
        assert np.all(series.points[-1] == 0.0)

    def test_endemic_tail_cloud_is_settled(self, endemic_run):
        traj, _ = endemic_run
        series = phase_plane(traj, ("S", "E", "I"), window=(360.0, 400.0),
                             proportions=True)
        diameter = series.points.max(axis=0) - series.points.min(axis=0)
        assert np.all(diameter <= 1e-3)

    def test_proportions_match_fractions_bitwise(self, canonical_run):
        series = phase_plane(canonical_run, ("S", "E", "I"), window=(1.0, 9.0),
                             proportions=True)
        mask = (canonical_run.times >= 1.0) & (canonical_run.times <= 9.0)
        want = canonical_run.fractions()[mask][:, :3]
        assert series.points.tobytes() == np.ascontiguousarray(want).tobytes()

    def test_proportions_refuse_zero_population(self):
        # a SIR trajectory may hold N = 0 rows; only a row inside the window
        # makes the proportions undefined
        times = np.arange(11, dtype=float)
        states = np.full((11, 3), 2.0)
        states[[2, 7]] = 0.0
        traj = Trajectory(times=times, states=states, step=1.0,
                          labels=("S", "I", "R"))
        with pytest.raises(ZeroPopulation, match=r"at t=7\.0; proportions"):
            phase_plane(traj, ("S", "I"), window=(4.0, 10.0), proportions=True)
        series = phase_plane(traj, ("S", "I"), window=(3.0, 6.0),
                             proportions=True)
        assert np.all(series.points == 1.0 / 3.0)

    def test_axis_validation(self, canonical_run):
        with pytest.raises(InvalidParameter):
            phase_plane(canonical_run, ("S",))
        with pytest.raises(InvalidParameter):
            phase_plane(canonical_run, ("S", "S"))
        with pytest.raises(InvalidParameter):
            phase_plane(canonical_run, ("S", "X"))

    def test_csv_round_trip(self, canonical_run):
        series = phase_plane(canonical_run, ("S", "I"), window=(0.0, 1.0))
        text = series.to_csv_text()
        lines = text.strip().split("\n")
        assert lines[0] == "S,I"
        parsed = np.array([[float(v) for v in line.split(",")]
                           for line in lines[1:]])
        assert np.array_equal(parsed, series.points)

