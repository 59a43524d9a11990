import numpy as np
import pytest

from fpcontrol.errors import DivergenceError
from fpcontrol.model import ControlSchedule, NonDimParams, State
from fpcontrol.ode import Trajectory, integrate

from conftest import strong_patient, zero_drift_params


def logistic_only() -> NonDimParams:
    q = zero_drift_params()
    return NonDimParams(**{**q.__dict__, "a": 1.0, "b": 1.0})


class TestIntegrate:
    def test_logistic_closed_form(self):
        q = logistic_only()
        traj = integrate(State(0.5, 0.0, 0.0, 0.0), None, q, 6.0, 240)
        exact = 1.0 / (1.0 + np.exp(-traj.times))
        assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8
        assert traj.states[-1, 0] == pytest.approx(1.0, abs=1e-2)

    def test_fourth_order_convergence(self):
        q = logistic_only()
        t_end = 4.0
        exact = 1.0 / (1.0 + np.exp(-t_end))
        errors = []
        for steps in (10, 20, 40):
            traj = integrate(State(0.5, 0.0, 0.0, 0.0), None, q, t_end, steps)
            errors.append(abs(traj.states[-1, 0] - exact))
        rate1 = errors[0] / errors[1]
        rate2 = errors[1] / errors[2]
        assert rate1 > 12.0
        assert rate2 > 12.0

    def test_lymphocyte_equilibrium_is_constant(self):
        q = zero_drift_params()
        q = NonDimParams(**{**q.__dict__, "alpha": 0.3, "beta": 0.1})
        c_star = q.alpha / q.beta
        traj = integrate(State(0.0, 0.0, 0.0, c_star), None, q, 5.0, 50)
        assert np.max(np.abs(traj.states[:, 3] - c_star)) < 1e-12

    def test_zero_drift_returns_constant_trajectory(self):
        q = zero_drift_params()
        x0 = State(0.4, 0.3, 0.2, 0.1)
        traj = integrate(x0, None, q, 3.0, 30)
        assert np.allclose(traj.states, x0.as_array(), atol=1e-15)

    def test_divergence_error_names_failing_time(self):
        q = zero_drift_params()
        # strong exponential growth overflows in finite time
        q = NonDimParams(**{**q.__dict__, "m": 50.0})
        with pytest.raises(DivergenceError) as err:
            integrate(State(0.0, 0.0, 1.0, 0.0), None, q, 50.0, 100)
        assert err.value.time > 0.0

    def test_strong_immune_response_clears_tumor(self):
        q = strong_patient()
        traj = integrate(State(0.2, 1.0, 1.0, 1.0), None, q, 10.0, 1000)
        tumor = traj.states[:, 0]
        assert np.all(np.diff(tumor) < 0)
        assert tumor[-1] < 0.05
        assert np.all(traj.states >= 0.0)
        assert np.all(traj.states <= 6.0)

    def test_negative_undershoot_is_clipped(self):
        # violent quadratic self-limitation makes coarse RK4 overshoot
        # below zero; the integrator clips and counts it
        q = zero_drift_params()
        q = NonDimParams(**{**q.__dict__, "a": 8.0, "b": 1.0})
        traj = integrate(State(3.0, 0.0, 0.0, 0.0), None, q, 2.0, 4)
        assert np.all(traj.states >= 0.0)
        assert traj.clip_events > 0

    def test_controls_enter_through_interpolation(self):
        q = zero_drift_params()
        q = NonDimParams(**{**q.__dict__, "alpha4": 1.0})
        u = ControlSchedule.constant(2.0, 10, 1.0, 0.0, 7.0, 0.072)
        traj = integrate(State(0.0, 0.0, 0.0, 1.0), u, q, 2.0, 200)
        # dC/dt = -u1*C with u1 = 1 gives exponential decay
        assert traj.states[-1, 3] == pytest.approx(np.exp(-2.0), rel=1e-6)


class TestTrajectory:
    def test_validation(self):
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 0.0]), states=np.zeros((2, 4)))
        with pytest.raises(ValueError):
            Trajectory(times=np.array([0.0, 1.0]), states=-np.ones((2, 4)))

    def test_interpolation(self):
        traj = Trajectory(times=np.array([0.0, 1.0]),
                          states=np.array([[0.0, 0.0, 0.0, 0.0], [1.0, 2.0, 3.0, 4.0]]))
        mid = traj.state_at(0.5)
        assert np.allclose(mid, [0.5, 1.0, 1.5, 2.0])

    def test_csv_round_trip(self, tmp_path):
        # the layout the pipeline writes to target_trajectory.csv
        from fpcontrol.io_utils import read_csv, write_csv

        traj = Trajectory(times=np.linspace(0, 1, 5), states=np.random.default_rng(0).random((5, 4)))
        path = tmp_path / "traj.csv"
        write_csv(path, ["t", "T", "N", "L", "C"], np.column_stack([traj.times, traj.states]))
        header, rows = read_csv(path)
        assert header == ["t", "T", "N", "L", "C"]
        assert np.array_equal(rows[:, 0], traj.times)
        assert np.array_equal(rows[:, 1:], traj.states)
