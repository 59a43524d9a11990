import numpy as np
import pytest

from fpcontrol.adjoint import ControlGradient, time_weights
from fpcontrol.errors import LineSearchError
from fpcontrol.model import ControlSchedule
from fpcontrol.pncg import (
    H1_EPSILON,
    PncgConfig,
    armijo_step,
    hager_zhang_beta,
    pncg,
    smooth_gradient,
)


class QuadraticProblem:
    """Separable weighted quadratic with known clipped minimizer."""

    def __init__(self, times, z1, z2):
        self.times = np.asarray(times, dtype=float)
        self.z1 = np.asarray(z1, dtype=float)
        self.z2 = np.asarray(z2, dtype=float)
        self.wt = time_weights(self.times)
        self.evaluated = []

    def objective(self, u):
        self.evaluated.append(u)
        return 0.5 * float(np.sum(self.wt * ((u.u1 - self.z1) ** 2
                                             + (u.u2 - self.z2) ** 2)))

    def gradient(self, u):
        return ControlGradient(self.times, u.u1 - self.z1, u.u2 - self.z2)


def make_quadratic(nt=20, seed=5):
    t = np.linspace(0.0, 10.0, nt + 1)
    rng = np.random.default_rng(seed)
    z1 = rng.uniform(-3.0, 10.0, nt + 1)
    z2 = rng.uniform(-0.05, 0.12, nt + 1)
    return QuadraticProblem(t, z1, z2), t, z1, z2


class TestProject:
    def test_clips_below_and_above(self):
        t = np.linspace(0.0, 10.0, 5)
        u = ControlSchedule(t, np.array([-0.3, 1.0, 8.0, 3.0, 7.0]),
                            np.array([0.01, -0.01, 0.1, 0.05, 0.0]), 7.0, 0.072)
        p = u.clipped()
        assert p.u1[0] == 0.0
        assert p.u1[2] == 7.0
        assert p.u1[3] == 3.0
        assert p.u2[1] == 0.0
        assert p.u2[2] == 0.072

    def test_identity_on_interior(self):
        u = ControlSchedule.constant(10.0, 4, 3.0, 0.05, 7.0, 0.072)
        p = u.clipped()
        assert np.array_equal(p.u1, u.u1)
        assert np.array_equal(p.u2, u.u2)


class TestArmijo:
    def test_accepts_full_step_on_quadratic(self):
        prob, t, z1, z2 = make_quadratic()
        u = ControlSchedule.zeros(10.0, 20, 7.0, 0.072)
        g = prob.gradient(u)
        gv = np.concatenate([g.g1, g.g2])
        d = -gv
        alpha, trial, j_trial, backtracks = armijo_step(
            u, d, gv, prob.objective, prob.objective(u))
        assert alpha == 1.0
        assert backtracks == 0
        assert j_trial < prob.objective(u)

    def test_zero_gradient_is_a_fixed_point(self):
        prob, t, z1, z2 = make_quadratic()
        u = ControlSchedule(t, np.clip(z1, 0, 7.0), np.clip(z2, 0, 0.072), 7.0, 0.072)
        zero = np.zeros(2 * t.size)
        alpha, trial, j_trial, _ = armijo_step(
            u, zero, zero, prob.objective, prob.objective(u))
        assert alpha == 0.0
        assert np.array_equal(trial.u1, u.u1)

    def test_backtracks_until_sufficient_decrease(self):
        # steep quadratic: full steps overshoot, backtracking shortens
        t = np.linspace(0.0, 1.0, 3)
        prob = QuadraticProblem(t, np.full(3, 0.5), np.zeros(3))
        scale = 400.0

        def j_eval(u):
            return scale * prob.objective(u)

        u = ControlSchedule.zeros(1.0, 2, 7.0, 0.072)
        g = prob.gradient(u)
        gv = scale * np.concatenate([g.g1, g.g2])
        alpha, trial, j_trial, backtracks = armijo_step(
            u, -gv, gv, j_eval, j_eval(u))
        assert backtracks > 0
        assert j_trial < j_eval(u)

    def test_exhaustion_raises(self):
        t = np.linspace(0.0, 1.0, 3)
        u = ControlSchedule.zeros(1.0, 2, 7.0, 0.072)
        ones = np.ones(2 * t.size)

        def never_decreases(_):
            return 1.0

        with pytest.raises(LineSearchError):
            armijo_step(u, ones, -ones, never_decreases, 0.5)


class TestHagerZhangBeta:
    def test_scalar_example(self):
        t = np.array([0.0, 1.0])
        ones = np.ones(4)
        assert hager_zhang_beta(3 * ones, 2 * ones, ones, t) == pytest.approx(-3.0)

    def test_zero_gradient_gives_zero(self):
        t = np.array([0.0, 1.0])
        ones = np.ones(4)
        assert hager_zhang_beta(0 * ones, 2 * ones, ones, t) == 0.0

    def test_degenerate_curvature_restarts(self):
        t = np.array([0.0, 1.0])
        ones = np.ones(4)
        assert hager_zhang_beta(3 * ones, 0 * ones, ones, t) == 0.0


class TestSmoothing:
    def test_preserves_constants(self):
        t = np.linspace(0.0, 10.0, 21)
        g = ControlGradient(t, np.full(21, 2.0), np.full(21, -1.0))
        s = smooth_gradient(g, 0.1)
        assert np.allclose(s.g1, 2.0, atol=1e-12)
        assert np.allclose(s.g2, -1.0, atol=1e-12)

    def test_damps_oscillation_keeps_sign_of_mean(self):
        t = np.linspace(0.0, 10.0, 41)
        rough = 1.0 + 0.8 * (-1.0) ** np.arange(41)
        g = ControlGradient(t, rough, np.zeros(41))
        s = smooth_gradient(g, 0.1)
        assert np.max(np.abs(s.g1 - 1.0)) < np.max(np.abs(rough - 1.0)) * 0.2


class TestPncg:
    def test_converges_to_clipped_minimizer(self):
        prob, t, z1, z2 = make_quadratic()
        u0 = ControlSchedule.zeros(10.0, 20, 7.0, 0.072)
        u, trace = pncg(u0, prob, PncgConfig(tol=1e-6, k_max=50))
        assert trace.converged
        assert trace.iterations <= 50
        assert np.max(np.abs(u.u1 - np.clip(z1, 0.0, 7.0))) < 1e-6
        assert np.max(np.abs(u.u2 - np.clip(z2, 0.0, 0.072))) < 1e-6

    def test_starting_at_optimum_terminates_immediately(self):
        prob, t, z1, z2 = make_quadratic()
        u0 = ControlSchedule(t, np.clip(z1, 0, 7.0), np.clip(z2, 0, 0.072), 7.0, 0.072)
        u, trace = pncg(u0, prob, PncgConfig(tol=1e-6))
        assert trace.converged
        assert trace.iterations == 0

    def test_objective_never_increases_and_iterates_feasible(self):
        prob, t, z1, z2 = make_quadratic(seed=12)
        u0 = ControlSchedule.zeros(10.0, 20, 7.0, 0.072)
        u, trace = pncg(u0, prob, PncgConfig(tol=1e-8, k_max=30))
        assert all(b <= a + 1e-15 for a, b in zip(trace.objective, trace.objective[1:]))
        for visited in prob.evaluated:
            assert visited.is_admissible(tol=1e-12)

    def test_trace_counts_the_accepted_backtracks(self, monkeypatch):
        import fpcontrol.pncg as pncg_module

        used = []

        def recording(*args, **kwargs):
            out = armijo_step(*args, **kwargs)
            used.append(out[3])
            return out

        monkeypatch.setattr(pncg_module, "armijo_step", recording)
        prob, t, z1, z2 = make_quadratic(seed=12)
        u0 = ControlSchedule.zeros(10.0, 20, 7.0, 0.072)
        _, trace = pncg(u0, prob, PncgConfig(tol=1e-8, k_max=10))
        assert sum(used) > 0
        assert trace.backtracks == sum(used)

    def test_restart_uses_steepest_descent_exactly(self, monkeypatch):
        # constant gradient field: y = 0 every iteration, so the guard
        # fires and the direction must equal the negated smoothed gradient
        import fpcontrol.pncg as pncg_module

        t = np.linspace(0.0, 1.0, 5)
        g = ControlGradient(t, np.ones(5), np.ones(5))

        class LinearProblem:
            def objective(self, u):
                return float(np.sum(u.u1) + np.sum(u.u2)) + 1.0

            def gradient(self, u):
                return g

        directions = []

        def recording(u, d, *args):
            directions.append(d.copy())
            return armijo_step(u, d, *args)

        monkeypatch.setattr(pncg_module, "armijo_step", recording)
        u0 = ControlSchedule.constant(1.0, 4, 3.0, 0.05, 7.0, 0.072)
        _, trace = pncg(u0, LinearProblem(), PncgConfig(tol=1e-12, k_max=4))
        assert all(b == 0.0 for b in trace.beta)
        smoothed = smooth_gradient(g, H1_EPSILON)
        assert directions
        for d in directions:
            assert np.array_equal(d, -np.concatenate([smoothed.g1, smoothed.g2]))

    def test_line_search_failure_returns_best_iterate(self):
        t = np.linspace(0.0, 1.0, 5)

        class LyingProblem:
            # gradient promises descent, objective never delivers
            def objective(self, u):
                return 1.0

            def gradient(self, u):
                return ControlGradient(t, np.ones(5), np.ones(5))

        u0 = ControlSchedule.constant(1.0, 4, 3.0, 0.05, 7.0, 0.072)
        u, trace = pncg(u0, LyingProblem(), PncgConfig(k_max=10))
        assert trace.line_search_failed
        assert np.array_equal(u.u1, u0.u1)

    def test_deterministic_trace(self):
        prob1, t, z1, z2 = make_quadratic(seed=33)
        prob2, _, _, _ = make_quadratic(seed=33)
        u0 = ControlSchedule.zeros(10.0, 20, 7.0, 0.072)
        u_a, tr_a = pncg(u0, prob1, PncgConfig(k_max=20))
        u_b, tr_b = pncg(u0, prob2, PncgConfig(k_max=20))
        assert np.array_equal(u_a.u1, u_b.u1)
        assert np.array_equal(u_a.u2, u_b.u2)
        assert tr_a.objective == tr_b.objective
        assert tr_a.beta == tr_b.beta

    def test_rejects_infeasible_start(self):
        t = np.linspace(0.0, 1.0, 3)
        u0 = ControlSchedule(t, np.array([8.0, 0.0, 0.0]), np.zeros(3), 7.0, 0.072)
        prob, _, _, _ = make_quadratic()
        with pytest.raises(ValueError, match="dose box"):
            pncg(u0, prob, PncgConfig())


class TestConfigValidation:
    def test_rejects_nonpositive_tolerance(self):
        with pytest.raises(ValueError):
            PncgConfig(tol=0.0)
