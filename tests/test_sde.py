import sys
import threading

import numpy as np
import pytest

from fpcontrol.errors import ReflectionError
from fpcontrol.model import ControlSchedule, DispersionSpec, State, drift
from fpcontrol.ode import integrate
from fpcontrol.sde import (
    _MAX_REFLECTIONS,
    PathEnsemble,
    _reflect,
    marginal_histogram,
    sample_gaussian_in_box,
    simulate_paths,
)

from conftest import weak_patient, zero_drift_params

NO_NOISE = DispersionSpec(scale=0.0, exponent=0.0, offset=0.0)


def reference_reflect(x, lo, hi, dt):
    """Full-array mirror sweep on the (n_paths, 4) state."""
    for _ in range(_MAX_REFLECTIONS):
        below = x < lo
        above = x > hi
        if not (below.any() or above.any()):
            return x
        x = np.where(below, 2.0 * lo - x, x)
        x = np.where(above, 2.0 * hi - x, x)
    raise ReflectionError(f"reflection did not settle (dt {dt:g})")


def reference_paths(x0, u, q, n_paths, n_steps, seed, t_end, disp, observe_at):
    """Plain row-major Euler-Maruyama loop with one thread drawing the noise.

    Returns the samples and how many entries crossed each wall.
    """
    lo = np.zeros(4)
    hi = np.full(4, 6.0)
    rng = np.random.Generator(np.random.Philox(key=seed))
    if isinstance(x0, State):
        x = np.tile(x0.as_array(), (n_paths, 1))
    elif callable(x0):
        x = np.asarray(x0(rng), dtype=float)
    else:
        x = np.tile(np.asarray(x0, dtype=float), (n_paths, 1))
    dt = t_end / n_steps
    sqrt_dt = np.sqrt(dt)
    obs = {int(s): i for i, s in enumerate(np.rint(observe_at / dt).astype(int))}
    samples = np.empty((observe_at.size, n_paths, 4))
    if 0 in obs:
        samples[obs[0]] = x
    crossed = np.zeros(2, dtype=int)
    for m in range(n_steps):
        u_t = (0.0, 0.0) if u is None else u.at_time(m * dt)
        fx = np.column_stack(drift((x[:, 0], x[:, 1], x[:, 2], x[:, 3]), u_t, q))
        sigma = disp.sigma(np.clip(x, 0.0, None))
        noise = rng.standard_normal((n_paths, 4))
        x = x + fx * dt + sigma * sqrt_dt * noise
        crossed += [np.sum(x < lo), np.sum(x > hi)]
        x = reference_reflect(x, lo, hi, dt)
        if m + 1 in obs:
            samples[obs[m + 1]] = x
    return samples, crossed


class TestBitIdenticalEnsemble:
    """simulate_paths reproduces the plain loop's ensemble bit for bit."""

    DISP = DispersionSpec(scale=1.2, exponent=1.2, offset=0.001)
    TIMES = np.array([0.0, 0.4, 1.0])

    def _schedule(self):
        rng = np.random.default_rng(17)
        t = np.linspace(0.0, 1.0, 11)
        return ControlSchedule(t, rng.uniform(0.0, 5.0, t.size),
                               rng.uniform(0.0, 0.072, t.size), 5.0, 0.072)

    def _assert_same(self, x0, u, n_paths, n_steps=100, seed=23):
        q = weak_patient()
        got = simulate_paths(x0, u, q, n_paths, n_steps, seed=seed, t_end=1.0,
                             disp=self.DISP, observe_at=self.TIMES)
        want, crossed = reference_paths(x0, u, q, n_paths, n_steps, seed, 1.0,
                                        self.DISP, self.TIMES)
        assert np.array_equal(got.samples, want)
        return crossed

    def test_callable_start_at_both_walls_under_a_schedule(self):
        def at_walls(rng):
            low = rng.uniform(0.0, 0.05, (300, 4))
            return np.where(rng.uniform(size=(300, 4)) < 0.5, low, 6.0 - low)

        below, above = self._assert_same(at_walls, self._schedule(), 300)
        assert below > 0 and above > 0

    def test_state_start(self):
        self._assert_same(State(0.5, 1.0, 1.0, 1.0), self._schedule(), 200)

    def test_array_start_without_dosing(self):
        self._assert_same(np.array([5.9, 0.1, 3.0, 3.0]), None, 200)

    def test_single_path(self):
        self._assert_same(State(0.1, 5.9, 1.0, 1.0), self._schedule(), 1)

    def test_noise_handoff_under_frequent_thread_switches(self):
        # a buffer the worker refills while the step still reads it changes
        # the ensemble in most runs at this size, where each draw outlasts
        # the worker's wake-up and threads switch every microsecond
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._assert_same(State(0.5, 1.0, 1.0, 1.0), self._schedule(), 50_000,
                              n_steps=20)
        finally:
            sys.setswitchinterval(interval)


class TestSimulatePaths:
    def test_zero_noise_reduces_to_euler(self):
        q = weak_patient()
        x0 = State(0.5, 1.0, 1.0, 1.0)
        n_steps = 50
        ens = simulate_paths(x0, None, q, n_paths=3, n_steps=n_steps, seed=7,
                             t_end=1.0, disp=NO_NOISE)
        # all paths identical and equal to the explicit Euler recursion
        assert np.array_equal(ens.samples[:, 0, :], ens.samples[:, 1, :])
        x = x0.as_array()
        dt = 1.0 / n_steps
        from fpcontrol.model import drift

        for _ in range(n_steps):
            x = x + drift(x, (0.0, 0.0), q) * dt
        assert np.allclose(ens.samples[-1, 0], x, rtol=1e-13)

    def test_zero_noise_converges_to_rk4(self):
        q = weak_patient()
        x0 = State(0.5, 1.0, 1.0, 1.0)
        traj = integrate(x0, None, q, 2.0, 2000)
        gaps = []
        for n_steps in (100, 800):
            ens = simulate_paths(x0, None, q, 1, n_steps, seed=0, t_end=2.0,
                                 disp=NO_NOISE)
            gaps.append(np.max(np.abs(ens.samples[-1, 0] - traj.states[-1])))
        assert gaps[1] < 0.2 * gaps[0]
        assert gaps[1] < 1e-3

    def test_seed_determinism(self):
        q = weak_patient()
        kw = dict(u=None, q=q, n_paths=500, n_steps=40, seed=99, t_end=1.0)
        a = simulate_paths(State(0.5, 1.0, 1.0, 1.0), **kw)
        b = simulate_paths(State(0.5, 1.0, 1.0, 1.0), **kw)
        assert np.array_equal(a.samples, b.samples)

    def test_reflection_keeps_paths_inside(self):
        q = zero_drift_params()
        disp = DispersionSpec(scale=2.0, exponent=0.0, offset=0.0)
        ens = simulate_paths(State(3.0, 3.0, 3.0, 3.0), None, q, 400, 200,
                             seed=3, t_end=5.0, disp=disp,
                             observe_at=np.linspace(0.0, 5.0, 11))
        assert np.all(ens.samples >= 0.0)
        assert np.all(ens.samples <= 6.0)

    def test_oversized_steps_raise_reflection_error(self):
        q = zero_drift_params()
        disp = DispersionSpec(scale=1e6, exponent=0.0, offset=0.0)
        threads = threading.active_count()
        with pytest.raises(ReflectionError):
            simulate_paths(State(3.0, 3.0, 3.0, 3.0), None, q, 16, 1,
                           seed=1, t_end=1.0, disp=disp)
        # the noise worker is joined on the error path too
        assert threading.active_count() == threads

    def test_reflected_brownian_approaches_uniform(self):
        q = zero_drift_params()
        disp = DispersionSpec(scale=1.5, exponent=0.0, offset=0.0)
        ens = simulate_paths(State(1.0, 1.0, 1.0, 1.0), None, q, 4000, 400,
                             seed=11, t_end=20.0, disp=disp)
        final = ens.states_at(1)
        # uniform on (0, 6): mean 3, variance 3
        assert np.allclose(final.mean(axis=0), 3.0, atol=0.15)
        assert np.allclose(final.var(axis=0), 3.0, atol=0.25)

    def test_weak_convergence_in_step_count(self):
        q = weak_patient()
        sampler = lambda rng: sample_gaussian_in_box(
            [0.5, 1.0, 1.0, 1.0], 0.1, [0.0] * 4, [6.0] * 4, 4000, rng)
        coarse = simulate_paths(sampler, None, q, 4000, 100, seed=5, t_end=2.0)
        fine = simulate_paths(sampler, None, q, 4000, 200, seed=5, t_end=2.0)
        mean_c = coarse.states_at(1).mean(axis=0)
        mean_f = fine.states_at(1).mean(axis=0)
        se = fine.states_at(1).std(axis=0) / np.sqrt(4000)
        assert np.all(np.abs(mean_c - mean_f) < 3.0 * se + 5e-3)

    def test_controls_change_the_dynamics(self):
        q = weak_patient()
        u = ControlSchedule.constant(1.0, 10, 5.0, 0.0, 7.0, 0.072)
        dosed = simulate_paths(State(1.0, 1.0, 1.0, 1.0), u, q, 200, 100,
                               seed=2, t_end=1.0, disp=NO_NOISE)
        free = simulate_paths(State(1.0, 1.0, 1.0, 1.0), None, q, 200, 100,
                              seed=2, t_end=1.0, disp=NO_NOISE)
        assert dosed.samples[-1, 0, 0] < free.samples[-1, 0, 0]


class TestReflect:
    LO = np.zeros(4)
    HI = np.full(4, 6.0)

    def test_repeated_sweeps_settle_and_inside_entries_keep_their_bits(self):
        rng = np.random.default_rng(5)
        x = rng.uniform(0.0, 6.0, (4, 7))
        x[2, 3] = -13.0     # -> 13 (above), -> -1 (below), -> 1
        x[0, 5] = 6.25
        before = x.copy()
        want = reference_reflect(before.T, self.LO, self.HI, 0.1).T
        _reflect(x, self.LO, self.HI, 0.1)
        assert x[2, 3] == 1.0
        assert x[0, 5] == 5.75
        assert np.array_equal(x, want)
        inside = np.ones_like(x, dtype=bool)
        inside[2, 3] = inside[0, 5] = False
        assert np.array_equal(x[inside].view(np.uint64), before[inside].view(np.uint64))

    def test_entry_that_will_not_settle_raises(self):
        x = np.full((4, 2), 3.0)
        x[1, 0] = 6.0 * (_MAX_REFLECTIONS + 2)
        with pytest.raises(ReflectionError, match="did not settle"):
            _reflect(x, self.LO, self.HI, 0.5)


class TestSampler:
    def test_samples_inside_box_with_matching_moments(self, rng):
        pts = sample_gaussian_in_box([0.5, 1.0, 1.0, 1.0], 0.09,
                                     [0.0] * 4, [6.0] * 4, 20000, rng)
        assert pts.shape == (20000, 4)
        assert np.all(pts >= 0.0) and np.all(pts <= 6.0)
        # truncation at the wall biases the tumor coordinate upward a bit
        assert abs(pts[:, 1].mean() - 1.0) < 0.01
        assert pts[:, 0].mean() > 0.5


class TestMarginalHistogram:
    def _point_ensemble(self, value, n=1000):
        samples = np.full((1, n, 4), 3.0)
        samples[0, :, 0] = value
        return PathEnsemble(seed=0, times=np.array([0.0]), samples=samples,
                            lo=np.zeros(4), hi=np.full(4, 6.0))

    def test_point_mass_lands_in_one_bin(self):
        nodes = np.linspace(0.0, 6.0, 13)
        h = nodes[1] - nodes[0]
        dens = marginal_histogram(self._point_ensemble(3.0), 0, 0, nodes)
        assert dens[6] == pytest.approx(1.0 / h)
        assert np.sum(dens > 0) == 1

    def test_normalization_under_trapezoid_weights(self, rng):
        nodes = np.linspace(0.0, 6.0, 13)
        h = nodes[1] - nodes[0]
        w = np.full(13, h)
        w[0] = w[-1] = h / 2
        samples = rng.uniform(0.0, 6.0, (1, 5000, 4))
        ens = PathEnsemble(seed=0, times=np.array([0.0]), samples=samples,
                           lo=np.zeros(4), hi=np.full(4, 6.0))
        dens = marginal_histogram(ens, 0, 2, nodes)
        assert np.sum(w * dens) == pytest.approx(1.0, rel=1e-12)

    def test_uniform_samples_give_flat_histogram(self, rng):
        nodes = np.linspace(0.0, 6.0, 13)
        samples = rng.uniform(0.0, 6.0, (1, 200000, 4))
        ens = PathEnsemble(seed=0, times=np.array([0.0]), samples=samples,
                          lo=np.zeros(4), hi=np.full(4, 6.0))
        dens = marginal_histogram(ens, 0, 0, nodes)
        assert np.max(np.abs(dens - 1.0 / 6.0)) < 0.01

    def test_empty_ensemble_rejected(self):
        ens = PathEnsemble(seed=0, times=np.array([0.0]),
                           samples=np.empty((1, 0, 4)),
                           lo=np.zeros(4), hi=np.full(4, 6.0))
        with pytest.raises(ValueError, match="empty"):
            marginal_histogram(ens, 0, 0, np.linspace(0.0, 6.0, 13))
