import tracemalloc
from importlib import resources

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fpcontrol.errors import MassDeviationError, SolverError
from fpcontrol.fpsolver import (
    AxisDiscretization,
    DgStepper,
    bernoulli,
    bernoulli_derivative,
    build_fp_stepper,
    mean_state,
    solve_forward,
)
from fpcontrol.grid import Grid4D
from fpcontrol.model import ControlSchedule, DispersionSpec
from fpcontrol.scenario import load_scenario
from fpcontrol.target import gaussian_on_grid

from conftest import weak_patient, zero_drift_params


def mp_bernoulli(x):
    x = mp.mpf(x)
    return mp.mpf(1) if x == 0 else x / mp.expm1(x)


def mp_bernoulli_derivative(x):
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(-0.5)
    e = mp.expm1(x)
    return (e - x * mp.exp(x)) / e**2


class TestBernoulli:
    # B(w) = w/(e^w - 1) weights the Scharfetter-Gummel face flux; B'
    # gives the bands' dose derivatives.

    def test_zero_is_one(self):
        assert bernoulli(0.0) == 1.0
        assert bernoulli_derivative(0.0) == -0.5

    def test_value_matches_high_precision(self):
        mag = np.logspace(-6.0, 1.0, 281)
        w = np.concatenate([mag, -mag, [0.0]])
        with mp.workdps(60):
            ref = [float(mp_bernoulli(x)) for x in w]
        assert np.allclose(bernoulli(w), ref, rtol=1e-13, atol=0.0)

    def test_derivative_matches_high_precision(self):
        # spans the switch between the series and the closed form at 0.2
        mag = np.logspace(-6.0, 1.0, 281)
        w = np.concatenate([mag, -mag, [0.0]])
        with mp.workdps(60):
            ref = [float(mp_bernoulli_derivative(x)) for x in w]
        assert np.allclose(bernoulli_derivative(w), ref, rtol=1e-13, atol=0.0)

    def test_unit_value_matches_high_precision(self):
        w = np.array([1.0, -1.0])
        with mp.workdps(60):
            ref = [float(mp_bernoulli(x)) for x in w]
            dref = [float(mp_bernoulli_derivative(x)) for x in w]
        assert np.allclose(bernoulli(w), ref, rtol=1e-15, atol=0.0)
        assert np.allclose(bernoulli_derivative(w), dref, rtol=1e-15, atol=0.0)

    def test_continuity_across_series_switch(self):
        # B' switches from its series to the closed form at |w| = 0.2; B
        # has no switch, and is checked where a series once took over
        # (|w| = 1e-3). Both sides of each point match mpmath, and the
        # step across it is of rounding size.
        for fn, mp_fn, s in [(bernoulli_derivative, mp_bernoulli_derivative, 0.2),
                             (bernoulli, mp_bernoulli, 1e-3)]:
            for sign in (1.0, -1.0):
                below = sign * np.nextafter(s, 0.0)
                above = sign * np.nextafter(s, 1.0)
                w = np.array([below, sign * s, above])
                got = fn(w)
                with mp.workdps(60):
                    ref = [float(mp_fn(x)) for x in w]
                assert np.allclose(got, ref, rtol=1e-15, atol=0.0)
                assert abs(got[2] - got[0]) <= 4 * np.spacing(abs(got[1]))

    def test_upwind_limits(self):
        # e^w overflows past w = 709: B -> 0 upwind and B(-w) -> w
        with np.errstate(over="raise"):
            assert bernoulli(1e4) == 0.0
            assert bernoulli(1e300) == 0.0
            assert bernoulli(-1e4) == 1e4
            assert bernoulli(-1e300) == 1e300

    @given(w=st.floats(-300.0, 300.0))
    @settings(max_examples=300, deadline=None)
    def test_reflection_identity(self, w):
        lhs, rhs = float(bernoulli(-w)), float(bernoulli(w)) + w
        assert lhs > 0.0
        assert abs(lhs - rhs) <= 1e-14 * (1.0 + abs(w))

    @given(w=st.floats(-100.0, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_derivative_matches_finite_difference(self, w):
        step = 1e-6 * max(1.0, abs(w))
        fd = (bernoulli(w + step) - bernoulli(w - step)) / (2 * step)
        assert bernoulli_derivative(w) == pytest.approx(fd, rel=1e-4, abs=1e-9)

    def test_derivative_does_not_overflow_at_large_peclet_numbers(self):
        # |w| reaches 580 at 21^4 and 1039 at 31^4; (e^w - 1)^2 overflows past 355
        mag = np.linspace(355.0, 1000.0, 60)
        w = np.concatenate([mag, -mag])
        with np.errstate(over="raise"):
            got = bernoulli_derivative(w)
        with mp.workdps(60):
            ref = [float(mp_bernoulli_derivative(x)) for x in w]
        assert np.allclose(got, ref, rtol=1e-13, atol=np.finfo(float).tiny)


def make_ou_axis(n, lo, hi, theta, center, sigma, ndim=1):
    # face data of one axis of an ndim-axis stepper: (n-1, 1, ..., 1)
    x = np.linspace(lo, hi, n)
    h = x[1] - x[0]
    xf = 0.5 * (x[:-1] + x[1:])
    column = (n - 1,) + (1,) * (ndim - 1)
    return AxisDiscretization(
        n=n, h=h,
        dface=np.full(column, 0.5 * sigma**2),
        f0_face=(-theta * (xf - center)).reshape(column),
        g1_face=np.zeros(column),
        g2_face=np.zeros(column),
    ), x, h


def make_diffusion_axis(n, lo, hi, sigma, ndim=1):
    return make_ou_axis(n, lo, hi, 0.0, 0.0, sigma, ndim)


def gauss(x, m, v):
    return np.exp(-((x - m) ** 2) / (2 * v)) / np.sqrt(2 * np.pi * v)


class TestFaceFlux:
    # The stepper's band operator applied to f is the difference of the
    # Chang-Cooper face fluxes H = (sigma^2/2) df/dx - F f over each
    # node's control length, with no flux through the walls.

    def test_uniform_density_without_drift_has_no_flux(self):
        ax, x, h = make_ou_axis(11, 0.0, 6.0, 0.0, 3.0, 0.5)
        stepper = DgStepper([ax], (11,))
        out = stepper.apply_operator(0, np.ones(11), ax.operator_bands(0.0, 0.0))
        assert np.all(out == 0.0)

    def test_zero_gradient_gives_pure_advection(self):
        # linear drift F = -theta (x - c): a constant density sees only
        # the advective flux -F f, whose difference is theta f inside
        theta = 0.7
        ax, x, h = make_ou_axis(11, 0.0, 6.0, theta, 3.0, 0.5)
        stepper = DgStepper([ax], (11,))
        out = stepper.apply_operator(0, np.full(11, 2.0), ax.operator_bands(0.0, 0.0))
        assert np.allclose(out[1:-1], theta * 2.0, rtol=1e-12)
        assert out[0] == pytest.approx(-2.0 * ax.f0_face[0] * 2.0 / h, rel=1e-12)

    def test_ou_stationary_density_has_vanishing_flux(self):
        # exact stationary Gaussian of mean-reverting drift with
        # constant noise: discrete fluxes vanish to O(h^2)
        theta, sigma, center = 1.0, 0.6, 3.0
        n = 41
        ax, x, h = make_ou_axis(n, 0.0, 6.0, theta, center, sigma)
        var = sigma**2 / (2 * theta)
        f = np.exp(-((x - center) ** 2) / (2 * var))
        stepper = DgStepper([ax], (n,))
        div = stepper.apply_operator(0, f, ax.operator_bands(0.0, 0.0))
        # the wall-free prefix sums of delta * (A f) rebuild the face fluxes
        flux = np.cumsum(ax.delta_nodes * div)[:-1]
        assert np.max(np.abs(flux)) < 0.02 * h**2 / var * np.max(f)


class TestBands:
    def test_bands_match_chang_cooper_weights(self):
        # a = D/h - F delta(w), b = -D/h - F (1 - delta(w)), delta(w) =
        # 1/w - 1/(e^w - 1); h and D are powers of two, so the solver's
        # w = h F / D is exact and only the band arithmetic is tested
        mag = np.logspace(-6.0, 3.0, 200)
        w = np.concatenate([mag, -mag, [0.0]])
        h, d = 0.5, 0.25
        column = (w.size, 1)
        ax = AxisDiscretization(n=w.size + 1, h=h, dface=np.full(column, d),
                                f0_face=(w * d / h).reshape(column),
                                g1_face=np.zeros(column), g2_face=np.zeros(column))
        lo, _, up = ax.operator_bands(0.0, 0.0)
        a = up[:-1, 0] * ax.delta_nodes[:-1, 0]
        b = -lo[1:, 0] * ax.delta_nodes[1:, 0]
        # 1 - w delta(w) cancels about |w|/2.3 digits at large w
        with mp.workdps(500):
            dh = mp.mpf(d) / h
            delta = [mp.mpf(0.5) if x == 0 else 1 / mp.mpf(x) - 1 / mp.expm1(x) for x in w]
            a_ref = [float(dh - mp.mpf(x) * dh * dl) for x, dl in zip(w, delta)]
            b_ref = [float(-dh - mp.mpf(x) * dh * (1 - dl)) for x, dl in zip(w, delta)]
        # entries below the smallest normal float carry no 13 digits
        tiny = np.finfo(float).tiny
        assert np.allclose(a, a_ref, rtol=1e-13, atol=tiny)
        assert np.allclose(b, b_ref, rtol=1e-13, atol=tiny)

    def test_fitted_faces_match_the_bernoulli_weights(self):
        # the in-place weights are B(|w|) + max(-w, 0) and B(|w|) +
        # max(w, 0), bit for bit, from w = 0 and subnormal |w| to past the
        # overflow of e^|w|; with h = D = 1 and control lengths of 1 or
        # 1/2, the bands times those lengths are the weights exactly
        mag = np.concatenate([[5e-324, 1e-310], np.logspace(-12.0, 3.0, 60)])
        w = np.concatenate([mag, -mag, [0.0, -0.0]])
        column = (w.size, 1)
        ax = AxisDiscretization(n=w.size + 1, h=1.0, dface=np.ones(column),
                                f0_face=w.reshape(column),
                                g1_face=np.zeros(column), g2_face=np.zeros(column))
        lo, _, up = ax.operator_bands(0.0, 0.0)
        want_w = ax.h * ax.drift_faces(0.0, 0.0) / ax.dface
        # w stays in the axis' first face array, where dose_face_sums reads it
        assert ax._buffers()[0][0].tobytes() == want_w.tobytes()
        b_abs = bernoulli(np.abs(want_w))
        delta = ax.delta_nodes
        assert (up[:-1] * delta[:-1]).tobytes() == (b_abs + np.maximum(-want_w, 0.0)).tobytes()
        assert (lo[1:] * delta[1:]).tobytes() == (b_abs + np.maximum(want_w, 0.0)).tobytes()

    @pytest.mark.parametrize("name", ["conservation_check", "testcase1", "oracle_check"])
    def test_off_diagonals_are_non_negative(self, name):
        # the M-matrix sign pattern holds exactly, not only to rounding
        scenario = load_scenario(str(resources.files("fpcontrol") / "scenarios" / f"{name}.scenario"))
        stepper = build_fp_stepper(scenario.grid(), scenario.nondim(), scenario.dispersion)
        rng = np.random.default_rng(5)
        doses = [(u1, u2) for u1 in (0.0, scenario.d1) for u2 in (0.0, scenario.d2)]
        doses += [(rng.uniform(0.0, scenario.d1), rng.uniform(0.0, scenario.d2))
                  for _ in range(4)]
        for u in doses:
            for j, ax in enumerate(stepper.axes):
                lo, _, up = ax.operator_bands(*u)
                assert np.all(lo[1:] >= 0.0), (u, j)
                assert np.all(up[:-1] >= 0.0), (u, j)


class TestDgStep:
    def test_uniform_density_is_equilibrium(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        q = zero_drift_params()
        f = np.full(grid.shape, 1.0 / 6.0**4)
        out = build_fp_stepper(grid, q).step(f, (0.0, 0.0), 0.1)
        # no-flux diffusion of a constant: unchanged up to solver rounding
        assert np.max(np.abs(out - f)) < 1e-13 * f.max()

    def test_mass_conserved_per_step(self, rng):
        grid = Grid4D.cube(0.0, 6.0, 11)
        q = weak_patient()
        f = gaussian_on_grid(grid, [0.5, 1.0, 1.0, 1.0], 0.2)
        stepper = build_fp_stepper(grid, q)
        for m in range(12):
            u = (rng.uniform(0, 7), rng.uniform(0, 0.072))
            f = stepper.step(f, u, 0.05)
            assert abs(grid.integrate(f) - 1.0) < 1e-10

    def test_positive_within_step_envelope(self, rng):
        # dt = 0.01 keeps the advective Courant and diffusion numbers
        # below one on this grid, inside the scheme's positivity range
        grid = Grid4D.cube(0.0, 6.0, 13)
        q = weak_patient()
        f = gaussian_on_grid(grid, [0.2, 1.0, 1.0, 1.0], 0.05)
        stepper = build_fp_stepper(grid, q)
        for m in range(25):
            u = (rng.uniform(0, 7), rng.uniform(0, 0.072))
            f = stepper.step(f, u, 0.01)
            assert f.min() >= 0.0

    def test_later_steps_allocate_only_their_result(self, rng):
        # the first step allocates the work arrays; every later one only
        # the array it returns (numpy reports its buffers to tracemalloc).
        # numpy's ufunc loops buffer up to 8192 elements per operand for a
        # call; 13^4 keeps those below a snapshot, where 9^4 would not
        grid = Grid4D.cube(0.0, 6.0, 13)
        f = gaussian_on_grid(grid, [0.5, 1.0, 1.0, 1.0], 0.2)
        stepper = build_fp_stepper(grid, weak_patient())
        tracemalloc.start()
        try:
            f = stepper.step(f, (3.0, 0.03), 0.05)
            for _ in range(3):
                u = (rng.uniform(0, 7), rng.uniform(0, 0.072))
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                f = stepper.step(f, u, 0.05)
                _, peak = tracemalloc.get_traced_memory()
                assert peak - before <= 1.25 * f.nbytes
        finally:
            tracemalloc.stop()

    def test_later_transposed_steps_replay_in_the_work_arrays(self, rng):
        # step_transpose factors in its axes' bands and rebuilds the stages,
        # forms the adjoint stages, the face sums and the products in the
        # step's work arrays and arrays it owns or borrows: a later
        # call allocates only the array it returns, last, the forward
        # step's bound. Temporaries per product and stage read 16.2 snapshots
        grid = Grid4D.cube(0.0, 6.0, 13)
        f = gaussian_on_grid(grid, [0.5, 1.0, 1.0, 1.0], 0.2)
        p = rng.normal(size=grid.shape)
        stepper = build_fp_stepper(grid, weak_patient())
        tracemalloc.start()
        try:
            stepper.step_transpose(f, stepper.step(f, (3.0, 0.03), 0.05), (3.0, 0.03), 0.05, p)
            for _ in range(3):
                u = (rng.uniform(0, 7), rng.uniform(0, 0.072))
                f_next = stepper.step(f, u, 0.05)
                tracemalloc.reset_peak()
                before, _ = tracemalloc.get_traced_memory()
                stepper.step_transpose(f, f_next, u, 0.05, p)
                _, peak = tracemalloc.get_traced_memory()
                assert peak - before <= 1.25 * f.nbytes
        finally:
            tracemalloc.stop()

    def test_rejects_face_data_of_another_rank(self):
        # 1D face data in a 2D stepper would broadcast along the wrong axis
        ax, _, _ = make_diffusion_axis(9, 0.0, 6.0, 0.4)
        with pytest.raises(ValueError, match="2 dimensions"):
            DgStepper([ax, ax], (9, 9))

    def test_heat_kernel_variance_growth(self):
        # free diffusion: marginal variance grows by sigma^2 dt per step
        sigma, dt = 0.4, 0.01
        n = 65
        ax1, x1, h = make_diffusion_axis(n, 0.0, 6.0, sigma, ndim=2)
        ax2, x2, _ = make_diffusion_axis(n, 0.0, 6.0, sigma, ndim=2)
        stepper = DgStepper([ax1, ax2], (n, n))
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        f = gauss(x1, 3.0, 0.04)[:, None] * gauss(x2, 3.0, 0.04)[None, :]
        f /= np.sum(w[:, None] * w[None, :] * f)

        def marginal_variance(field):
            marg = (w[None, :] * field).sum(axis=1)
            mean = np.sum(w * x1 * marg)
            return np.sum(w * (x1 - mean) ** 2 * marg)

        v0 = marginal_variance(f)
        steps = 10
        for _ in range(steps):
            f = stepper.step(f, (0.0, 0.0), dt)
        v1 = marginal_variance(f)
        assert (v1 - v0) / steps == pytest.approx(sigma**2 * dt, rel=0.02)

    def test_ou_transient_matches_exact_gaussian(self):
        theta, sigma = 1.0, 0.5
        n, nt, t_end = 65, 40, 1.0
        ax1, x1, h = make_ou_axis(n, 0.0, 6.0, theta, 3.0, sigma, ndim=2)
        ax2, x2, _ = make_ou_axis(n, 0.0, 6.0, theta, 3.0, sigma, ndim=2)
        stepper = DgStepper([ax1, ax2], (n, n))
        w = np.full(n, h)
        w[0] = w[-1] = h / 2
        v0, m0 = 0.16, (2.6, 3.5)
        f = gauss(x1, m0[0], v0)[:, None] * gauss(x2, m0[1], v0)[None, :]
        f /= np.sum(w[:, None] * w[None, :] * f)
        dt = t_end / nt
        for _ in range(nt):
            f = stepper.step(f, (0.0, 0.0), dt)
        vinf = sigma**2 / (2 * theta)
        v_t = v0 * np.exp(-2 * theta * t_end) + vinf * (1 - np.exp(-2 * theta * t_end))
        m1 = 3.0 + (m0[0] - 3.0) * np.exp(-theta * t_end)
        m2 = 3.0 + (m0[1] - 3.0) * np.exp(-theta * t_end)
        exact = gauss(x1, m1, v_t)[:, None] * gauss(x2, m2, v_t)[None, :]
        l1 = np.sum(w[:, None] * w[None, :] * np.abs(f - exact))
        assert l1 < 7e-3


class TestQuadratureDiagnostics:
    def test_normalized_gaussian_has_unit_mass(self):
        grid = Grid4D.cube(0.0, 6.0, 11)
        f = gaussian_on_grid(grid, [2.0, 3.0, 3.0, 3.0], 0.3)
        assert abs(grid.integrate(f) - 1.0) < 1e-8

    def test_zero_field_has_zero_mass(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        assert grid.integrate(np.zeros(grid.shape)) == 0.0

    def test_uniform_density_mean_is_domain_center(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        f = np.full(grid.shape, 1.0 / 6.0**4)
        assert np.allclose(mean_state(f, grid), [3.0, 3.0, 3.0, 3.0], atol=1e-12)

    def test_interior_gaussian_mean_matches_center(self):
        grid = Grid4D.cube(0.0, 6.0, 17)
        center = [3.0, 2.625, 3.375, 3.0]
        f = gaussian_on_grid(grid, center, 0.15)
        assert np.max(np.abs(mean_state(f, grid) - center)) < grid.h

    def test_mass_deviation_raises(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        with pytest.raises(MassDeviationError):
            mean_state(np.ones(grid.shape), grid)

    def test_nan_mass_raises(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        f = gaussian_on_grid(grid, [3.0, 3.0, 3.0, 3.0], 0.3)
        f[3, 3, 3, 3] = np.nan
        with pytest.raises(MassDeviationError):
            mean_state(f, grid)


class TestSolveForward:
    def test_pure_diffusion_approaches_uniform(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        q = zero_drift_params()
        disp = DispersionSpec(scale=2.0, exponent=0.0, offset=0.0)
        f0 = gaussian_on_grid(grid, [3.0, 3.0, 3.0, 3.0], 0.3)
        u = ControlSchedule.zeros(8.0, 40, 7.0, 0.072)
        field, diag = solve_forward(f0, u, q, grid, disp=disp)
        uniform = np.full(grid.shape, 1.0 / 6.0**4)
        d_start = grid.integrate(np.abs(field.snapshot(0) - uniform))
        d_end = grid.integrate(np.abs(field.snapshot(40) - uniform))
        assert d_end < 0.05 * d_start
        assert diag.max_mass_deviation < 1e-10

    def test_small_noise_mean_tracks_deterministic_path(self):
        # linear drift: the density mean obeys the deterministic system
        # exactly (up to weak wall contact), so the gap to the
        # trajectory is pure transport error and must shrink with h
        from fpcontrol.model import NonDimParams, State
        from fpcontrol.ode import integrate

        q = zero_drift_params()
        q = NonDimParams(**{**q.__dict__, "a": 0.3, "b": 0.0, "e": 0.2,
                            "f": 0.3, "m": 0.1, "alpha": 0.2, "beta": 0.2})
        disp = DispersionSpec(scale=0.25, exponent=0.0, offset=0.0)
        traj = integrate(State(1.0, 1.0, 1.0, 1.0), None, q, 2.0, 400)
        errs = {}
        for n in (21, 41):
            grid = Grid4D.cube(0.0, 6.0, n)
            f0 = gaussian_on_grid(grid, [1.0, 1.0, 1.0, 1.0], 0.15)
            u = ControlSchedule.zeros(2.0, 40, 7.0, 0.072)
            field, _ = solve_forward(f0, u, q, grid, disp=disp, store_every=40)
            fp_mean = mean_state(field.snapshot(40), grid, mass_tol=1e-6)
            errs[n] = np.max(np.abs(fp_mean - traj.states[-1]))
        assert errs[41] < 0.6 * errs[21]
        assert errs[41] < 0.06

    def test_checkpointed_history_matches_full(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        q = weak_patient()
        f0 = gaussian_on_grid(grid, [0.5, 1.0, 1.0, 1.0], 0.2)
        u = ControlSchedule.constant(1.0, 12, 2.0, 0.03, 7.0, 0.072)
        full, _ = solve_forward(f0, u, q, grid)
        chk, _ = solve_forward(f0, u, q, grid, store_every=5)
        for m in range(13):
            assert np.array_equal(full.snapshot(m), chk.snapshot(m)), m

    def test_rejects_bad_initial_density(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        q = weak_patient()
        u = ControlSchedule.zeros(1.0, 4, 7.0, 0.072)
        with pytest.raises(ValueError, match="mass"):
            solve_forward(np.ones(grid.shape), u, q, grid)
        f0 = gaussian_on_grid(grid, [1.0, 1.0, 1.0, 1.0], 0.3)
        with pytest.raises(ValueError, match="non-negative"):
            solve_forward(-f0, u, q, grid)

    def test_rejects_nan_in_initial_density(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        u = ControlSchedule.zeros(1.0, 4, 7.0, 0.072)
        f0 = gaussian_on_grid(grid, [1.0, 1.0, 1.0, 1.0], 0.3)
        f0[2, 2, 2, 2] = np.nan
        with pytest.raises(ValueError, match="NaN"):
            solve_forward(f0, u, weak_patient(), grid)

    def test_rejects_nonuniform_time_grid(self):
        grid = Grid4D.cube(0.0, 6.0, 7)
        q = weak_patient()
        f0 = gaussian_on_grid(grid, [1.0, 1.0, 1.0, 1.0], 0.3)
        t = np.array([0.0, 0.1, 0.3, 0.6])
        u = ControlSchedule(t, np.zeros(4), np.zeros(4), 7.0, 0.072)
        with pytest.raises(ValueError, match="uniform"):
            solve_forward(f0, u, q, grid)

    def test_negative_mass_monitor_recorded(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        q = weak_patient()
        f0 = gaussian_on_grid(grid, [0.5, 1.0, 1.0, 1.0], 0.2)
        u = ControlSchedule.zeros(0.5, 10, 7.0, 0.072)
        field, diag = solve_forward(f0, u, q, grid)
        assert diag.negative_mass.shape == (11,)
        assert np.all(diag.negative_mass >= 0)
        for m in range(11):
            negative_part = np.maximum(-field.snapshot(m), 0.0)
            assert diag.negative_mass[m] == grid.integrate(negative_part), m

    def test_nonfinite_mass_stops_the_solve(self):
        # zero noise makes every face diffusion zero, so the first step is NaN
        grid = Grid4D.cube(0.0, 6.0, 7)
        f0 = gaussian_on_grid(grid, [0.5, 1.0, 1.0, 1.0], 0.2)
        u = ControlSchedule.zeros(0.5, 4, 7.0, 0.072)
        with pytest.raises(SolverError, match="after step 1"):
            solve_forward(f0, u, weak_patient(), grid, disp=DispersionSpec(scale=0.0))



class TestMarginalClosure:
    """C's drift and noise depend on C and u1 only, and the other axes'
    operators have zero weighted column sums, so the scheme's C marginal
    is a closed 1D problem on C's faces."""

    @pytest.mark.parametrize("n", [9, 13])
    def test_c_marginal_equals_a_one_axis_solve(self, n):
        sc = load_scenario(resources.files("fpcontrol") / "scenarios" / "testcase1.scenario")
        grid = Grid4D.cube(sc.domain_lo, sc.domain_hi, n)
        q = sc.nondim()
        stepper = build_fp_stepper(grid, q, sc.dispersion)
        c = stepper.axes[3]
        line = DgStepper([AxisDiscretization(
            n=c.n, h=c.h, dface=c.dface.ravel(), f0_face=c.f0_face.ravel(),
            g1_face=c.g1_face.ravel(), g2_face=c.g2_face.ravel())], (n,))
        rng = np.random.default_rng(31)
        t = sc.time_grid()
        u = ControlSchedule(t, rng.uniform(0.0, sc.d1, t.size), rng.uniform(0.0, sc.d2, t.size),
                            sc.d1, sc.d2)
        f0 = gaussian_on_grid(grid, sc.initial_state.as_array(), sc.target_variance)
        field, _ = solve_forward(f0, u, q, grid, disp=sc.dispersion, stepper=stepper)
        p = grid.marginal(f0, 3)
        dt = t[1] - t[0]
        for m in range(field.n_steps):
            p = line.step(p, u.at_index(m), dt)
            want = grid.marginal(field.snapshot(m + 1), 3)
            assert np.max(np.abs(p - want)) <= 1e-13 * np.max(np.abs(want)), m + 1
