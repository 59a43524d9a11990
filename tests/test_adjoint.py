import tracemalloc

import numpy as np
import pytest

from fpcontrol import fpsolver
from fpcontrol.adjoint import adjoint_gradient, gradient_check, objective
from fpcontrol.fpsolver import AxisDiscretization, DensityField, build_fp_stepper, solve_forward
from fpcontrol.grid import Grid4D
from fpcontrol.model import ControlSchedule, DispersionSpec, State
from fpcontrol.ode import integrate
from fpcontrol.target import TargetDensity, build_target, gaussian_on_grid

from conftest import strong_patient, weak_patient


def make_setup(n=9, nt=8, t_end=2.0, variance=0.25):
    grid = Grid4D.cube(0.0, 6.0, n)
    q = weak_patient()
    disp = DispersionSpec()
    x0 = np.array([0.5, 1.0, 1.0, 1.0])
    traj = integrate(State.from_array(x0), None, strong_patient(), t_end, 400)
    t_grid = np.linspace(0.0, t_end, nt + 1)
    fstar = build_target(traj, 5, variance, grid, t_grid)
    f0 = gaussian_on_grid(grid, x0, variance)
    return grid, q, disp, fstar, f0, t_grid


def field_from_target(grid, fstar, t_grid) -> DensityField:
    field = DensityField(grid, t_grid)
    for m in range(t_grid.size):
        field.store(m, fstar.snapshot(m))
    return field


class TestObjective:
    def test_perfect_tracking_without_dose_is_free(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        field = field_from_target(grid, fstar, t_grid)
        u = ControlSchedule.zeros(t_grid[-1], t_grid.size - 1, 7.0, 0.072)
        assert objective(field, fstar, u, 1.0, 0.01, 0.01) == 0.0

    def test_constant_dose_costs_quadratically(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        field = field_from_target(grid, fstar, t_grid)
        c = 1.7
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, c, 0.0, 7.0, 0.072)
        j = objective(field, fstar, u, 1.0, 0.01, 0.02)
        assert j == pytest.approx(0.5 * 0.01 * c**2 * t_grid[-1], rel=1e-12)

    def test_misaligned_inputs_rejected(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        other = Grid4D.cube(0.0, 6.0, 11)
        field = DensityField(other, t_grid)
        u = ControlSchedule.zeros(t_grid[-1], t_grid.size - 1, 7.0, 0.072)
        with pytest.raises(ValueError, match="aligned"):
            objective(field, fstar, u, 1.0, 0.01, 0.01)

    def test_nonnegative(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 2.0, 0.05, 7.0, 0.072)
        field, _ = solve_forward(f0, u, q, grid, disp=disp)
        assert objective(field, fstar, u, 1.0, 0.01, 0.01) > 0.0


class TestDiscreteAdjoint:
    # With nothing to track, the adjoint vanishes, so the dose
    # sensitivities it feeds are exactly zero and only nu * u is left.

    def test_zero_mismatch_gives_zero_adjoint(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        field = field_from_target(grid, fstar, t_grid)
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 2.0, 0.03, 7.0, 0.072)
        g = adjoint_gradient(field, fstar, u, build_fp_stepper(grid, q, disp), 1.0, 0.0, 0.0)
        assert np.all(g.g1 == 0.0)
        assert np.all(g.g2 == 0.0)

    def test_zero_weight_gives_zero_adjoint(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 1.0, 0.02, 7.0, 0.072)
        field, _ = solve_forward(f0, u, q, grid, disp=disp)
        g = adjoint_gradient(field, fstar, u, build_fp_stepper(grid, q, disp), 0.0, 0.0, 0.0)
        assert np.all(g.g1 == 0.0)
        assert np.all(g.g2 == 0.0)

    def test_zero_adjoint_leaves_regularization_gradient(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 2.0, 0.03, 7.0, 0.072)
        field, _ = solve_forward(f0, u, q, grid, disp=disp)
        g = adjoint_gradient(field, fstar, u, build_fp_stepper(grid, q, disp), 0.0, 0.05, 0.7)
        assert np.allclose(g.g1, 0.05 * u.u1, rtol=1e-12)
        assert np.allclose(g.g2, 0.7 * u.u2, rtol=1e-12)

    def test_gradient_matches_finite_differences(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        rng = np.random.default_rng(17)
        nt = t_grid.size - 1
        u = ControlSchedule(t_grid, rng.uniform(1.0, 4.0, nt + 1),
                            rng.uniform(0.01, 0.05, nt + 1), 7.0, 0.072)
        stepper = build_fp_stepper(grid, q, disp)

        def j_of(uu):
            fld, _ = solve_forward(f0, uu, q, grid, disp=disp, stepper=stepper)
            return objective(fld, fstar, uu, 1.0, 0.01, 0.01)

        field, _ = solve_forward(f0, u, q, grid, disp=disp, stepper=stepper)
        g = adjoint_gradient(field, fstar, u, stepper, 1.0, 0.01, 0.01)
        rows, worst = gradient_check(j_of, g, u, n_directions=5, eps=1e-4, seed=3)
        assert worst <= 1e-3

    def test_gradient_uses_checkpointed_history(self):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 2.0, 0.04, 7.0, 0.072)
        full, _ = solve_forward(f0, u, q, grid, disp=disp)
        g_full = adjoint_gradient(full, fstar, u, build_fp_stepper(grid, q, disp),
                                  1.0, 0.01, 0.01)
        # forward and backward on separate steppers, then, as with
        # --checkpoint-every, one stepper for the forward solve, the re-steps
        # and the transposed steps, which all share its work arrays
        shared = build_fp_stepper(grid, q, disp)
        for forward, backward in ((build_fp_stepper(grid, q, disp),
                                   build_fp_stepper(grid, q, disp)), (shared, shared)):
            chk, _ = solve_forward(f0, u, q, grid, disp=disp, store_every=4, stepper=forward)
            g_chk = adjoint_gradient(chk, fstar, u, backward, 1.0, 0.01, 0.01)
            assert np.array_equal(g_full.g1, g_chk.g1)
            assert np.array_equal(g_full.g2, g_chk.g2)


class TestSweepMemory:
    def test_later_sweep_holds_a_few_snapshots(self):
        # above the stored history a sweep holds the quadrature weights, one
        # work array, the running adjoint and the next, and a target read;
        # the stepper's work arrays are allocated by the first sweep. With a
        # fresh array per product and stage a sweep peaked at 19 snapshots
        grid, q, disp, fstar, f0, t_grid = make_setup(n=13, nt=4)
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 2.0, 0.04, 7.0, 0.072)
        stepper = build_fp_stepper(grid, q, disp)
        field, _ = solve_forward(f0, u, q, grid, disp=disp, stepper=stepper)
        adjoint_gradient(field, fstar, u, stepper, 1.0, 0.01, 0.01)
        tracemalloc.start()
        try:
            adjoint_gradient(field, fstar, u, stepper, 1.0, 0.01, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 6 * f0.nbytes


class TestReducedFaceShapes:
    # Each drift component is expanded along its own axis only; the
    # stepper must give the same bits as with full-size face data.

    def test_face_data_keeps_its_natural_shape_and_the_same_bits(self):
        grid = Grid4D(lo=(0.0,) * 4, hi=(6.0, 5.5, 5.0, 4.5), npts=(13, 12, 11, 10))
        q, disp = weak_patient(), DispersionSpec()
        t_grid = np.linspace(0.0, 2.0, 9)
        x0 = np.array([0.5, 1.0, 1.0, 1.0])
        traj = integrate(State.from_array(x0), None, strong_patient(), t_grid[-1], 400)
        fstar = build_target(traj, 5, 0.25, grid, t_grid)
        f0 = gaussian_on_grid(grid, x0, 0.25)
        rng = np.random.default_rng(8)
        u = ControlSchedule(t_grid, rng.uniform(0.0, 7.0, t_grid.size),
                            rng.uniform(0.0, 0.072, t_grid.size), 7.0, 0.072)

        reduced = build_fp_stepper(grid, q, disp)
        assert [ax.f0_face.shape for ax in reduced.axes] == [
            (12, 12, 11, 1), (11, 13, 1, 10), (10, 13, 12, 10), (9, 1, 1, 1)]
        full = build_fp_stepper(grid, q, disp)
        for j, ax in enumerate(full.axes):
            moved = (grid.npts[j] - 1,) + grid.shape[:j] + grid.shape[j + 1:]
            ax.f0_face = np.broadcast_to(ax.f0_face, moved)

        dt = float(t_grid[1] - t_grid[0])
        p = rng.normal(size=grid.shape)
        runs = []
        for stepper in (reduced, full):
            g = stepper.step(f0, u.at_index(3), dt)
            mtp, sens = stepper.step_transpose(f0, g, u.at_index(3), dt, p)
            field, _ = solve_forward(f0, u, q, grid, disp=disp, stepper=stepper)
            grad = adjoint_gradient(field, fstar, u, stepper, 1.0, 0.01, 0.01)
            runs.append([g, mtp, np.array(sens), field.snapshot(field.n_steps),
                         grad.g1, grad.g2])
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


def seeded_step_case(seed=8):
    """Production stepper on an uneven grid at a seeded admissible dose."""
    grid = Grid4D(lo=(0.0,) * 4, hi=(6.0, 5.5, 5.0, 4.5), npts=(13, 12, 11, 10))
    stepper = build_fp_stepper(grid, weak_patient(), DispersionSpec())
    rng = np.random.default_rng(seed)
    u = (rng.uniform(0.0, 7.0), rng.uniform(0.0, 0.072))
    return grid, stepper, u, rng


class TestStepTranspose:
    # step_transpose is the vector-Jacobian product of one step: its first
    # output is M^T p, its second the dose sensitivities <p, dM/du_c f>.

    def test_transpose_is_the_adjoint_of_the_step(self):
        grid, stepper, u, rng = seeded_step_case()
        dt = 0.25
        x = rng.normal(size=grid.shape)
        p = rng.normal(size=grid.shape)
        mx = stepper.step(x, u, dt)
        mtp, _ = stepper.step_transpose(x, mx, u, dt, p)
        lhs, rhs = float(np.sum(mx * p)), float(np.sum(x * mtp))
        assert abs(lhs - rhs) <= 1e-12 * abs(lhs)

    def test_step_and_transposed_step_share_one_band_assembly(self, monkeypatch):
        grid, stepper, u, rng = seeded_step_case(seed=12)
        calls = []
        assemble = AxisDiscretization.operator_bands

        def counting(ax, u1, u2):
            calls.append(ax)
            return assemble(ax, u1, u2)

        monkeypatch.setattr(AxisDiscretization, "operator_bands", counting)
        f = rng.normal(size=grid.shape)
        f_next = stepper.step(f, u, 0.25)
        stepper.step_transpose(f, f_next, u, 0.25, rng.normal(size=grid.shape))
        assert [id(ax) for ax in calls] == [id(ax) for ax in stepper.axes * 2]

    def test_later_transposed_step_replays_nothing(self, monkeypatch):
        # no forward solve: d transposed solves on factors alone, and
        # 2d - 1 band products, d - 1 rebuilding the stages from f_next
        # and d transposed ones
        grid, stepper, u, rng = seeded_step_case(seed=5)
        f = rng.uniform(size=grid.shape)
        f_next = stepper.step(f, u, 0.25)
        stepper.step_transpose(f, f_next, u, 0.25, rng.normal(size=grid.shape))
        calls = []

        def spy(name, fn):
            def counted(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            monkeypatch.setattr(fpsolver, name, counted)

        for name in ("_band_apply", "thomas_solve", "thomas_factored_solve"):
            spy(name, getattr(fpsolver, name))
        stepper.step_transpose(f, f_next, u, 0.25, rng.normal(size=grid.shape))
        assert calls.count("_band_apply") == 2 * stepper.ndim - 1
        assert calls.count("thomas_factored_solve") == stepper.ndim
        assert "thomas_solve" not in calls

    def test_face_sums_match_the_control_bands(self):
        grid, stepper, (u1, u2), rng = seeded_step_case(seed=9)
        x = rng.normal(size=grid.shape)
        qv = rng.normal(size=grid.shape)
        for j, ax in enumerate(stepper.axes):
            ax.operator_bands(u1, u2)
            work = np.empty(grid.shape)
            v = ax.dose_face_sums(((1.0, np.moveaxis(x, j, 0), np.moveaxis(qv, j, 0)),), work)
            for channel, g in ((1, ax.g1_face), (2, ax.g2_face)):
                cbands = ax.control_bands(u1, u2, channel)
                if cbands is None:
                    assert np.all(g == 0.0)
                    continue
                ref = float(np.sum(qv * stepper.apply_operator(j, x, cbands)))
                assert abs(float(np.dot(g.ravel(), v)) - ref) <= 1e-12 * abs(ref)

    def test_sensitivities_match_finite_differences_of_the_step(self):
        grid, stepper, u, rng = seeded_step_case(seed=10)
        dt = 0.25
        f0 = gaussian_on_grid(grid, np.array([0.5, 1.0, 1.0, 1.0]), 0.25)
        p = rng.normal(size=grid.shape)
        _, sens = stepper.step_transpose(f0, stepper.step(f0, u, dt), u, dt, p)
        for c, eps in ((0, 1e-4), (1, 1e-6)):
            up, dn = list(u), list(u)
            up[c] += eps
            dn[c] -= eps
            fd = float(np.sum(p * (stepper.step(f0, tuple(up), dt)
                                   - stepper.step(f0, tuple(dn), dt)))) / (2 * eps)
            assert sens[c] == pytest.approx(fd, rel=1e-8)
