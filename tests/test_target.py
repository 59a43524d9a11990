import tracemalloc
from importlib import resources

import numpy as np
import pytest

from fpcontrol import ode
from fpcontrol.grid import Grid4D
from fpcontrol.ode import Trajectory
from fpcontrol.scenario import load_scenario
from fpcontrol.target import build_target, gaussian_on_grid


def constant_trajectory(point, t_end=10.0):
    times = np.array([0.0, t_end])
    states = np.array([point, point], dtype=float)
    return Trajectory(times=times, states=states)


class TestGaussianOnGrid:
    def test_unit_mass(self):
        grid = Grid4D.cube(0.0, 6.0, 11)
        f = gaussian_on_grid(grid, [0.2, 1.0, 1.0, 1.0], 0.05)
        assert abs(grid.integrate(f) - 1.0) < 1e-12
        assert np.all(f >= 0.0)

    def test_rejects_center_outside(self):
        grid = Grid4D.cube(0.0, 6.0, 11)
        with pytest.raises(ValueError, match="outside"):
            gaussian_on_grid(grid, [7.0, 1.0, 1.0, 1.0], 0.05)

    def test_rejects_bad_variance(self):
        grid = Grid4D.cube(0.0, 6.0, 11)
        with pytest.raises(ValueError, match="variance"):
            gaussian_on_grid(grid, [1.0, 1.0, 1.0, 1.0], 0.0)


class TestBuildTarget:
    def test_identical_anchors_give_identical_snapshots(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        t_grid = np.linspace(0.0, 10.0, 21)
        target = build_target(constant_trajectory([1.0, 2.0, 3.0, 1.5]), 2, 0.3,
                              grid, t_grid)
        first = target.snapshot(0)
        for m in range(1, 21):
            assert np.allclose(target.snapshot(m), first, atol=1e-15)

    def test_every_snapshot_has_unit_mass(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        t_grid = np.linspace(0.0, 10.0, 26)
        times = np.linspace(0.0, 10.0, 40)
        states = np.column_stack([
            np.linspace(0.2, 2.0, 40),
            np.full(40, 1.0),
            np.linspace(1.0, 1.6, 40),
            np.full(40, 1.0),
        ])
        target = build_target(Trajectory(times=times, states=states), 5, 0.1,
                              grid, t_grid)
        for m in range(27 - 1):
            assert abs(grid.integrate(target.snapshot(m)) - 1.0) < 1e-8

    def test_anchor_centroid_within_one_cell(self):
        grid = Grid4D.cube(0.0, 6.0, 17)
        point = [2.0, 2.625, 3.0, 1.5]
        t_grid = np.linspace(0.0, 10.0, 11)
        target = build_target(constant_trajectory(point), 3, 0.1, grid, t_grid)
        mean = grid.mean_position(target.snapshot(0))
        assert np.max(np.abs(mean - point)) < grid.h

    def test_anchor_outside_domain_reports_index(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        times = np.array([0.0, 5.0, 10.0])
        states = np.array([[1.0, 1.0, 1.0, 1.0],
                           [3.0, 1.0, 1.0, 1.0],
                           [6.5, 1.0, 1.0, 1.0]])
        # trajectory itself validates states, so construct a legal one
        # whose interpolated anchor leaves the box via the last point
        states[2] = [5.9, 1.0, 1.0, 1.0]
        traj = Trajectory(times=times, states=states)
        # shrink the domain so the final anchor falls outside
        small = Grid4D.cube(0.0, 4.0, 9)
        with pytest.raises(ValueError, match="anchor 2"):
            build_target(traj, 3, 0.1, small, np.linspace(0, 10, 11))

    def test_interpolation_blends_bracketing_anchors(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        times = np.array([0.0, 10.0])
        states = np.array([[1.0, 1.0, 1.0, 1.0], [3.0, 1.0, 1.0, 1.0]])
        traj = Trajectory(times=times, states=states)
        t_grid = np.linspace(0.0, 10.0, 5)
        target = build_target(traj, 2, 0.2, grid, t_grid)
        a0, a1 = (gaussian_on_grid(grid, traj.state_at(t), 0.2) for t in target.anchor_times)
        mid = 0.5 * (a0 + a1)
        assert np.allclose(target.snapshot(2), mid, atol=1e-14)

    def test_requires_two_anchors_and_positive_variance(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        traj = constant_trajectory([1.0, 1.0, 1.0, 1.0])
        with pytest.raises(ValueError):
            build_target(traj, 1, 0.1, grid, np.linspace(0, 10, 5))
        with pytest.raises(ValueError):
            build_target(traj, 3, -0.1, grid, np.linspace(0, 10, 5))

    def test_paper_style_construction(self):
        # twenty anchors with tight bumps along a decaying tumor path
        grid = Grid4D.cube(0.0, 6.0, 13)
        times = np.linspace(0.0, 10.0, 200)
        states = np.column_stack([
            0.2 * np.exp(-0.3 * times) + 0.01,
            np.full(200, 1.0),
            1.0 + 0.05 * times,
            np.full(200, 1.0),
        ])
        traj = Trajectory(times=times, states=states)
        t_grid = np.linspace(0.0, 10.0, 51)
        target = build_target(traj, 20, 0.05, grid, t_grid)
        assert target.anchor_times.size == 20
        for m in (0, 17, 50):
            snap = target.snapshot(m)
            assert abs(grid.integrate(snap) - 1.0) < 1e-8
            assert snap.min() >= 0.0

    def test_testcase1_steps_have_unit_mass_to_rounding(self):
        # unit-mass 1D factors and convex blends: no step is renormalized
        sc = load_scenario(resources.files("fpcontrol") / "scenarios" / "testcase1.scenario")
        grid, t_grid = sc.grid(), sc.time_grid()
        traj = ode.integrate(sc.initial_state, None, sc.nondim_target(), sc.t_final,
                             max(1000, 10 * (t_grid.size - 1)))
        target = build_target(traj, sc.n_anchors, sc.target_variance, grid, t_grid)
        for m in range(target.n_steps + 1):
            assert abs(grid.integrate(target.snapshot(m)) - 1.0) <= 1e-14, m


def drifting_trajectory():
    times = np.linspace(0.0, 10.0, 50)
    states = np.column_stack([
        np.linspace(0.3, 2.5, 50),
        np.full(50, 1.0),
        np.linspace(1.0, 2.0, 50),
        np.linspace(1.5, 1.0, 50),
    ])
    return Trajectory(times=times, states=states)


def drifting_target(grid, n_steps=40, n_anchors=7):
    return build_target(drifting_trajectory(), n_anchors, 0.2, grid,
                        np.linspace(0.0, 10.0, n_steps + 1))


def weighted_anchor(grid, center, variance, weight):
    """weight times the Gaussian at ``center`` by the plain formula: four
    1D factors, each divided by its trapezoid mass, the weight on the
    first, multiplied out as (g0 g1)(g2 g3)."""
    factors = []
    for i in range(4):
        g = np.exp(-((grid.axis(i) - center[i]) ** 2) / (2.0 * variance))
        factors.append(g / (g @ grid.axis_weights(i)))
    g0, g1, g2, g3 = factors
    g01 = (weight * g0)[:, None] * g1
    return g01[:, :, None, None] * (g2[:, None] * g3)


def blend_reference(target, m):
    """Step m's target by the plain formula: two anchors at their
    trajectory points, each with its blend weight, summed."""
    t = target.times[m]
    j = int(np.searchsorted(target.anchor_times, t, side="right") - 1)
    j = min(max(j, 0), target.anchor_times.size - 2)
    t0, t1 = target.anchor_times[j], target.anchor_times[j + 1]
    theta = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
    theta = min(max(theta, 0.0), 1.0)
    return sum(weighted_anchor(target.grid, drifting_trajectory().state_at(tj), 0.2, weight)
               for tj, weight in ((t0, 1.0 - theta), (t1, theta)))


class TestOnDemandSnapshot:
    def test_every_read_equals_the_blend_formula_bit_for_bit(self):
        target = drifting_target(Grid4D.cube(0.0, 6.0, 9))
        for m in range(target.n_steps + 1):
            want = blend_reference(target, m)
            first = target.snapshot(m)
            assert np.array_equal(first.view(np.uint64), want.view(np.uint64)), m
            first.fill(-1.0)  # a read is the caller's own array
            again = target.snapshot(m)
            assert again is not first
            assert np.array_equal(again.view(np.uint64), want.view(np.uint64)), m

    def test_reading_every_step_twice_keeps_anchors_plus_one_snapshot(self):
        grid = Grid4D.cube(0.0, 6.0, 9)
        snapshot_bytes = 8 * grid.cell_count()
        tracemalloc.start()
        try:
            target = drifting_target(grid)
            for _ in range(2):
                for m in range(target.n_steps + 1):
                    target.snapshot(m)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the anchors' 1D factors and one work array; grid-size anchors
        # would add 7 snapshots, an array kept per step 41
        factor_bytes = sum(g.nbytes for g in target.anchor_factors)
        assert factor_bytes == 7 * 4 * 9 * 8
        assert held <= factor_bytes + snapshot_bytes + 8192

    def test_reads_integrate_nothing(self, monkeypatch):
        target = drifting_target(Grid4D.cube(0.0, 6.0, 9))
        calls = []
        integrate = Grid4D.integrate
        monkeypatch.setattr(Grid4D, "integrate",
                            lambda grid, f: calls.append(1) or integrate(grid, f))
        for _ in range(2):
            for m in range(target.n_steps + 1):
                target.snapshot(m)
        assert not calls

    def test_build_forms_nothing_grid_sized(self):
        grid = Grid4D.cube(0.0, 6.0, 21)
        traj = drifting_trajectory()
        tracemalloc.start()
        try:
            target = build_target(traj, 7, 0.2, grid, np.linspace(0.0, 10.0, 41))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert target.n_steps == 40
        assert peak < 8 * grid.cell_count()
