"""Desired density trajectories built from noise-free model runs.

A handful of anchor times get isotropic Gaussian bumps centered on the
deterministic trajectory, truncated to the box and renormalized on the
grid; every solver time step in between blends the two bracketing
anchors linearly and renormalizes again. Positivity and unit mass hold
by construction.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid4D
from .ode import Trajectory

__all__ = ["TargetDensity", "build_target", "gaussian_on_grid"]


def gaussian_on_grid(grid: Grid4D, center, variance: float) -> np.ndarray:
    """Isotropic Gaussian evaluated at the nodes and renormalized.

    The center must lie inside the closed box; truncation by the walls
    is absorbed into the normalization so the snapshot is a density on
    the box.
    """
    center = np.asarray(center, dtype=float)
    if variance <= 0:
        raise ValueError("variance must be positive")
    if not grid.contains(center):
        raise ValueError(f"gaussian center {center.tolist()} lies outside the domain")
    f = np.ones(grid.shape)
    for i in range(4):
        gi = np.exp(-((grid.axis(i) - center[i]) ** 2) / (2.0 * variance))
        f = f * grid.broadcast_axis(i, gi)
    mass = grid.integrate(f)
    if mass <= 0:
        raise ValueError("gaussian has no mass on the grid")
    return f / mass


class TargetDensity:
    """Anchor snapshots plus per-step interpolation formed on demand.

    A solver-step snapshot is one renormalized convex combination of two
    anchors. Each read forms it afresh into a new array; only the
    blend's mass (one float per step) is kept between reads, so the
    target holds the anchors and one work array however many steps are
    read.
    """

    def __init__(self, grid: Grid4D, times: np.ndarray, anchor_times: np.ndarray,
                 anchor_snapshots: np.ndarray):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.anchor_times = np.asarray(anchor_times, dtype=float)
        self.anchor_snapshots = anchor_snapshots
        self._mass: dict[int, float] = {}
        self._work = np.empty(grid.shape)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def snapshot(self, m: int) -> np.ndarray:
        """Step m's target, ((1 - theta) A_j + theta A_(j+1)) / mass, as a new array."""
        if not 0 <= m <= self.n_steps:
            raise IndexError(f"step index {m} outside 0..{self.n_steps}")
        t = self.times[m]
        j = int(np.searchsorted(self.anchor_times, t, side="right") - 1)
        j = min(max(j, 0), self.anchor_times.size - 2)
        t0, t1 = self.anchor_times[j], self.anchor_times[j + 1]
        theta = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        theta = min(max(theta, 0.0), 1.0)
        f = np.multiply(self.anchor_snapshots[j], 1.0 - theta)
        np.multiply(self.anchor_snapshots[j + 1], theta, out=self._work)
        f += self._work
        mass = self._mass.get(m)
        if mass is None:
            mass = self._mass[m] = self.grid.integrate(f)
        f /= mass
        return f


def build_target(
    traj: Trajectory,
    n_anchors: int,
    variance: float,
    grid: Grid4D,
    t_grid: np.ndarray,
) -> TargetDensity:
    """Construct the target density history from a trajectory.

    Anchors are uniformly spaced over the trajectory's time span,
    inclusive of both ends; an anchor whose trajectory point leaves the
    box is reported by index rather than silently truncated away.
    """
    if n_anchors < 2:
        raise ValueError("need at least two anchors")
    if variance <= 0:
        raise ValueError("variance must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    anchor_times = np.linspace(traj.times[0], traj.times[-1], n_anchors)
    if t_grid[0] < traj.times[0] - 1e-12 or t_grid[-1] > traj.times[-1] + 1e-12:
        raise ValueError("solver time grid extends beyond the trajectory")

    snapshots = np.empty((n_anchors,) + grid.shape)
    for i, t in enumerate(anchor_times):
        center = traj.state_at(t)
        if not grid.contains(center):
            raise ValueError(
                f"anchor {i} at t={t:.6g} has center {center.tolist()} outside the domain"
            )
        snapshots[i] = gaussian_on_grid(grid, center, variance)
    return TargetDensity(grid, t_grid, anchor_times, snapshots)
