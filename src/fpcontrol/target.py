"""Desired density trajectories built from noise-free model runs.

A handful of anchor times get isotropic Gaussian bumps centered on the
deterministic trajectory, truncated to the box. Each bump is a tensor
product of four 1D factors, and each factor is divided by its own 1D
trapezoid mass, so the bump has unit grid mass by construction (the
grid integral of a tensor product is the product of the 1D integrals).
Every solver time step in between blends the two bracketing anchors
convexly, which keeps positivity and unit mass.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid4D
from .ode import Trajectory

__all__ = ["TargetDensity", "build_target", "gaussian_on_grid"]


def _gaussian_factors(grid: Grid4D, center, variance: float) -> list[np.ndarray]:
    """The isotropic Gaussian's four 1D factors at the nodes, each of unit
    trapezoid mass along its axis."""
    center = np.asarray(center, dtype=float)
    if variance <= 0:
        raise ValueError("variance must be positive")
    if not grid.contains(center):
        raise ValueError(f"gaussian center {center.tolist()} lies outside the domain")
    factors = []
    for i in range(4):
        g = np.exp(-((grid.axis(i) - center[i]) ** 2) / (2.0 * variance))
        mass = g @ grid.axis_weights(i)
        if mass <= 0:
            raise ValueError("gaussian has no mass on the grid")
        factors.append(g / mass)
    return factors


def _tensor_product(factors, out=None) -> np.ndarray:
    """(g0 g1)(g2 g3) over the grid, into ``out`` if given; the pairing
    gives the last pass an inner loop of n^2 elements rather than n."""
    g0, g1, g2, g3 = factors
    return np.multiply.outer(np.multiply.outer(g0, g1), np.multiply.outer(g2, g3), out=out)


def gaussian_on_grid(grid: Grid4D, center, variance: float) -> np.ndarray:
    """Isotropic Gaussian at the nodes with unit grid mass.

    The center must lie inside the closed box; truncation by the walls
    is absorbed into each 1D factor's normalization, so the snapshot is
    a density on the box. It is the tensor product of the same four
    unit-mass 1D factors ``TargetDensity`` keeps for an anchor there.
    """
    return _tensor_product(_gaussian_factors(grid, center, variance))


class TargetDensity:
    """Anchors as 1D factors plus per-step interpolation formed on demand.

    Anchor j is the tensor product of its four unit-mass 1D Gaussian
    factors, ``anchor_factors[i][j]`` along axis i. A solver-step
    snapshot is the convex combination (1 - theta) A_j + theta A_(j+1):
    each read puts the weight on the anchor's first factor and forms
    both products afresh, into a new array and one work array, allocated
    on the first read. So the target holds 4 n floats per anchor and one
    grid-size work array however many steps are read.
    """

    def __init__(self, grid: Grid4D, times: np.ndarray, anchor_times: np.ndarray,
                 anchor_factors: list[np.ndarray]):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.anchor_times = np.asarray(anchor_times, dtype=float)
        self.anchor_factors = anchor_factors
        self._work = None

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def _anchor(self, j: int, weight: float, out: np.ndarray) -> np.ndarray:
        g0, g1, g2, g3 = (g[j] for g in self.anchor_factors)
        return _tensor_product([weight * g0, g1, g2, g3], out=out)

    def snapshot(self, m: int) -> np.ndarray:
        """Step m's target, (1 - theta) A_j + theta A_(j+1), as a new array."""
        if not 0 <= m <= self.n_steps:
            raise IndexError(f"step index {m} outside 0..{self.n_steps}")
        t = self.times[m]
        j = int(np.searchsorted(self.anchor_times, t, side="right") - 1)
        j = min(max(j, 0), self.anchor_times.size - 2)
        t0, t1 = self.anchor_times[j], self.anchor_times[j + 1]
        theta = 0.0 if t1 == t0 else (t - t0) / (t1 - t0)
        theta = min(max(theta, 0.0), 1.0)
        if self._work is None:
            self._work = np.empty(self.grid.shape)
        f = self._anchor(j, 1.0 - theta, np.empty(self.grid.shape))
        f += self._anchor(j + 1, theta, self._work)
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
    box is reported by index rather than silently truncated away. Each
    anchor keeps only its four unit-mass 1D factors; nothing grid-sized
    is formed here.
    """
    if n_anchors < 2:
        raise ValueError("need at least two anchors")
    if variance <= 0:
        raise ValueError("variance must be positive")
    t_grid = np.asarray(t_grid, dtype=float)
    anchor_times = np.linspace(traj.times[0], traj.times[-1], n_anchors)
    if t_grid[0] < traj.times[0] - 1e-12 or t_grid[-1] > traj.times[-1] + 1e-12:
        raise ValueError("solver time grid extends beyond the trajectory")

    factors = [np.empty((n_anchors, n)) for n in grid.npts]
    for i, t in enumerate(anchor_times):
        center = traj.state_at(t)
        if not grid.contains(center):
            raise ValueError(
                f"anchor {i} at t={t:.6g} has center {center.tolist()} outside the domain"
            )
        for g, gi in zip(factors, _gaussian_factors(grid, center, variance)):
            g[i] = gi
    return TargetDensity(grid, t_grid, anchor_times, factors)
