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


def _gaussian_factors(grid: Grid4D, center, variance: float) -> list[np.ndarray]:
    """The isotropic Gaussian's four 1D factors at the nodes."""
    center = np.asarray(center, dtype=float)
    if variance <= 0:
        raise ValueError("variance must be positive")
    if not grid.contains(center):
        raise ValueError(f"gaussian center {center.tolist()} lies outside the domain")
    return [np.exp(-((grid.axis(i) - center[i]) ** 2) / (2.0 * variance)) for i in range(4)]


def _tensor_product(factors, out=None) -> np.ndarray:
    """((g0 g1) g2) g3 over the grid, into ``out`` if given."""
    g0, g1, g2, g3 = factors
    g012 = np.multiply.outer(np.multiply.outer(g0, g1), g2)
    return np.multiply(g012[..., None], g3, out=out)


def _grid_mass(grid: Grid4D, f: np.ndarray) -> float:
    mass = grid.integrate(f)
    if mass <= 0:
        raise ValueError("gaussian has no mass on the grid")
    return mass


def gaussian_on_grid(grid: Grid4D, center, variance: float) -> np.ndarray:
    """Isotropic Gaussian evaluated at the nodes and renormalized.

    The center must lie inside the closed box; truncation by the walls
    is absorbed into the normalization so the snapshot is a density on
    the box. The density is the tensor product of four 1D factors
    divided by its grid mass, the same path ``TargetDensity`` forms its
    anchors by, so both give the same bits.
    """
    f = _tensor_product(_gaussian_factors(grid, center, variance))
    f /= _grid_mass(grid, f)
    return f


class TargetDensity:
    """Anchors as 1D factors plus per-step interpolation formed on demand.

    Anchor j is the tensor product of its four 1D Gaussian factors,
    ``anchor_factors[i][j]`` along axis i, divided by its grid mass
    ``anchor_masses[j]``: ``gaussian_on_grid`` at that anchor's center,
    bit for bit. A solver-step snapshot is one renormalized convex
    combination of two anchors. Each read forms both anchors and the
    blend afresh, into a new array and one work array; only the blend's
    mass (one float per step) is kept between reads. So the target
    holds 4 n floats per anchor and one grid-size work array however
    many steps are read.
    """

    def __init__(self, grid: Grid4D, times: np.ndarray, anchor_times: np.ndarray,
                 anchor_factors: list[np.ndarray], anchor_masses: np.ndarray):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.anchor_times = np.asarray(anchor_times, dtype=float)
        self.anchor_factors = anchor_factors
        self.anchor_masses = np.asarray(anchor_masses, dtype=float)
        self._mass: dict[int, float] = {}
        self._work = np.empty(grid.shape)

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def _anchor(self, j: int, out: np.ndarray) -> np.ndarray:
        f = _tensor_product([g[j] for g in self.anchor_factors], out=out)
        f /= self.anchor_masses[j]
        return f

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
        f = self._anchor(j, np.empty(self.grid.shape))
        f *= 1.0 - theta
        f += np.multiply(self._anchor(j + 1, self._work), theta, out=self._work)
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
    box is reported by index rather than silently truncated away. Each
    anchor keeps its four 1D factors and its grid mass; the mass is
    taken here from the anchor's product, formed in one work array.
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
    masses = np.empty(n_anchors)
    work = np.empty(grid.shape)
    for i, t in enumerate(anchor_times):
        center = traj.state_at(t)
        if not grid.contains(center):
            raise ValueError(
                f"anchor {i} at t={t:.6g} has center {center.tolist()} outside the domain"
            )
        gs = _gaussian_factors(grid, center, variance)
        for g, gi in zip(factors, gs):
            g[i] = gi
        masses[i] = _grid_mass(grid, _tensor_product(gs, out=work))
    return TargetDensity(grid, t_grid, anchor_times, factors, masses)
