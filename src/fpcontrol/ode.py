"""Deterministic integration of the tumor-immune dynamics.

Produces the noise-free trajectories used to anchor target densities
and to cross-check the density solver in the small-noise limit.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import DivergenceError
from .model import ControlSchedule, NonDimParams, State, drift

log = logging.getLogger(__name__)

__all__ = ["Trajectory", "integrate"]


@dataclass
class Trajectory:
    """Time samples and the matching 4-component state samples."""

    times: np.ndarray          # shape (M+1,)
    states: np.ndarray         # shape (M+1, 4), rows (T, N, L, C)
    clip_events: int = field(default=0)

    def __post_init__(self):
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("trajectory times must be strictly increasing")
        if not np.all(np.isfinite(self.states)):
            raise ValueError("trajectory states must be finite")
        if np.any(self.states < 0):
            raise ValueError("trajectory states must be non-negative")

    def state_at(self, t: float) -> np.ndarray:
        """Componentwise linear interpolation at time t."""
        return np.array([np.interp(t, self.times, self.states[:, i]) for i in range(4)])


def integrate(
    x0: State,
    u: ControlSchedule | None,
    q: NonDimParams,
    t_end: float,
    steps: int,
) -> Trajectory:
    """Integrate dX/dt = F(X, U) with classical fixed-step RK4.

    Controls are evaluated by piecewise-linear interpolation at the RK
    stage times (u = None means no treatment). Small negative excursions
    are clipped to zero and counted; a non-finite state aborts with the
    failing time.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    times = np.linspace(0.0, t_end, steps + 1)
    dt = t_end / steps
    states = np.empty((steps + 1, 4))
    states[0] = x0.as_array()
    clip_events = 0

    def u_at(t: float) -> tuple[float, float]:
        if u is None:
            return (0.0, 0.0)
        return u.at_time(t)

    x = states[0].copy()
    for m in range(steps):
        t = times[m]
        k1 = drift(x, u_at(t), q)
        k2 = drift(x + 0.5 * dt * k1, u_at(t + 0.5 * dt), q)
        k3 = drift(x + 0.5 * dt * k2, u_at(t + 0.5 * dt), q)
        k4 = drift(x + dt * k3, u_at(t + dt), q)
        x = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x)):
            raise DivergenceError(
                f"state became non-finite at t={times[m + 1]:.6g}", time=float(times[m + 1])
            )
        negative = x < 0.0
        if np.any(negative):
            clip_events += int(np.sum(negative))
            log.warning(
                "clipped %d negative component(s) at t=%.6g (min %.3e)",
                int(np.sum(negative)),
                times[m + 1],
                float(x.min()),
            )
            x = np.maximum(x, 0.0)
        states[m + 1] = x

    return Trajectory(times=times, states=states, clip_events=clip_events)
