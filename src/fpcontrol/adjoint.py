"""Objective, adjoint sweeps, and the reduced control gradient.

The authoritative gradient is the exact discrete adjoint of the
implemented forward scheme: each Douglas-Gunn step is differentiated
through its predictor, its implicit corrections, and the dose
dependence of the Scharfetter-Gummel weights B(+-w).
That makes the gradient consistent with the discrete objective to
rounding, which central finite differences verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fpsolver import DensityField, DgStepper
from .model import ControlSchedule
from .target import TargetDensity

__all__ = [
    "ControlGradient",
    "objective",
    "adjoint_gradient",
    "gradient_check",
]


@dataclass
class ControlGradient:
    """Gradient of the objective in the time-continuum representation.

    ``g1``/``g2`` sample the L2([0, T]) representer on the control time
    grid: the directional derivative along (psi1, psi2) is the
    trapezoidal integral of g1*psi1 + g2*psi2.
    """

    times: np.ndarray
    g1: np.ndarray
    g2: np.ndarray

    def __post_init__(self):
        if not (np.all(np.isfinite(self.g1)) and np.all(np.isfinite(self.g2))):
            raise ValueError("gradient must be finite")


def time_weights(times: np.ndarray) -> np.ndarray:
    """Trapezoidal quadrature weights on a uniform time grid."""
    dt = times[1] - times[0]
    w = np.full(times.size, dt)
    w[0] = w[-1] = 0.5 * dt
    return w


def _check_alignment(f: DensityField, f_star: TargetDensity):
    if f.grid.shape != f_star.grid.shape or f.times.size != f_star.times.size:
        raise ValueError("density history and target are not aligned")
    if np.max(np.abs(f.times - f_star.times)) > 1e-12 * max(1.0, abs(f.times[-1])):
        raise ValueError("density history and target use different time grids")


def objective(
    f: DensityField,
    f_star: TargetDensity,
    u: ControlSchedule,
    alpha: float,
    nu1: float,
    nu2: float,
) -> float:
    """Tracking-plus-dose-cost functional, trapezoidal in space and time."""
    _check_alignment(f, f_star)
    grid = f.grid
    wt = time_weights(u.times)
    track = 0.0
    for m in range(f.n_steps + 1):
        # the mismatch and its square in the target read, a fresh array
        diff = f_star.snapshot(m)
        np.subtract(f.snapshot(m), diff, out=diff)
        track += wt[m] * grid.integrate(np.multiply(diff, diff, out=diff))
    cost1 = float(np.sum(wt * u.u1**2))
    cost2 = float(np.sum(wt * u.u2**2))
    return 0.5 * alpha * track + 0.5 * nu1 * cost1 + 0.5 * nu2 * cost2


def _mismatch_source(weights: np.ndarray, f_m, fstar_m, alpha: float, wt_m: float,
                     work: np.ndarray) -> np.ndarray:
    """alpha wt_m weights (f_m - fstar_m), formed in ``work`` and in
    ``fstar_m`` (a fresh target read), which it returns."""
    diff = np.subtract(f_m, fstar_m, out=fstar_m)
    return np.multiply(np.multiply(weights, alpha * wt_m, out=work), diff, out=diff)


def adjoint_gradient(
    f: DensityField,
    f_star: TargetDensity,
    u: ControlSchedule,
    stepper: DgStepper,
    alpha: float,
    nu1: float,
    nu2: float,
) -> ControlGradient:
    """One backward sweep producing the exact discrete gradient.

    Walks the stored forward history from the final time to the start;
    each step's vector-Jacobian product (``DgStepper.step_transpose``)
    applies the transposed propagator to the running adjoint and yields
    the step's dose sensitivities. Besides the stored history, the sweep
    holds the quadrature weights, one work array, the running adjoint and
    the one ``step_transpose`` returns, and one target read at a time:
    ``f_star`` forms each target on demand, and the mismatch source is
    formed in that read and the work array, then added into the adjoint
    in place. The stepper's own work arrays are allocated by its first
    transposed step and reused by every later one.
    """
    _check_alignment(f, f_star)
    grid = f.grid
    times = u.times
    wt = time_weights(times)
    dt = float(times[1] - times[0])
    n_steps = f.n_steps

    euclid_g1 = nu1 * wt * u.u1
    euclid_g2 = nu2 * wt * u.u2

    weights = grid.weights()
    work = np.empty(grid.shape)
    f_next = f.snapshot(n_steps)
    p = _mismatch_source(weights, f_next, f_star.snapshot(n_steps), alpha, wt[n_steps], work)
    for m in range(n_steps - 1, -1, -1):
        f_m = f.snapshot(m)
        p, (s1, s2) = stepper.step_transpose(f_m, f_next, u.at_index(m), dt, p)
        euclid_g1[m] += s1
        euclid_g2[m] += s2
        p += _mismatch_source(weights, f_m, f_star.snapshot(m), alpha, wt[m], work)
        f_next = f_m

    return ControlGradient(times=times.copy(), g1=euclid_g1 / wt, g2=euclid_g2 / wt)


# ---------------------------------------------------------------------------
# Finite-difference audit

AUDIT_DIRECTIONS = 5  # random directions per audit
AUDIT_EPS = 1e-4  # central-difference step along a unit max-norm direction


def gradient_check(
    objective_fn,
    gradient: ControlGradient,
    u: ControlSchedule,
    seed: int = 0,
):
    """Compare adjoint directional derivatives with central differences.

    ``AUDIT_DIRECTIONS`` directions, random in both channels and scaled
    to unit max norm, each differenced with step ``AUDIT_EPS``.
    Returns (rows, max_relative_error); each row holds the adjoint and
    finite-difference values with their relative error.
    """
    rng = np.random.default_rng(seed)
    wt = time_weights(u.times)
    rows = []
    worst = 0.0
    for k in range(AUDIT_DIRECTIONS):
        psi1 = rng.uniform(-1.0, 1.0, u.times.size)
        psi2 = rng.uniform(-1.0, 1.0, u.times.size)
        scale = max(np.max(np.abs(psi1)), np.max(np.abs(psi2)))
        psi1 /= scale
        psi2 /= scale
        adj = float(np.sum(wt * (gradient.g1 * psi1 + gradient.g2 * psi2)))
        u_plus = u.with_values(u.u1 + AUDIT_EPS * psi1, u.u2 + AUDIT_EPS * psi2)
        u_minus = u.with_values(u.u1 - AUDIT_EPS * psi1, u.u2 - AUDIT_EPS * psi2)
        fd = (objective_fn(u_plus) - objective_fn(u_minus)) / (2.0 * AUDIT_EPS)
        denom = max(abs(adj), abs(fd), 1e-14)
        rel = abs(adj - fd) / denom
        worst = max(worst, rel)
        rows.append({"direction": k, "adjoint": adj, "finite_difference": fd,
                     "relative_error": rel})
    return rows, worst
