"""Projected nonlinear conjugate gradient over the dose box.

The loop follows the published pattern: steepest-descent start, Armijo
backtracking along the projected path, Hager-Zhang momentum with a
curvature guard that falls back to steepest descent, and a step-norm
stopping rule. Search directions come from the gradient smoothed in
time (a Sobolev-style representation); the raw gradient still measures
descent so the sufficient-decrease test stays exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .adjoint import ControlGradient, time_weights
from .errors import LineSearchError
from .model import ControlSchedule
from .tridiag import thomas_solve

__all__ = ["PncgConfig", "OptimizationTrace", "armijo_step",
           "hager_zhang_beta", "smooth_gradient", "pncg"]


ARMIJO_ALPHA0 = 1.0  # first trial step
ARMIJO_RHO = 0.5  # backtracking shrink factor
ARMIJO_C1 = 1e-4  # sufficient-decrease constant
ARMIJO_MAX_BACKTRACKS = 40  # shrinks before the search gives up
H1_EPSILON = 1e-2  # weight of the time-derivative term in smooth_gradient


@dataclass(frozen=True)
class PncgConfig:
    """Iteration cap and step-norm tolerance, the settings scenarios vary.

    The rest is fixed: the Armijo constants ``ARMIJO_*`` (c1 = 1e-4 and a
    unit first step as in Nocedal & Wright 2006 §3.1, halved on each
    backtrack) and the smoothing weight ``H1_EPSILON``, the values every
    bundled scenario ran with.
    """

    k_max: int = 200
    tol: float = 1e-5

    def __post_init__(self):
        if self.k_max < 1 or self.tol <= 0:
            raise ValueError("k_max must be >= 1 and tol positive")


@dataclass
class OptimizationTrace:
    """Per-iteration diagnostics of one optimizer run."""

    objective: list = field(default_factory=list)
    gradient_norm: list = field(default_factory=list)
    step_length: list = field(default_factory=list)
    beta: list = field(default_factory=list)
    active_bounds: list = field(default_factory=list)
    converged: bool = False
    line_search_failed: bool = False
    iterations: int = 0
    backtracks: int = 0  # over the accepted Armijo searches


def _stack(g: ControlGradient) -> np.ndarray:
    return np.concatenate([g.g1, g.g2])


def _inner(times: np.ndarray, a: np.ndarray, b: np.ndarray) -> float:
    """L2([0,T]) inner product over both channels on the time grid."""
    wt = time_weights(times)
    w2 = np.concatenate([wt, wt])
    return float(np.sum(w2 * a * b))


def _norm(times: np.ndarray, a: np.ndarray) -> float:
    return float(np.sqrt(max(_inner(times, a, a), 0.0)))


def _shift(u: ControlSchedule, delta: np.ndarray) -> ControlSchedule:
    n = u.times.size
    return u.with_values(u.u1 + delta[:n], u.u2 + delta[n:])


def _active_count(u: ControlSchedule) -> int:
    return int(np.sum((u.u1 <= 0.0) | (u.u1 >= u.d1))
               + np.sum((u.u2 <= 0.0) | (u.u2 >= u.d2)))


def _stationarity(u: ControlSchedule, g: np.ndarray) -> float:
    """Norm of u - P[u - g], zero exactly at box-constrained optima."""
    proposal = _shift(u, -g).clipped()
    return _norm(u.times, np.concatenate([u.u1 - proposal.u1, u.u2 - proposal.u2]))


def smooth_gradient(g: ControlGradient, epsilon: float) -> ControlGradient:
    """Solve (I - eps d_tt) g_s = g per channel, zero-slope ends.

    One tridiagonal solve each; the result is an equivalent gradient
    representation in a smoother inner product, useful because raw
    density-mismatch gradients can be rough in time.
    """
    times = g.times
    dt = times[1] - times[0]
    r = epsilon / dt**2
    n = times.size
    lo = np.full(n, -r)
    di = np.full(n, 1.0 + 2.0 * r)
    up = np.full(n, -r)
    up[0] = -2.0 * r
    lo[-1] = -2.0 * r
    lo[0] = up[-1] = 0.0
    g1 = thomas_solve(lo, di, up, g.g1)
    g2 = thomas_solve(lo, di, up, g.g2)
    return ControlGradient(times=times, g1=g1, g2=g2)


def armijo_step(
    u: ControlSchedule,
    d: np.ndarray,
    g: np.ndarray,
    j_eval,
    j0: float,
):
    """Backtracking line search along the projected path.

    Accepts the largest alpha0 * rho^j whose projected trial satisfies
    J(trial) <= J(u) + c1 <g, trial - u>; the projected-path form keeps
    samples pinned at the dose bounds from vetoing the decrease test.
    Returns (alpha, trial schedule, J(trial), backtracks used).
    """
    times = u.times
    alpha = ARMIJO_ALPHA0
    for j in range(ARMIJO_MAX_BACKTRACKS + 1):
        trial = _shift(u, alpha * d).clipped()
        step = np.concatenate([trial.u1 - u.u1, trial.u2 - u.u2])
        slope = _inner(times, g, step)
        if slope < 0.0:
            j_trial = j_eval(trial)
            if j_trial <= j0 + ARMIJO_C1 * slope:
                return alpha, trial, j_trial, j
        elif np.all(step == 0.0):
            # projection swallowed the whole step: nothing to try at
            # smaller alpha either if d points strictly outward
            return 0.0, u.copy(), j0, j
        alpha *= ARMIJO_RHO
    raise LineSearchError(
        f"no sufficient decrease within {ARMIJO_MAX_BACKTRACKS} backtracks"
    )


def hager_zhang_beta(g_next: np.ndarray, y: np.ndarray, d: np.ndarray,
                     times: np.ndarray) -> float:
    """Momentum coefficient (y - 2 d |y|^2 / d.y).g_next / d.y.

    A vanishing curvature d.y triggers the steepest-descent restart by
    returning zero.
    """
    dy = _inner(times, d, y)
    guard = 1e-14 * _norm(times, d) * _norm(times, y)
    if abs(dy) <= guard:
        return 0.0
    y_norm2 = _inner(times, y, y)
    adjusted = y - 2.0 * d * (y_norm2 / dy)
    return _inner(times, adjusted, g_next) / dy


def pncg(u0: ControlSchedule, problem, cfg: PncgConfig = PncgConfig()):
    """Minimize the problem's objective over the admissible dose box.

    ``problem`` provides objective(u) -> float and gradient(u) ->
    ControlGradient. Returns (best schedule, trace); on a line-search
    failure the best iterate so far comes back with the failure flagged.
    """
    if not u0.is_admissible():
        raise ValueError("initial schedule violates the dose box")
    times = u0.times
    trace = OptimizationTrace()

    u = u0.copy()
    j_curr = problem.objective(u)
    g_raw = problem.gradient(u)
    g_rep_v = _stack(smooth_gradient(g_raw, H1_EPSILON))
    g_raw_v = _stack(g_raw)
    d = -g_rep_v

    trace.objective.append(j_curr)
    trace.gradient_norm.append(_norm(times, g_raw_v))
    trace.step_length.append(0.0)
    trace.beta.append(0.0)
    trace.active_bounds.append(_active_count(u))

    for k in range(cfg.k_max):
        if _stationarity(u, g_raw_v) < cfg.tol:
            trace.converged = True
            trace.iterations = k
            break
        if _inner(times, g_raw_v, d) >= 0.0:
            d = -g_raw_v
        while True:
            try:
                alpha, u_next, j_next, used = armijo_step(u, d, g_raw_v, problem.objective,
                                                          j_curr)
                break
            except LineSearchError:
                if np.array_equal(d, -g_raw_v):
                    trace.line_search_failed = True
                    trace.iterations = k + 1
                    return u, trace
                # smoothed/conjugate direction stalled: restart raw
                d = -g_raw_v
        trace.backtracks += used

        step_norm = _norm(times, np.concatenate([u_next.u1 - u.u1, u_next.u2 - u.u2]))

        g_raw_next = problem.gradient(u_next)
        g_rep_next_v = _stack(smooth_gradient(g_raw_next, H1_EPSILON))
        y = g_rep_next_v - g_rep_v
        beta = hager_zhang_beta(g_rep_next_v, y, d, times)
        d = -g_rep_next_v + beta * d

        u, j_curr = u_next, j_next
        g_rep_v, g_raw_v = g_rep_next_v, _stack(g_raw_next)

        trace.objective.append(j_curr)
        trace.gradient_norm.append(_norm(times, g_raw_v))
        trace.step_length.append(alpha)
        trace.beta.append(beta)
        trace.active_bounds.append(_active_count(u))
        trace.iterations = k + 1

        if step_norm < cfg.tol:
            trace.converged = True
            break

    return u, trace
