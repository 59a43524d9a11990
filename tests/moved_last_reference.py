"""The Douglas-Gunn step in its earlier moved-last layout, as a reference.

Here each axis is moved last: bands are (..., n), and the Thomas sweeps
read and write the strided slices [..., i] through separate elimination
and solution arrays. The production solver stores and sweeps everything
solve axis first and must give the same bits; ``test_layout.py`` asserts
that with ``np.array_equal``.
"""

import numpy as np

from fpcontrol.fpsolver import _implicit_bands


def thomas_factor(lower, diag, upper):
    n = diag.shape[-1]
    pivot = np.empty((n,) + diag.shape[:-1])
    cp = np.empty_like(pivot)
    pivot[0] = diag[..., 0]
    cp[0] = upper[..., 0] / pivot[0]
    for i in range(1, n):
        pivot[i] = diag[..., i] - lower[..., i] * cp[i - 1]
        cp[i] = upper[..., i] / pivot[i]
    return lower, pivot, cp


def thomas_factored_solve(factors, rhs, transposed=False):
    lower, pivot, cp = factors
    n = pivot.shape[0]
    dp = np.empty_like(rhs)
    x = np.empty_like(rhs)
    if transposed:
        dp[..., 0] = rhs[..., 0]
        for i in range(1, n):
            dp[..., i] = rhs[..., i] - cp[i - 1] * dp[..., i - 1]
        x[..., n - 1] = dp[..., n - 1] / pivot[n - 1]
        for i in range(n - 2, -1, -1):
            x[..., i] = (dp[..., i] - lower[..., i + 1] * x[..., i + 1]) / pivot[i]
        return x
    dp[..., 0] = rhs[..., 0] / pivot[0]
    for i in range(1, n):
        dp[..., i] = (rhs[..., i] - lower[..., i] * dp[..., i - 1]) / pivot[i]
    x[..., n - 1] = dp[..., n - 1]
    for i in range(n - 2, -1, -1):
        x[..., i] = dp[..., i] - cp[i] * x[..., i + 1]
    return x


def band_apply(bands, f):
    lo, di, up = bands
    out = di * f
    out[..., :-1] += up[..., :-1] * f[..., 1:]
    out[..., 1:] += lo[..., 1:] * f[..., :-1]
    return out


def band_apply_transpose(bands, p):
    lo, di, up = bands
    out = di * p
    out[..., :-1] += lo[..., 1:] * p[..., 1:]
    out[..., 1:] += up[..., :-1] * p[..., :-1]
    return out


def moved_last(arrays):
    """Axis-first arrays with their first axis moved last."""
    return tuple(np.moveaxis(a, 0, -1) for a in arrays)


def _along(j, fn, arr, *args):
    # run fn on arr with axis j moved last, and move the result back
    return np.moveaxis(fn(*args, np.moveaxis(arr, j, -1)), -1, j)


def _bands_and_factors(stepper, u, dt):
    bands = [moved_last(ax.operator_bands(*u)) for ax in stepper.axes]
    factors = [thomas_factor(*_implicit_bands([x.copy() for x in b], 0.5 * dt))
               for b in bands]
    return bands, factors


def step(stepper, f, u, dt):
    """One step of ``stepper``'s scheme, moved-last."""
    bands, factors = _bands_and_factors(stepper, u, dt)
    af = [_along(j, band_apply, f, bands[j]) for j in range(stepper.ndim)]
    g = f + dt * sum(af)
    for j in range(stepper.ndim):
        g = _along(j, thomas_factored_solve, g - 0.5 * dt * af[j], factors[j])
    return g


def step_transpose(stepper, u, dt, p):
    """M^T p for one step of ``stepper``'s scheme, moved-last."""
    half = 0.5 * dt
    bands, factors = _bands_and_factors(stepper, u, dt)
    q = [None] * stepper.ndim
    v = p
    for j in range(stepper.ndim - 1, -1, -1):
        v = np.moveaxis(thomas_factored_solve(factors[j], np.moveaxis(v, j, -1), True), -1, j)
        q[j] = v
    q1 = q[0]
    return q1 + sum(_along(j, band_apply_transpose, dt * q1 - half * q[j], bands[j])
                    for j in range(stepper.ndim))
