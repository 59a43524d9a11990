"""Batched tridiagonal (Thomas) solves along the last array axis.

The three bands share one shape (..., n): ``lower[..., i]`` multiplies
x[..., i-1] (entry 0 unused) and ``upper[..., i]`` multiplies
x[..., i+1] (entry n-1 unused). Leading axes are independent systems
solved in one vectorized sweep. The bands' leading axes need only
broadcast against the right-hand side's: a band axis of size 1 serves
every line along it, so the pivots and elimination factors of lines
with equal coefficients are computed once.
"""

from __future__ import annotations

import numpy as np

__all__ = ["thomas_solve", "transpose_bands", "TridiagonalBreakdown"]

_PIVOT_FLOOR = 1e-300


class TridiagonalBreakdown(RuntimeError):
    """Raised when forward elimination hits a vanishing pivot."""

    def __init__(self, stage: int, line: int):
        super().__init__(f"zero pivot at stage {stage}, line {line}")
        self.stage = stage
        self.line = line


def thomas_solve(lower, diag, upper, rhs) -> np.ndarray:
    """Solve the batched systems without pivoting.

    The callers assemble weakly diagonally dominant M-matrix systems, so
    plain elimination is stable; a vanishing pivot is reported instead
    of patched.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    n = diag.shape[-1]
    if n < 1:
        raise ValueError("empty system")

    cp = np.empty_like(diag)
    dp = np.empty_like(rhs)

    lines = rhs.shape[:-1]
    pivot = diag[..., 0]
    _check_pivot(pivot, 0, lines)
    cp[..., 0] = upper[..., 0] / pivot
    dp[..., 0] = rhs[..., 0] / pivot
    for i in range(1, n):
        pivot = diag[..., i] - lower[..., i] * cp[..., i - 1]
        _check_pivot(pivot, i, lines)
        cp[..., i] = upper[..., i] / pivot
        dp[..., i] = (rhs[..., i] - lower[..., i] * dp[..., i - 1]) / pivot

    x = np.empty_like(rhs)
    x[..., n - 1] = dp[..., n - 1]
    for i in range(n - 2, -1, -1):
        x[..., i] = dp[..., i] - cp[..., i] * x[..., i + 1]
    return x


def transpose_bands(lower, diag, upper):
    """Bands of the transposed operator, same (..., n) layout."""
    lower = np.asarray(lower, dtype=float)
    upper = np.asarray(upper, dtype=float)
    lo_t = np.zeros_like(lower)
    up_t = np.zeros_like(upper)
    lo_t[..., 1:] = upper[..., :-1]
    up_t[..., :-1] = lower[..., 1:]
    return lo_t, np.asarray(diag, dtype=float), up_t


def _check_pivot(pivot, stage: int, lines: tuple[int, ...]) -> None:
    """Raise at the first right-hand-side line whose pivot vanishes.

    ``lines`` is the right-hand side's batch shape; broadcast bands are
    expanded to it (on the failure path only) so the reported index
    counts the solved lines, not the band lines.
    """
    bad = np.abs(pivot) < _PIVOT_FLOOR
    if np.any(bad):
        bad = np.broadcast_to(bad, np.broadcast_shapes(bad.shape, lines))
        line = int(np.argmax(bad.reshape(-1))) if bad.ndim else 0
        raise TridiagonalBreakdown(stage, line)
