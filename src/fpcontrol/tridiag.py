"""Batched tridiagonal (Thomas) solves along the first array axis.

The three bands share one shape (n, ...), solve axis first, so each
stage ``i`` is the contiguous block ``[i]``: ``lower[i]`` multiplies
x[i-1] (entry 0 unused) and ``upper[i]`` multiplies x[i+1] (entry n-1
unused). Trailing axes are independent systems solved in one vectorized
sweep. The bands' trailing axes need only broadcast against the
right-hand side's: a band axis of size 1 serves every line along it, so
the pivots and elimination factors of lines with equal coefficients are
computed once.

``thomas_factor`` stores the elimination A = L U: the pivots on the
diagonal of L, ``lower`` below it, and ``cp`` above the unit diagonal
of U. ``thomas_factored_solve`` reuses them for A x = b and, since
A^T = U^T L^T, for A^T x = b with no second factorization. A solve
copies the right-hand side once into a C-ordered buffer and sweeps it
in place, so the caller's array is never written. With ``overwrite``
the factors replace ``diag`` and ``upper`` and the sweep runs on the
right-hand side itself: a caller that owns its arrays allocates nothing.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

__all__ = ["ThomasFactors", "thomas_factor", "thomas_factored_solve", "thomas_solve",
           "TridiagonalBreakdown"]

_PIVOT_FLOOR = 1e-300


class TridiagonalBreakdown(RuntimeError):
    """Raised when forward elimination hits a vanishing pivot."""

    def __init__(self, stage: int, line: int):
        super().__init__(f"zero pivot at stage {stage}, line {line}")
        self.stage = stage
        self.line = line


class ThomasFactors(NamedTuple):
    lower: np.ndarray
    pivot: np.ndarray
    cp: np.ndarray


def thomas_factor(lower, diag, upper, lines: tuple[int, ...] = (),
                  overwrite: bool = False) -> ThomasFactors:
    """Eliminate without pivoting and check every pivot once.

    The callers assemble weakly diagonally dominant M-matrix systems, so
    plain elimination is stable; a vanishing pivot is reported instead
    of patched. ``lines`` is the batch shape of the right-hand sides the
    factors will serve, so a breakdown names a solved line. With
    ``overwrite`` the pivots are written over ``diag`` and ``cp`` over
    ``upper``, which must then be writable float arrays of one shape.
    """
    lower = np.asarray(lower, dtype=float)
    diag = np.asarray(diag, dtype=float)
    upper = np.asarray(upper, dtype=float)
    n = diag.shape[0]
    if n < 1:
        raise ValueError("empty system")

    pivot, cp = (diag, upper) if overwrite else (np.empty(diag.shape), np.empty(diag.shape))
    # a vanishing pivot turns the rest of its line into inf/NaN; the
    # check below reports the first one, so the warnings say nothing
    with np.errstate(divide="ignore", invalid="ignore"):
        pivot[0] = diag[0]
        cp[0] = upper[0] / pivot[0]
        for i in range(1, n):
            pivot[i] = diag[i] - lower[i] * cp[i - 1]
            cp[i] = upper[i] / pivot[i]
    _check_pivots(pivot, lines)
    return ThomasFactors(lower, pivot, cp)


def thomas_factored_solve(factors: ThomasFactors, rhs, transposed: bool = False,
                          overwrite: bool = False) -> np.ndarray:
    """Solve A x = rhs, or A^T x = rhs, with the factors of A, into a
    C-ordered copy of ``rhs`` or, with ``overwrite``, into ``rhs``."""
    lower, pivot, cp = factors
    x = rhs if overwrite else np.array(rhs, dtype=float, order="C")
    n = pivot.shape[0]
    if transposed:
        # U^T y = rhs (unit lower), then L^T x = y (upper, pivots on the diagonal)
        for i in range(1, n):
            x[i] -= cp[i - 1] * x[i - 1]
        x[n - 1] /= pivot[n - 1]
        for i in range(n - 2, -1, -1):
            x[i] -= lower[i + 1] * x[i + 1]
            x[i] /= pivot[i]
        return x

    x[0] /= pivot[0]
    for i in range(1, n):
        x[i] -= lower[i] * x[i - 1]
        x[i] /= pivot[i]
    for i in range(n - 2, -1, -1):
        x[i] -= cp[i] * x[i + 1]
    return x


def thomas_solve(lower, diag, upper, rhs, overwrite: bool = False) -> np.ndarray:
    """Factor and solve the batched systems in one call; ``overwrite``
    applies to both."""
    factors = thomas_factor(lower, diag, upper, np.shape(rhs)[1:], overwrite)
    return thomas_factored_solve(factors, rhs, overwrite=overwrite)


def _check_pivots(pivot, lines: tuple[int, ...]) -> None:
    """Raise at the first stage with a vanishing pivot, naming its first line.

    Lines broken at an earlier stage carry inf/NaN pivots afterwards,
    which do not count as vanishing. Broadcast bands are expanded to the
    right-hand side's batch shape ``lines`` (on the failure path only)
    so the reported index counts the solved lines in C order.
    """
    # the callers' M-matrix pivots are positive: one reduction clears
    # them without a temporary of the pivots' size
    if pivot.min() >= _PIVOT_FLOOR:
        return
    bad = np.abs(pivot) < _PIVOT_FLOOR
    if not np.any(bad):
        return
    stage = int(np.argmax(bad.reshape(bad.shape[0], -1).any(axis=1)))
    at_stage = np.broadcast_to(bad[stage], np.broadcast_shapes(bad.shape[1:], lines))
    raise TridiagonalBreakdown(stage, int(np.argmax(at_stage.reshape(-1))))
