"""Uniform 4D tensor grid and the quadrature rules tied to it."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["Grid4D"]


@dataclass(frozen=True)
class Grid4D:
    """Vertex-centered uniform grid on a box, identical spacing per axis.

    ``npts[i]`` counts nodes including both endpoints, so the spacing is
    (hi - lo) / (npts - 1). Trapezoidal weights (h/2 at walls, h inside)
    make the discrete mass of the no-flux solver exactly conserved.
    """

    lo: tuple[float, float, float, float]
    hi: tuple[float, float, float, float]
    npts: tuple[int, int, int, int]

    def __post_init__(self):
        if any(n < 3 for n in self.npts):
            raise ValueError("each axis needs at least 3 nodes")
        spacings = [
            (self.hi[i] - self.lo[i]) / (self.npts[i] - 1) for i in range(4)
        ]
        if any(s <= 0 for s in spacings):
            raise ValueError("upper bounds must exceed lower bounds")
        if max(spacings) - min(spacings) > 1e-12 * max(spacings):
            raise ValueError("grid spacing must be identical across axes")

    @classmethod
    def cube(cls, lo: float, hi: float, n: int) -> "Grid4D":
        return cls(lo=(lo,) * 4, hi=(hi,) * 4, npts=(n,) * 4)

    @property
    def h(self) -> float:
        return (self.hi[0] - self.lo[0]) / (self.npts[0] - 1)

    @property
    def shape(self) -> tuple[int, int, int, int]:
        return tuple(self.npts)

    def cell_count(self) -> int:
        return int(np.prod(self.npts))

    def axis(self, i: int) -> np.ndarray:
        """Node coordinates along axis i."""
        return np.linspace(self.lo[i], self.hi[i], self.npts[i])

    def axes(self) -> list[np.ndarray]:
        return [self.axis(i) for i in range(4)]

    @cached_property
    def _axis_weights(self) -> tuple[np.ndarray, ...]:
        # built once per grid; read-only, since every caller shares them
        weights = []
        for n in self.npts:
            w = np.full(n, self.h)
            w[0] = w[-1] = 0.5 * self.h
            w.flags.writeable = False
            weights.append(w)
        return tuple(weights)

    def axis_weights(self, i: int) -> np.ndarray:
        """1D trapezoidal quadrature weights along axis i (read-only)."""
        return self._axis_weights[i]

    def weights(self) -> np.ndarray:
        """Full tensor-product trapezoidal weight array (grid shaped)."""
        w = self.axis_weights(0)[:, None, None, None]
        w = w * self.axis_weights(1)[None, :, None, None]
        w = w * self.axis_weights(2)[None, None, :, None]
        w = w * self.axis_weights(3)[None, None, None, :]
        return w

    def broadcast_axis(self, i: int, values: np.ndarray) -> np.ndarray:
        """Reshape a 1D per-node array so it broadcasts along axis i."""
        shape = [1, 1, 1, 1]
        shape[i] = -1
        return np.asarray(values).reshape(shape)

    def contains(self, point) -> bool:
        point = np.asarray(point, dtype=float)
        return bool(
            np.all(point >= np.asarray(self.lo)) and np.all(point <= np.asarray(self.hi))
        )

    def integrate(self, f: np.ndarray) -> float:
        """Trapezoidal integral of a grid function over the box."""
        if f.shape != self.shape:
            raise ValueError(f"field shape {f.shape} does not match grid {self.shape}")
        out = f
        for w in self._axis_weights:
            out = np.tensordot(out, w, axes=([0], [0]))
        return float(out)

    def mean_position(self, f: np.ndarray) -> np.ndarray:
        """Componentwise expectation of the coordinates under density f."""
        means = np.empty(4)
        for i in range(4):
            xi = self.broadcast_axis(i, self.axis(i))
            means[i] = self.integrate(f * xi)
        return means

    def marginal(self, f: np.ndarray, axis: int) -> np.ndarray:
        """1D marginal density along one axis (others integrated out)."""
        out = f
        for other in sorted(set(range(4)) - {axis}, reverse=True):
            out = np.tensordot(out, self.axis_weights(other), axes=([other], [0]))
        return out
