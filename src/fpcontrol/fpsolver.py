"""Forward Fokker-Planck solver on a 4D box with no-flux walls.

Space is discretized with exponentially fitted Chang-Cooper face fluxes

    H = (sigma^2/2) (f_R - f_L)/h - F_face [delta f_R + (1 - delta) f_L],

where the fitting weight delta(w), w = h F / (sigma^2/2), makes the
discrete flux vanish exactly on local drift-diffusion equilibria. The
resulting per-axis operators have non-negative off-diagonal entries and
zero weighted column sums, so the scheme is conservative and generates
M-matrix implicit systems.

Time stepping is the four-step Douglas-Gunn splitting: one explicit
predictor containing all directional operators, then one implicit
correction per axis,

    f*      = f + dt (A_1 + ... + A_d) f,
    (I - dt/2 A_j) g_j = g_{j-1} - dt/2 A_j f,     g_0 = f*,

each correction needing only tridiagonal solves along its axis. Walls
are closed by forcing the boundary face flux to zero and updating the
wall nodes over half cells, which keeps the trapezoidal mass of every
step conserved to rounding.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MassDeviationError, SingularOperatorError
from .grid import Grid4D
from .model import ControlSchedule, DispersionSpec, NonDimParams, control_jacobian_profiles, drift
from .tridiag import TridiagonalBreakdown, thomas_solve, transpose_bands

log = logging.getLogger(__name__)

__all__ = [
    "cc_weight",
    "cc_weight_derivative",
    "AxisDiscretization",
    "DgStepper",
    "build_fp_stepper",
    "solve_forward",
    "DensityField",
    "ForwardDiagnostics",
    "mean_state",
]


# ---------------------------------------------------------------------------
# Chang-Cooper fitting weight


def cc_weight(w):
    """Exponential fitting weight delta(w) = 1/w - 1/(e^w - 1).

    Evaluates the removable singularity at w = 0 as 1/2 via a short
    series and saturates smoothly to 0 (full left upwinding) or 1 as
    w -> +/- infinity without overflow. Vectorized; delta in (0, 1) and
    delta(-w) = 1 - delta(w).
    """
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-3
    big_pos = w > 500.0
    big_neg = w < -500.0
    mid = ~(small | big_pos | big_neg)

    ws = w[small]
    out[small] = 0.5 - ws / 12.0 + ws**3 / 720.0
    wm = w[mid]
    out[mid] = 1.0 / wm - 1.0 / np.expm1(wm)
    out[big_pos] = 1.0 / w[big_pos]
    out[big_neg] = 1.0 + 1.0 / w[big_neg]
    if out.ndim == 0:
        return float(out)
    return out


def cc_weight_derivative(w):
    """d delta / d w; needed when differentiating fluxes in the control."""
    w = np.asarray(w, dtype=float)
    out = np.empty_like(w)
    small = np.abs(w) < 1e-3
    big = np.abs(w) > 500.0
    mid = ~(small | big)

    ws = w[small]
    out[small] = -1.0 / 12.0 + ws**2 / 240.0
    wm = w[mid]
    em = np.expm1(wm)
    out[mid] = -1.0 / wm**2 + np.exp(wm) / em**2
    wb = w[big]
    out[big] = -1.0 / wb**2 + np.exp(-np.abs(wb))
    if out.ndim == 0:
        return float(out)
    return out


# ---------------------------------------------------------------------------
# Per-axis discretization and banded operators


def _flux_difference_bands(a_face, b_face, delta_nodes):
    """Assemble (lower, diag, upper) of the flux-difference operator.

    ``a_face``/``b_face`` weight the right/left node in each face flux,
    shape (..., n-1); ``delta_nodes`` are the control lengths (h, halved
    at walls). Boundary faces are absent, which encodes the no-flux
    closure.
    """
    n = delta_nodes.size
    base = np.broadcast_shapes(np.shape(a_face), np.shape(b_face))
    shape = base[:-1] + (n,)
    lo = np.zeros(shape)
    di = np.zeros(shape)
    up = np.zeros(shape)
    up[..., :-1] = a_face / delta_nodes[:-1]
    lo[..., 1:] = -b_face / delta_nodes[1:]
    di[..., :-1] += b_face / delta_nodes[:-1]
    di[..., 1:] -= a_face / delta_nodes[1:]
    return lo, di, up


def _band_apply(bands, f):
    lo, di, up = bands
    out = di * f
    out[..., :-1] += up[..., :-1] * f[..., 1:]
    out[..., 1:] += lo[..., 1:] * f[..., :-1]
    return out


def _band_apply_transpose(bands, p):
    lo, di, up = bands
    out = di * p
    out[..., :-1] += lo[..., 1:] * p[..., 1:]
    out[..., 1:] += up[..., :-1] * p[..., :-1]
    return out


@dataclass
class AxisDiscretization:
    """Face data for one axis, stored with that axis moved last.

    ``dface`` holds sigma^2/2 at faces, ``f0_face`` the control-free
    drift component, and ``g1_face``/``g2_face`` the per-unit-dose drift
    slopes. Each keeps its natural shape: full length n-1 on the last
    (own) axis, and on every other axis either that axis' size or 1
    where the coefficient does not vary along it. The bands built from
    them have the same reduced leading shape and broadcast against the
    moved grid shape wherever they meet the density.
    """

    n: int
    h: float
    dface: np.ndarray
    f0_face: np.ndarray
    g1_face: np.ndarray
    g2_face: np.ndarray

    def __post_init__(self):
        self.delta_nodes = np.full(self.n, self.h)
        self.delta_nodes[0] = self.delta_nodes[-1] = 0.5 * self.h

    def drift_faces(self, u1: float, u2: float) -> np.ndarray:
        return self.f0_face + u1 * self.g1_face + u2 * self.g2_face

    def operator_bands(self, u1: float, u2: float):
        F = self.drift_faces(u1, u2)
        w = self.h * F / self.dface
        delta = cc_weight(w)
        a = self.dface / self.h - F * delta
        b = -self.dface / self.h - F * (1.0 - delta)
        return _flux_difference_bands(a, b, self.delta_nodes)

    def control_bands(self, u1: float, u2: float, channel: int):
        """Bands of dA/du for one control channel (None if inactive)."""
        g = self.g1_face if channel == 1 else self.g2_face
        if np.all(g == 0.0):
            return None
        F = self.drift_faces(u1, u2)
        w = self.h * F / self.dface
        delta = cc_weight(w)
        ddelta = cc_weight_derivative(w) * (self.h * g / self.dface)
        da = -g * delta - F * ddelta
        db = -g * (1.0 - delta) + F * ddelta
        return _flux_difference_bands(da, db, self.delta_nodes)


class DgStepper:
    """Douglas-Gunn stepper over an arbitrary list of axes.

    The production path uses four axes on a ``Grid4D``; reduced one- and
    two-axis configurations exist for the test suite only.
    """

    def __init__(self, axes: list[AxisDiscretization], shape: tuple[int, ...]):
        if len(axes) != len(shape):
            raise ValueError("one AxisDiscretization per array axis required")
        for j, ax in enumerate(axes):
            if ax.n != shape[j]:
                raise ValueError(f"axis {j} size mismatch: {ax.n} vs {shape[j]}")
        self.axes = axes
        self.shape = shape
        self.ndim = len(shape)

    def _mv(self, arr, j):
        return np.moveaxis(arr, j, -1)

    def _unmv(self, arr, j):
        return np.moveaxis(arr, -1, j)

    def apply_operator(self, j: int, f: np.ndarray, bands) -> np.ndarray:
        return self._unmv(_band_apply(bands, self._mv(f, j)), j)

    def apply_operator_transpose(self, j: int, p: np.ndarray, bands) -> np.ndarray:
        return self._unmv(_band_apply_transpose(bands, self._mv(p, j)), j)

    def _implicit_solve(self, j: int, bands, rhs: np.ndarray, theta_dt: float,
                        transposed: bool = False) -> np.ndarray:
        lo, di, up = bands
        sl, sd, su = -theta_dt * lo, 1.0 - theta_dt * di, -theta_dt * up
        if transposed:
            sl, sd, su = transpose_bands(sl, sd, su)
        try:
            x = thomas_solve(sl, sd, su, self._mv(rhs, j))
        except TridiagonalBreakdown as exc:
            raise SingularOperatorError(
                f"implicit solve broke down on axis {j}, line {exc.line}",
                axis=j,
                line=exc.line,
            ) from exc
        return self._unmv(x, j)

    def step(self, f: np.ndarray, u: tuple[float, float], dt: float,
             capture_stages: bool = False):
        """Advance one Douglas-Gunn step with coefficients frozen at u.

        Returns the new snapshot; with ``capture_stages`` also the
        per-axis band sets, the explicit applications A_j f, and the
        intermediate stages (used by the discrete adjoint).
        """
        u1, u2 = u
        bands = [ax.operator_bands(u1, u2) for ax in self.axes]
        af = [self.apply_operator(j, f, bands[j]) for j in range(self.ndim)]
        g = f + dt * sum(af)
        stages = []
        for j in range(self.ndim):
            rhs = g - 0.5 * dt * af[j]
            g = self._implicit_solve(j, bands[j], rhs, 0.5 * dt)
            stages.append(g)
        if capture_stages:
            return g, bands, af, stages
        return g

    def step_transpose(self, p_next: np.ndarray, dt: float, bands):
        """Apply the transpose of one step's propagator to ``p_next``.

        ``bands`` are the step's per-axis band sets from ``step``.
        Returns M^T p and the per-axis stage adjoints q_j (reverse
        order of the forward corrections), which the control gradient
        reuses.
        """
        q = [None] * self.ndim
        v = p_next
        for j in range(self.ndim - 1, -1, -1):
            v = self._implicit_solve(j, bands[j], v, 0.5 * dt, transposed=True)
            q[j] = v
        q1 = q[0]
        out = q1 + dt * sum(
            self.apply_operator_transpose(j, q1, bands[j]) for j in range(self.ndim)
        )
        for j in range(self.ndim):
            out -= 0.5 * dt * self.apply_operator_transpose(j, q[j], bands[j])
        return out, q


def build_fp_stepper(grid: Grid4D, q: NonDimParams,
                     disp: DispersionSpec | None = None) -> DgStepper:
    """Assemble the production 4-axis stepper for the model drift."""
    if disp is None:
        disp = DispersionSpec()
    xs = grid.axes()
    mesh = [grid.broadcast_axis(i, xs[i]) for i in range(4)]
    f_components = drift(tuple(mesh), (0.0, 0.0), q)
    g1, g2 = control_jacobian_profiles(q)

    axes = []
    for j in range(4):
        x = xs[j]
        sig = disp.sigma(x)
        dface = 0.25 * (sig[:-1] ** 2 + sig[1:] ** 2)
        # expand along axis j only; the other axes keep the size the
        # drift depends on, so F_C's bands are (1, 1, 1, n) per step
        shape = list(f_components[j].shape)
        shape[j] = grid.npts[j]
        fj = np.broadcast_to(f_components[j], shape)
        fj_m = np.moveaxis(fj, j, -1)
        f0_face = 0.5 * (fj_m[..., :-1] + fj_m[..., 1:])
        xface = 0.5 * (x[:-1] + x[1:])
        axes.append(
            AxisDiscretization(
                n=grid.npts[j],
                h=grid.h,
                dface=dface,
                f0_face=np.ascontiguousarray(f0_face),
                g1_face=g1[j] * xface,
                g2_face=g2[j] * xface,
            )
        )
    return DgStepper(axes, grid.shape)


# ---------------------------------------------------------------------------
# Quadrature diagnostics


def mean_state(f: np.ndarray, grid: Grid4D, mass_tol: float = 1e-6) -> np.ndarray:
    """Componentwise expectation of the state under a unit-mass snapshot."""
    mass = grid.integrate(f)
    if abs(mass - 1.0) > mass_tol:
        raise MassDeviationError(
            f"snapshot mass {mass:.3e} deviates from 1 beyond {mass_tol:g}"
        )
    return grid.mean_position(f)


# ---------------------------------------------------------------------------
# Forward solve with full or checkpointed storage


@dataclass
class ForwardDiagnostics:
    """Per-step conservation and stability monitors."""

    mass: np.ndarray
    min_value: np.ndarray
    l2_norm: np.ndarray

    @property
    def max_mass_deviation(self) -> float:
        return float(np.max(np.abs(self.mass - 1.0)))

    @property
    def min_over_run(self) -> float:
        return float(np.min(self.min_value))


class DensityField:
    """Time history of density snapshots on one grid.

    With ``store_every == 1`` every snapshot is kept. A larger stride
    keeps checkpoints only and re-steps the gaps on demand, trading
    compute for memory on large grids; reconstruction is exact because
    the stepper is deterministic.
    """

    def __init__(self, grid: Grid4D, times: np.ndarray, store_every: int = 1,
                 restepper=None):
        self.grid = grid
        self.times = np.asarray(times, dtype=float)
        self.store_every = int(store_every)
        if self.store_every < 1:
            raise ValueError("store_every must be >= 1")
        if self.store_every > 1 and restepper is None:
            raise ValueError("checkpointed storage needs a restepper")
        self._restepper = restepper
        self._snaps: dict[int, np.ndarray] = {}
        self._window: dict[int, np.ndarray] = {}

    @property
    def n_steps(self) -> int:
        return self.times.size - 1

    def is_stored(self, m: int) -> bool:
        return m in self._snaps

    def store(self, m: int, f: np.ndarray) -> None:
        if self.store_every == 1 or m % self.store_every == 0 or m == self.n_steps:
            self._snaps[m] = f.copy()

    def snapshot(self, m: int) -> np.ndarray:
        if not 0 <= m <= self.n_steps:
            raise IndexError(f"step index {m} outside 0..{self.n_steps}")
        if m in self._snaps:
            return self._snaps[m]
        if m in self._window:
            return self._window[m]
        base = (m // self.store_every) * self.store_every
        if base not in self._snaps:
            raise KeyError(f"missing checkpoint {base} for snapshot {m}")
        self._window = {}
        f = self._snaps[base]
        for step in range(base, m + 1):
            if step > base:
                self._window[step] = f
            if step == m:
                break
            f = self._restepper(step, f)
        return self._window[m]


def solve_forward(
    f0: np.ndarray,
    u: ControlSchedule,
    q: NonDimParams,
    grid: Grid4D,
    disp: DispersionSpec | None = None,
    store_every: int = 1,
    stepper: DgStepper | None = None,
) -> tuple[DensityField, ForwardDiagnostics]:
    """March the density over the control schedule's time grid.

    The full history is stored (or checkpointed) because the adjoint and
    the gradient consume it. Coefficients within one step are frozen at
    the step's start time.
    """
    if f0.shape != grid.shape:
        raise ValueError("initial density does not match the grid")
    if np.any(f0 < 0):
        raise ValueError("initial density must be non-negative")
    mass0 = grid.integrate(f0)
    if abs(mass0 - 1.0) > 1e-8:
        raise ValueError(f"initial density mass {mass0:.6e} is not 1")
    if stepper is None:
        stepper = build_fp_stepper(grid, q, disp)

    times = u.times
    dts = np.diff(times)
    if np.max(np.abs(dts - dts[0])) > 1e-12 * dts[0]:
        raise ValueError("control time grid must be uniform")
    dt = float(dts[0])
    n_steps = times.size - 1

    def restep(m: int, f: np.ndarray) -> np.ndarray:
        return stepper.step(f, u.at_index(m), dt)

    field = DensityField(grid, times, store_every=store_every, restepper=restep)
    mass = np.empty(n_steps + 1)
    min_value = np.empty(n_steps + 1)
    l2 = np.empty(n_steps + 1)

    f = f0.copy()
    field.store(0, f)
    mass[0] = grid.integrate(f)
    min_value[0] = f.min()
    l2[0] = math.sqrt(grid.integrate(f * f))

    for m in range(n_steps):
        f = stepper.step(f, u.at_index(m), dt)
        field.store(m + 1, f)
        mass[m + 1] = grid.integrate(f)
        if not math.isfinite(mass[m + 1]):
            raise DivergenceError(f"density mass is {mass[m + 1]} after step {m + 1}",
                                  time=float(times[m + 1]))
        min_value[m + 1] = f.min()
        l2[m + 1] = math.sqrt(grid.integrate(f * f))

    diag = ForwardDiagnostics(mass=mass, min_value=min_value, l2_norm=l2)
    if diag.max_mass_deviation > 1e-8:
        log.warning("mass deviated by %.3e during the forward solve", diag.max_mass_deviation)
    return field, diag

