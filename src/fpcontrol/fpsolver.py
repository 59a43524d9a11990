"""Forward Fokker-Planck solver on a 4D box with no-flux walls.

Space is discretized with exponentially fitted Chang-Cooper face fluxes,
written in their Scharfetter-Gummel form

    H = (sigma^2/2)/h [B(w) f_R - B(-w) f_L],    B(w) = w / (e^w - 1),

with the cell Peclet number w = h F / (sigma^2/2) of the face drift F.
The flux vanishes exactly on local drift-diffusion equilibria. B is
positive, so the per-axis operators have non-negative off-diagonal
entries and zero weighted column sums: the scheme is conservative and
generates M-matrix implicit systems.

Time stepping is the four-step Douglas-Gunn splitting: one explicit
predictor containing all directional operators, then one implicit
correction per axis,

    f*      = f + dt (A_1 + ... + A_d) f,
    (I - dt/2 A_j) g_j = g_{j-1} - dt/2 A_j f,     g_0 = f*,

each correction needing only tridiagonal solves along its axis. Walls
are closed by forcing the boundary face flux to zero and updating the
wall nodes over half cells, which keeps the trapezoidal mass of every
step conserved to rounding.

Everything along axis j is stored and swept with axis j first: face data
(n-1, ...), bands (n, ...), and each solve's contiguous right-hand side.
A step returns the density in the grid's C order.

The transposed step replays nothing of the step. Its stages come from
the step's result: with d_j = g_j - f the corrections read
(I - dt/2 A_j) d_j = d_{j-1}, so d_{j-1} = d_j - dt/2 A_j d_j, one
explicit product each, starting from d_d = f_next - f. The implicit
operators are factored only, with the operations of the step's solves,
so the transposed solves use the step's factors bit for bit.

A step, and a transposed step, allocates nothing but the array it
returns. Every full-size intermediate lives in work arrays that each
stepper and each of its axes own: allocated on the first call that
needs them, overwritten by every later one, and so not to be shared
across threads. The transposed step works in the step's arrays and owns
the rest it needs: two more grid-size arrays in the stepper, a copy of
the explicit bands and a boolean face mask in each axis.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, MassDeviationError, SingularOperatorError
from .grid import Grid4D
from .model import ControlSchedule, DispersionSpec, NonDimParams, control_jacobian_profiles, drift
from .tridiag import (
    ThomasFactors,
    TridiagonalBreakdown,
    thomas_factor,
    thomas_factored_solve,
    thomas_solve,
)

log = logging.getLogger(__name__)

__all__ = [
    "bernoulli",
    "bernoulli_derivative",
    "AxisDiscretization",
    "DgStepper",
    "build_fp_stepper",
    "solve_forward",
    "DensityField",
    "ForwardDiagnostics",
    "mean_state",
]


# ---------------------------------------------------------------------------
# Bernoulli function of the Scharfetter-Gummel flux


def bernoulli(w):
    """B(w) = w / (e^w - 1), with B(0) = 1 and B -> 0 as e^w overflows.

    ``AxisDiscretization.operator_bands`` evaluates B(|w|) in place; this
    form is the reference the tests hold it to, bit for bit.
    """
    w = np.asarray(w, dtype=float)
    with np.errstate(over="ignore"):
        em1 = np.expm1(w)
    return np.divide(w, em1, out=np.ones_like(w), where=em1 != 0.0)


def bernoulli_derivative(w):
    """B'(w); the dose sensitivities of the bands are g_c B'(w).

    For a = |w| >= 0.2 it uses e^-a (-expm1(-a) - a) / expm1(-a)^2,
    which cannot overflow, and B'(-a) = -1 - B'(a); below, the Taylor
    series through w^9, where that form's terms would cancel. Both hold
    a relative error under 1e-15.
    """
    w = np.asarray(w, dtype=float)
    return _bernoulli_derivative(w, np.empty_like(w), np.empty_like(w), np.empty_like(w),
                                 np.empty(w.shape, dtype=bool))


def _bernoulli_derivative(w, out, t1, t2, mask):
    """``bernoulli_derivative`` into ``out``, with t1, t2 and the boolean
    ``mask`` (all of w's shape) as scratch; w is not written."""
    a = np.abs(w, out=out)
    np.maximum(a, 0.2, out=a)  # keeps the closed form away from a = 0
    em1 = np.negative(a, out=t1)
    np.expm1(em1, out=em1)
    num = np.negative(em1, out=t2)
    num -= a
    right = np.negative(a, out=out)
    np.exp(right, out=right)
    right *= num
    em1 *= em1
    right /= em1
    np.less(w, 0.0, out=mask)
    np.subtract(-1.0, right, out=right, where=mask)
    np.abs(w, out=t1)
    small = np.less(t1, 0.2, out=mask)
    w2 = np.multiply(w, w, out=t2)
    # -0.5 + w (1/6 - w2 (1/180 - w2 (1/5040 - w2 (1/151200 - w2/4790016))))
    series = np.divide(w2, 4790016.0, out=t1)
    for c in (1.0 / 151200.0, 1.0 / 5040.0, 1.0 / 180.0):
        np.subtract(c, series, out=series)
        series *= w2
    np.subtract(1.0 / 6.0, series, out=series)
    series *= w
    np.add(-0.5, series, out=series)
    np.copyto(right, series, where=small)
    return right


# ---------------------------------------------------------------------------
# Per-axis discretization and banded operators

_SMALLEST_SUBNORMAL = 5e-324


def _flux_difference_bands(a_face, m_face, delta_nodes, bands):
    """Write (lower, diag, upper) of the flux-difference operator into ``bands``.

    Each face carries the flux a f_R - m f_L: ``a_face``/``m_face``
    weight the right/left node, shape (n-1, ...), and are overwritten.
    ``delta_nodes`` are the control lengths (h, halved at walls).
    Boundary faces are absent, which encodes the no-flux closure.
    """
    lo, di, up = bands
    lo[0] = up[-1] = di[-1] = 0.0
    np.divide(a_face, delta_nodes[:-1], out=up[:-1])
    np.divide(m_face, delta_nodes[1:], out=lo[1:])
    np.divide(m_face, delta_nodes[:-1], out=m_face)
    np.subtract(0.0, m_face, out=di[:-1])  # 0 - x, not -x: no -0.0
    np.divide(a_face, delta_nodes[1:], out=a_face)
    np.subtract(di[1:], a_face, out=di[1:])
    return bands


def _implicit_bands(bands, theta_dt):
    """Overwrite the bands of A with those of I - theta_dt A."""
    lo, di, up = bands
    np.multiply(lo, -theta_dt, out=lo)
    np.multiply(di, theta_dt, out=di)
    np.subtract(1.0, di, out=di)
    np.multiply(up, -theta_dt, out=up)
    return bands


def _band_apply(bands, f, out=None, scratch=None):
    """Tridiagonal product along the first axis; ``out``/``scratch`` are new
    if None. ``bands`` is (sub, di, sup): (lo[1:], di, up[:-1]) for A, and
    the off-diagonals swapped for A^T."""
    sub, di, sup = bands
    out = np.multiply(di, f, out=out)
    if scratch is None:
        scratch = np.empty_like(out)
    np.multiply(sup, f[1:], out=scratch[:-1])
    out[:-1] += scratch[:-1]
    np.multiply(sub, f[:-1], out=scratch[1:])
    out[1:] += scratch[1:]
    return out


def _laid_out_like(buf, a):
    """A view of ``buf``'s first ``a.size`` elements with a's shape and
    the axis order of a's memory layout."""
    order = sorted(range(a.ndim), key=lambda i: -a.strides[i])
    mem = buf.reshape(-1)[:a.size].reshape([a.shape[i] for i in order])
    return mem.transpose(sorted(range(a.ndim), key=order.__getitem__))


@dataclass
class AxisDiscretization:
    """Face data for one axis, stored with that axis first.

    ``dface`` holds sigma^2/2 at faces, ``f0_face`` the control-free
    drift component, and ``g1_face``/``g2_face`` the per-unit-dose drift
    slopes. Each keeps its natural shape: full length n-1 on the first
    (own) axis, and on every other axis, in grid order, either that
    axis' size or 1 where the coefficient does not vary along it. The
    bands built from them, (n, ...), broadcast against the axis-first
    view of the density wherever they meet it.

    The axis owns the arrays its faces and bands are built in: three of
    the faces' shape and three of the bands', allocated on first use.
    What ``operator_bands`` returns is valid until the axis' next call
    to it. For the transposed step it also owns, from its first call,
    three arrays of the bands' shape that ``explicit_copy`` fills and a
    boolean array of the faces' shape, B'(w)'s mask.
    """

    n: int
    h: float
    dface: np.ndarray
    f0_face: np.ndarray
    g1_face: np.ndarray
    g2_face: np.ndarray

    def __post_init__(self):
        # control lengths vary along the own axis only
        self.delta_nodes = np.full((self.n,) + (1,) * (self.dface.ndim - 1), self.h)
        self.delta_nodes[0] = self.delta_nodes[-1] = 0.5 * self.h
        self._work = None
        self._transposed = None

    def _buffers(self):
        """The face arrays (w and two weights) and the bands (lo, di, up)."""
        if self._work is None:
            face = np.broadcast_shapes(self.dface.shape, self.f0_face.shape,
                                       self.g1_face.shape, self.g2_face.shape)
            band = (self.n,) + face[1:]
            self._work = (tuple(np.empty(face) for _ in range(3)),
                          tuple(np.empty(band) for _ in range(3)))
        return self._work

    def _transposed_buffers(self):
        """Arrays only the transposed step uses: three for the explicit
        bands, and a boolean face mask for B'(w)."""
        if self._transposed is None:
            (w, _, _), bands = self._buffers()
            self._transposed = (tuple(np.empty_like(b) for b in bands),
                                np.empty(w.shape, dtype=bool))
        return self._transposed

    def explicit_copy(self, bands):
        """Copy ``bands`` into the axis' arrays for them and return those."""
        copies = self._transposed_buffers()[0]
        for copy, band in zip(copies, bands):
            np.copyto(copy, band)
        return copies

    def drift_faces(self, u1: float, u2: float) -> np.ndarray:
        return self.f0_face + u1 * self.g1_face + u2 * self.g2_face

    def operator_bands(self, u1: float, u2: float):
        """Bands of A at the doses (u1, u2), built in the axis' arrays.

        The cell Peclet numbers w = ``h * drift_faces(u1, u2) / dface``
        stay in the first face array, where ``dose_face_sums`` reads
        them. B is evaluated once, at |w|; B(-|w|) = B(|w|) + |w| gives
        the other weight, so both are positive and hold the values of
        ``bernoulli``.
        """
        (w, b_right, b_left), bands = self._buffers()
        np.add(self.f0_face, u1 * self.g1_face, out=w)
        w += u2 * self.g2_face
        w *= self.h
        w /= self.dface
        # B(|w|) = |w| / expm1(|w|); expm1 returns the smallest subnormal
        # unchanged, so raising |w| = 0 to it gives B(0) = 1 exactly
        a = np.abs(w, out=b_right)
        np.maximum(a, _SMALLEST_SUBNORMAL, out=a)
        with np.errstate(over="ignore"):
            np.expm1(a, out=b_left)
        np.divide(a, b_left, out=a)
        np.maximum(w, 0.0, out=b_left)
        np.add(a, b_left, out=b_left)
        # B + max(-w, 0) as B - min(w, 0), the same bits; the bands are
        # written last, so until then their memory is scratch
        low = np.minimum(w, 0.0, out=bands[0][1:])
        np.subtract(a, low, out=b_right)
        d = self.dface / self.h
        b_right *= d
        b_left *= d  # m = d B(-w); the left node's weight is -m
        return _flux_difference_bands(b_right, b_left, self.delta_nodes, bands)

    def dose_face_sums(self, terms, work) -> np.ndarray:
        """Face sums V with g_c . V = sum of weight * <q, C_c x> over ``terms``.

        w comes from the axis' last ``operator_bands`` call; ``terms``
        holds (weight, x, q) as axis-first views; C_c = dA/du_c. Since
        dw/du_c = h g_c / (sigma^2/2), channel c's face weights are
        g_c B'(w) on the right node and -g_c B'(-w) = -g_c (1 + B'(w)) on
        the left, so its flux through a face is g_c y with
        y = B'(w) (x_R - x_L) - x_L, and <q, C_c x> sums that flux against
        q_L/delta_L - q_R/delta_R. V reduces every axis but the first. The
        control lengths delta vary along the first axis only, so each term
        contracts its y with q_L and with q_R over the other axes and
        weighs the two (n-1)-vectors by weight/delta afterwards.

        Allocates only vectors of the axis' length. ``work`` is a borrowed
        float array of at least x's size, overwritten: B'(w) is formed in
        the axis' other two face arrays (free once the bands are built), in
        ``work`` and in the axis' boolean mask, then each term's y in
        ``work``, laid out like that term's q.
        """
        (w, slope, t1), _ = self._buffers()
        flat = work.reshape(-1)
        _bernoulli_derivative(w, slope, t1, flat[:w.size].reshape(w.shape),
                              self._transposed_buffers()[1])
        index = list(range(w.ndim))
        left = right = 0.0
        for weight, x, qv in terms:
            y = _laid_out_like(flat, qv[1:])
            np.subtract(x[1:], x[:-1], out=y)
            y *= slope
            y -= x[:-1]
            c = weight / self.delta_nodes.ravel()
            left += c[:-1] * np.einsum(y, index, qv[:-1], index, [0])
            right += c[1:] * np.einsum(y, index, qv[1:], index, [0])
        return left - right

    def control_bands(self, u1: float, u2: float, channel: int):
        """Bands of dA/du for one control channel (None if inactive).

        The reference that ``dose_face_sums`` is tested against.
        """
        g = self.g1_face if channel == 1 else self.g2_face
        if np.all(g == 0.0):
            return None
        slope = bernoulli_derivative(self.h * self.drift_faces(u1, u2) / self.dface)
        a_face, m_face = g * slope, g * (1.0 + slope)
        shape = (self.n,) + a_face.shape[1:]
        return _flux_difference_bands(a_face, m_face, self.delta_nodes,
                                      tuple(np.empty(shape) for _ in range(3)))


class DgStepper:
    """Douglas-Gunn stepper over an arbitrary list of axes.

    The production path uses four axes on a ``Grid4D``; reduced one- and
    two-axis configurations exist for the test suite only.

    Besides its axes' face and band arrays, a stepper owns d + 2 arrays of
    the grid's size: A_j f per axis (axis j first, C-ordered, and the
    right-hand side, then the stage, of correction j), the predictor, and
    the scratch of the band applications. They are allocated on the first
    step and written by every ``step`` and ``step_transpose``. The first
    ``step_transpose`` adds two more of the grid's size, which only the
    transposed step writes. So a stepper serves one thread at a time;
    both steps return fresh arrays, which callers may keep.
    """

    def __init__(self, axes: list[AxisDiscretization], shape: tuple[int, ...]):
        if len(axes) != len(shape):
            raise ValueError("one AxisDiscretization per array axis required")
        for j, ax in enumerate(axes):
            if ax.n != shape[j]:
                raise ValueError(f"axis {j} size mismatch: {ax.n} vs {shape[j]}")
            if any(np.ndim(a) != len(shape) for a in (ax.dface, ax.f0_face, ax.g1_face, ax.g2_face)):
                raise ValueError(f"axis {j} face data needs {len(shape)} dimensions, own axis first")
        self.axes = axes
        self.shape = shape
        self.ndim = len(shape)
        # axis j moved first and back; a stored permutation is much cheaper
        # per call than np.moveaxis
        order = range(self.ndim)
        self._to_first = [(j,) + tuple(i for i in order if i != j) for j in order]
        self._from_first = [tuple(perm.index(i) for i in order) for perm in self._to_first]
        self._moved = [tuple(shape[i] for i in perm) for perm in self._to_first]
        self._work = None
        self._adjoint_work = None

    def _buffers(self):
        """A_j f buffers (axis j first), the predictor, and apply scratch."""
        if self._work is None:
            self._work = ([np.empty(s) for s in self._moved], np.empty(self.shape),
                          np.empty(self.shape))
        return self._work

    def _mv(self, arr, j):
        return arr.transpose(self._to_first[j])

    def _unmv(self, arr, j):
        return arr.transpose(self._from_first[j])

    def apply_operator(self, j: int, f: np.ndarray, bands, out=None, scratch=None) -> np.ndarray:
        """A_j f, in grid axis order; ``out``/``scratch`` are axis-first."""
        lo, di, up = bands
        return self._unmv(_band_apply((lo[1:], di, up[:-1]), self._mv(f, j), out, scratch), j)

    def _implicit_solve(self, j: int, bands, theta_dt: float, rhs=None) -> None:
        """Factor I - theta_dt A_j over its bands, which then hold
        ``ThomasFactors``, and solve it over the axis-first ``rhs`` if given."""
        lo, di, up = _implicit_bands(bands, theta_dt)
        try:
            if rhs is None:
                thomas_factor(lo, di, up, self.shape[:j] + self.shape[j + 1:], overwrite=True)
            else:
                thomas_solve(lo, di, up, rhs, overwrite=True)
        except TridiagonalBreakdown as exc:
            raise SingularOperatorError(f"implicit solve broke down on axis {j}, line {exc.line}",
                                        axis=j, line=exc.line) from exc

    def step(self, f: np.ndarray, u: tuple[float, float], dt: float) -> np.ndarray:
        """Advance one Douglas-Gunn step with coefficients frozen at u.

        Works in the stepper's and its axes' arrays; ``f`` is not written
        and the result is a new array. Stage j is solved in A_j f's work
        buffer (axis j first), the factors of correction j in its bands.
        """
        u1, u2 = u
        half = 0.5 * dt
        bands = [ax.operator_bands(u1, u2) for ax in self.axes]
        af, g, scratch = self._buffers()
        for j in range(self.ndim):
            self.apply_operator(j, f, bands[j], af[j], scratch.reshape(af[j].shape))
        # g = f + dt * sum(af): sum() starts from 0, and 0 + -0.0 is +0.0
        np.add(af[0], 0, out=g)
        for j in range(1, self.ndim):
            g += self._unmv(af[j], j)
        g *= dt
        np.add(f, g, out=g)
        for j in range(self.ndim):
            # g - dt/2 A_j f over A_j f, the solve's axis-first buffer
            rhs = af[j]
            rhs *= half
            np.subtract(self._mv(g, j), rhs, out=rhs)
            self._implicit_solve(j, bands[j], half, rhs)
            g = self._unmv(rhs, j)
        # always a copy, never a work array (a one-axis stepper's is already
        # C-ordered); C order because the quadratures' sums, so the mass and
        # objective bits, follow the memory layout of what they integrate
        return np.array(g, order="C")

    def step_transpose(self, f: np.ndarray, f_next: np.ndarray, u: tuple[float, float],
                       dt: float, p_next: np.ndarray):
        """Vector-Jacobian product of the step f -> f_next = M(u) f.

        Returns M^T p_next and, per dose channel c, the sensitivity
        <p_next, dM/du_c f>, taken from one face contraction per axis.

        Nothing of the step is replayed. Each axis' bands are copied, into
        arrays the axis owns, for the explicit products, then factored as
        its implicit operator: the transposed solves use those factors,
        A^T = U^T L^T. The stages come from ``f_next``: since
        (I - dt/2 A_j)(g_j - f) = g_{j-1} - f, the last stage's
        d = f_next - f gives each earlier d_{j-1} = g_{j-1} - f as
        d_j - dt/2 A_j d_j, one explicit product per axis but the first.

        Allocates only the array it returns, and that last. The adjoint
        stage q_j is solved in place in A_j f's work buffer (axis j
        first). The predictor and the scratch buffers and the two
        grid-size arrays the stepper owns for this step serve as r, t, s
        and the total. First the total and r take turns holding d_j, laid
        out like q_j, and the face sums' y, while t and s hold A_j d_j and
        its scratch; then they hold each transposed product's input,
        result and scratch, and the running sum of the products.
        """
        u1, u2 = u
        half = 0.5 * dt
        last = self.ndim - 1
        bands = [ax.operator_bands(u1, u2) for ax in self.axes]
        explicit = [ax.explicit_copy(b) for ax, b in zip(self.axes, bands)]
        for j in range(self.ndim):
            self._implicit_solve(j, bands[j], half)
        af, g, scratch = self._buffers()
        if self._adjoint_work is None:
            self._adjoint_work = [np.empty(self.shape) for _ in range(2)]
        work, total = [g, scratch, self._adjoint_work[0]], self._adjoint_work[1]

        v = p_next
        for j in range(last, -1, -1):
            np.copyto(af[j], self._mv(v, j))
            thomas_factored_solve(ThomasFactors(*bands[j]), af[j], transposed=True, overwrite=True)
            v = self._unmv(af[j], j)
        q1 = v

        # predictor: dt <q1, C_j f>; correction j: dt/2 <q_j, C_j d_j>
        sens = np.zeros(2)
        d, other = total.reshape(self._moved[last]), work[0]
        np.subtract(self._mv(f_next, last), self._mv(f, last), out=d)
        for j in range(last, -1, -1):
            ax = self.axes[j]
            if np.any(ax.g1_face != 0.0) or np.any(ax.g2_face != 0.0):
                v_face = ax.dose_face_sums(((dt, self._mv(f, j), self._mv(q1, j)),
                                            (half, d, af[j])), other)
                sens += (np.dot(ax.g1_face.ravel(), v_face), np.dot(ax.g2_face.ravel(), v_face))
            if j > 0:
                lo, di, up = explicit[j]
                t, s = (buf.reshape(self._moved[j]) for buf in work[1:])
                _band_apply((lo[1:], di, up[:-1]), d, t, s)
                t *= half
                prev = other.reshape(self._moved[j - 1])
                np.subtract(d, t, out=self._mv(self._unmv(prev, j - 1), j))
                d, other = prev, d

        # q1 + the sum over j of A_j^T (dt q1 - half q_j), A_j^T being A_j's
        # product with its off-diagonals swapped; the sum starts from 0, and
        # 0 + -0.0 is +0.0. The returned array is allocated last, so numpy's
        # ufunc buffers never coexist with it.
        for j, (lo, di, up) in enumerate(explicit):
            r, t, s = (buf.reshape(self._moved[j]) for buf in work)
            np.multiply(self._mv(q1, j), dt, out=r)
            r -= np.multiply(af[j], half, out=t)
            if j == 0:
                _band_apply((up[:-1], di, lo[1:]), r, total, s)
                np.add(total, 0, out=total)
            else:
                total += self._unmv(_band_apply((up[:-1], di, lo[1:]), r, t, s), j)
        return q1 + total, (float(sens[0]), float(sens[1]))


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
        # drift depends on, so F_C's bands are (n, 1, 1, 1) per step
        shape = list(f_components[j].shape)
        shape[j] = grid.npts[j]
        fj = np.broadcast_to(f_components[j], shape)
        fj_m = np.moveaxis(fj, j, 0)
        f0_face = 0.5 * (fj_m[:-1] + fj_m[1:])
        xface = 0.5 * (x[:-1] + x[1:])
        col = (-1, 1, 1, 1)
        axes.append(AxisDiscretization(
            n=grid.npts[j], h=grid.h, dface=dface.reshape(col),
            f0_face=np.ascontiguousarray(f0_face),
            g1_face=(g1[j] * xface).reshape(col), g2_face=(g2[j] * xface).reshape(col)))
    return DgStepper(axes, grid.shape)


# ---------------------------------------------------------------------------
# Quadrature diagnostics


def mean_state(f: np.ndarray, grid: Grid4D, mass_tol: float = 1e-6) -> np.ndarray:
    """Componentwise expectation of the state under a unit-mass snapshot."""
    mass = grid.integrate(f)
    if not abs(mass - 1.0) <= mass_tol:  # a NaN mass fails too
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
    the stepper is deterministic. ``store`` keeps the array, not a copy.
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
            self._snaps[m] = f  # steps return fresh arrays and write no input

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
    # comparisons a NaN fails, so it cannot pass as a density
    if not np.all(f0 >= 0):
        raise ValueError("initial density must be non-negative and not NaN")
    mass0 = grid.integrate(f0)
    if not abs(mass0 - 1.0) <= 1e-8:
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
    square = np.empty(grid.shape)  # f * f for the L2 monitor, one buffer per solve
    field.store(0, f)
    mass[0] = grid.integrate(f)
    min_value[0] = f.min()
    l2[0] = math.sqrt(grid.integrate(np.multiply(f, f, out=square)))

    for m in range(n_steps):
        f = stepper.step(f, u.at_index(m), dt)
        field.store(m + 1, f)
        mass[m + 1] = grid.integrate(f)
        if not math.isfinite(mass[m + 1]):
            raise DivergenceError(f"density mass is {mass[m + 1]} after step {m + 1}",
                                  time=float(times[m + 1]))
        min_value[m + 1] = f.min()
        l2[m + 1] = math.sqrt(grid.integrate(np.multiply(f, f, out=square)))

    diag = ForwardDiagnostics(mass=mass, min_value=min_value, l2_norm=l2)
    if diag.max_mass_deviation > 1e-8:
        log.warning("mass deviated by %.3e during the forward solve", diag.max_mass_deviation)
    return field, diag

