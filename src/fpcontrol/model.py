"""Tumor-immune interaction model: parameters, scaling, drift and noise.

The state vector collects four cell populations:

    T - tumor cells, N - natural killer cells, L - CD8+ T cells,
    C - other circulating lymphocytes,

with two therapy controls: u1 (chemotherapy dose rate) and u2
(immunotherapy dose rate). All solver-facing quantities are
non-dimensional; dimensional parameters enter only through
``nondimensionalize``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DimensionalParams",
    "ScalingConstants",
    "NonDimParams",
    "State",
    "ControlSchedule",
    "DispersionSpec",
    "nondimensionalize",
    "redimensionalize",
    "kill_term",
    "drift",
    "control_jacobian_profiles",
    "KILL_T_FLOOR",
]

# Regularization floor on T inside the immune-kill ratio L/T. Keeps the
# saturating kill term continuous as T -> 0 instead of dividing by zero.
KILL_T_FLOOR = 1e-12


@dataclass(frozen=True)
class DimensionalParams:
    """Dimensional model rates (per day unless noted).

    a: tumor growth; b: inverse tumor carrying capacity (1/cells);
    c: NK-cell kill coefficient (L/cells/day); d: maximum CD8 kill rate;
    e: lymphocyte-to-NK conversion; f: NK death; p: NK inactivation by
    tumor contact; m: CD8 net proliferation; j: tumor-driven CD8
    recruitment; k: recruitment saturation (cells); q: CD8 inactivation
    by tumor contact; r1, r2: CD8 priming by NK/lymphocyte-tumor
    contact; s: kill saturation constant; l: kill exponent
    (dimensionless); alpha: lymphocyte source (cells/L/day); beta:
    lymphocyte death; alpha1..alpha4: chemotherapy kill coefficients per
    population; beta_n, beta_l: immunotherapy boost coefficients for the
    N- and L-equations.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    p: float
    m: float
    j: float
    k: float
    q: float
    r1: float
    r2: float
    s: float
    l: float
    alpha: float
    beta: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    beta_n: float
    beta_l: float

    def __post_init__(self):
        for name, value in dataclasses.asdict(self).items():
            if not np.isfinite(value):
                raise ValueError(f"dimensional parameter {name!r} is not finite")
            if value < 0:
                raise ValueError(f"dimensional parameter {name!r} must be non-negative")
        for name in ("b", "k", "s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"dimensional parameter {name!r} must be positive")


@dataclass(frozen=True)
class ScalingConstants:
    """Scale factors mapping (T, N, L, C, time) onto O(1) ranges."""

    k1: float
    k2: float
    k3: float
    k4: float
    k5: float

    def __post_init__(self):
        for name in ("k1", "k2", "k3", "k4", "k5"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"scaling constant {name!r} must be positive and finite")

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.k1, self.k2, self.k3, self.k4, self.k5)


@dataclass(frozen=True)
class NonDimParams:
    """Non-dimensional model rates; produce via ``nondimensionalize``.

    ``ratio_tl`` carries the T/L scale ratio (k1/k3) that the saturating
    kill term needs; it defaults to 1 for directly constructed test
    parameter sets.
    """

    a: float
    b: float
    c: float
    d: float
    e: float
    f: float
    p: float
    m: float
    j: float
    k: float
    q: float
    r1: float
    r2: float
    s: float
    l: float
    alpha: float
    beta: float
    alpha1: float
    alpha2: float
    alpha3: float
    alpha4: float
    beta_n: float
    beta_l: float
    ratio_tl: float = 1.0

    def with_patient(self, d: float, l: float, s: float) -> "NonDimParams":
        """Return a copy with the patient-specific kill triple replaced."""
        return dataclasses.replace(self, d=d, l=l, s=s)

    def kill_saturation(self) -> float:
        """Denominator constant of the kill term: 4e-3 * s * ratio_tl**l."""
        return 4.0e-3 * self.s * self.ratio_tl**self.l


def nondimensionalize(p: DimensionalParams, k: ScalingConstants) -> NonDimParams:
    """Map dimensional rates onto their non-dimensional counterparts.

    The state scales as (k1*T, k2*N, k3*L, k4*C) with time k5*tau; each
    rate is rescaled so the transformed system keeps the same algebraic
    form, with the large binding constants p and q pre-multiplied by
    1e10 and 1e8 (the drift divides them back out).
    """
    k1, k2, k3, k4, k5 = k.as_tuple()
    return NonDimParams(
        a=p.a / k5,
        b=p.b / k1,
        c=p.c / (k2 * k5),
        d=p.d / k5,
        e=p.e * k2 / (k4 * k5),
        f=p.f / k5,
        p=1e10 * p.p / (k1 * k5),
        m=p.m / k5,
        j=p.j / k5,
        k=k1 * p.k,
        q=1e8 * p.q / (k5 * k1),
        r1=p.r1 * k3 / (k1 * k2 * k5),
        r2=p.r2 * k3 / (k1 * k4 * k5),
        s=250.0 * p.s,
        alpha=p.alpha * k4 / k5,
        beta=p.beta / k5,
        l=p.l,
        alpha1=p.alpha1 / k5,
        alpha2=p.alpha2 / k5,
        alpha3=p.alpha3 / k5,
        alpha4=p.alpha4 / k5,
        beta_n=p.beta_n / k5,
        beta_l=p.beta_l / k5,
        ratio_tl=k1 / k3,
    )


def redimensionalize(q: NonDimParams, k: ScalingConstants) -> DimensionalParams:
    """Inverse of ``nondimensionalize`` (exact on positive parameters)."""
    k1, k2, k3, k4, k5 = k.as_tuple()
    return DimensionalParams(
        a=q.a * k5,
        b=q.b * k1,
        c=q.c * k2 * k5,
        d=q.d * k5,
        e=q.e * k4 * k5 / k2,
        f=q.f * k5,
        p=q.p * k1 * k5 / 1e10,
        m=q.m * k5,
        j=q.j * k5,
        k=q.k / k1,
        q=q.q * k5 * k1 / 1e8,
        r1=q.r1 * k1 * k2 * k5 / k3,
        r2=q.r2 * k1 * k4 * k5 / k3,
        s=q.s / 250.0,
        alpha=q.alpha * k5 / k4,
        beta=q.beta * k5,
        l=q.l,
        alpha1=q.alpha1 * k5,
        alpha2=q.alpha2 * k5,
        alpha3=q.alpha3 * k5,
        alpha4=q.alpha4 * k5,
        beta_n=q.beta_n * k5,
        beta_l=q.beta_l * k5,
    )


@dataclass(frozen=True)
class State:
    """Non-dimensional population levels (all components >= 0)."""

    T: float
    N: float
    L: float
    C: float

    def __post_init__(self):
        arr = self.as_array()
        if not np.all(np.isfinite(arr)):
            raise ValueError("state components must be finite")
        if np.any(arr < 0):
            raise ValueError("state components must be non-negative")

    def as_array(self) -> np.ndarray:
        return np.array([self.T, self.N, self.L, self.C], dtype=float)

    @staticmethod
    def from_array(x) -> "State":
        x = np.asarray(x, dtype=float)
        return State(T=float(x[0]), N=float(x[1]), L=float(x[2]), C=float(x[3]))


class ControlSchedule:
    """Two dosage series sampled on a uniform time grid, with box bounds.

    Values between samples are piecewise-linear. Admissibility means
    0 <= u_i(t_m) <= D_i at every sample.
    """

    def __init__(self, times, u1, u2, d1: float, d2: float):
        self.times = np.asarray(times, dtype=float)
        self.u1 = np.asarray(u1, dtype=float)
        self.u2 = np.asarray(u2, dtype=float)
        self.d1 = float(d1)
        self.d2 = float(d2)
        if self.times.ndim != 1 or self.times.size < 2:
            raise ValueError("control schedule needs at least two time samples")
        if np.any(np.diff(self.times) <= 0):
            raise ValueError("control time grid must be strictly increasing")
        if self.u1.shape != self.times.shape or self.u2.shape != self.times.shape:
            raise ValueError("control series must match the time grid length")
        if self.d1 < 0 or self.d2 < 0:
            raise ValueError("dose bounds must be non-negative")

    @classmethod
    def zeros(cls, t_end: float, n_steps: int, d1: float, d2: float) -> "ControlSchedule":
        t = np.linspace(0.0, t_end, n_steps + 1)
        return cls(t, np.zeros(n_steps + 1), np.zeros(n_steps + 1), d1, d2)

    @classmethod
    def constant(cls, t_end: float, n_steps: int, u1: float, u2: float,
                 d1: float, d2: float) -> "ControlSchedule":
        t = np.linspace(0.0, t_end, n_steps + 1)
        return cls(t, np.full(n_steps + 1, float(u1)), np.full(n_steps + 1, float(u2)), d1, d2)

    def is_admissible(self, tol: float = 0.0) -> bool:
        return bool(
            np.all(self.u1 >= -tol) and np.all(self.u1 <= self.d1 + tol)
            and np.all(self.u2 >= -tol) and np.all(self.u2 <= self.d2 + tol)
        )

    def clipped(self) -> "ControlSchedule":
        """Projection onto the admissible box, sample by sample."""
        return ControlSchedule(
            self.times,
            np.clip(self.u1, 0.0, self.d1),
            np.clip(self.u2, 0.0, self.d2),
            self.d1,
            self.d2,
        )

    def with_values(self, u1, u2) -> "ControlSchedule":
        return ControlSchedule(self.times, u1, u2, self.d1, self.d2)

    def at_time(self, t: float) -> tuple[float, float]:
        """Piecewise-linear interpolation of both channels at time t."""
        u1 = float(np.interp(t, self.times, self.u1))
        u2 = float(np.interp(t, self.times, self.u2))
        return u1, u2

    def at_index(self, m: int) -> tuple[float, float]:
        return float(self.u1[m]), float(self.u2[m])

    def copy(self) -> "ControlSchedule":
        return ControlSchedule(self.times, self.u1.copy(), self.u2.copy(), self.d1, self.d2)


def kill_term(T, L, q: NonDimParams):
    """Saturating fractional tumor kill by CD8+ cells.

    Evaluates d * r**l / (kappa + r**l) with r = L / max(T, floor) and
    kappa = 4e-3 * s * ratio_tl**l, written as d / (1 + kappa * r**-l)
    so that large ratios saturate to d and r = 0 yields 0 without
    overflow. Works elementwise; scalars give a 0-d array.
    """
    T = np.asarray(T, dtype=float)
    L = np.asarray(L, dtype=float)
    kappa = q.kill_saturation()
    ratio = L / np.maximum(T, KILL_T_FLOOR)
    with np.errstate(divide="ignore", over="ignore"):
        inv_pow = np.where(ratio > 0.0, ratio, 1.0) ** (-q.l)
        return np.where(ratio > 0.0, q.d / (1.0 + kappa * inv_pow), 0.0)


def drift(x, u: tuple[float, float], q: NonDimParams):
    """Deterministic rates of change F(x, u) of all four populations.

    ``x`` is either a length-4 state vector or a tuple of four
    broadcastable arrays (T, N, L, C); the result matches that layout.
    Chemotherapy (u1) removes a fraction of every population,
    immunotherapy (u2) boosts the NK and CD8 pools.
    """
    T, N, L, C = x[0], x[1], x[2], x[3]
    u1, u2 = u
    D = kill_term(T, L, q)
    f_t = q.a * T - q.a * q.b * T**2 - D * T - q.c * N * T - q.alpha1 * u1 * T
    f_n = q.e * C - q.f * N - 1e-10 * q.p * N * T - q.alpha2 * u1 * N + q.beta_n * u2 * N
    f_l = (
        q.m * L
        + q.j * T / (q.k + T) * L
        - 1e-8 * q.q * L * T
        + (q.r1 * N + q.r2 * C) * T
        - q.alpha3 * u1 * L
        + q.beta_l * u2 * L
    )
    f_c = q.alpha - q.beta * C - q.alpha4 * u1 * C
    if np.ndim(T) == 0:
        return np.array([f_t, f_n, f_l, f_c], dtype=float)
    return f_t, f_n, f_l, f_c


def control_jacobian_profiles(q: NonDimParams):
    """Per-axis slopes of dF/du1 and dF/du2.

    Both control channels enter the drift linearly through terms
    proportional to the coordinate of their own equation, so the
    Jacobians reduce to four scalars each: dF_i/du = slope_i * x_i.
    """
    g1 = (-q.alpha1, -q.alpha2, -q.alpha3, -q.alpha4)
    g2 = (0.0, q.beta_n, q.beta_l, 0.0)
    return g1, g2


@dataclass(frozen=True)
class DispersionSpec:
    """Coefficients of the state-dependent noise amplitude per axis.

    sigma_i(x) = scale * (x_i**exponent + offset). The default triple
    keeps sigma strictly positive (floor scale*offset at x_i = 0).
    """

    scale: float = 0.5
    exponent: float = 1.2
    offset: float = 0.001

    def __post_init__(self):
        if self.scale < 0 or self.offset < 0:
            raise ValueError("dispersion coefficients must be non-negative")

    def sigma(self, values):
        values = np.asarray(values, dtype=float)
        if np.any(values < 0):
            raise ValueError("dispersion input must be non-negative")
        return self.scale * (values**self.exponent + self.offset)
