"""Scenario files: every run is fully described by one YAML document.

The dimensional model rates are deliberately mandatory with no
defaults: they are literature-sourced inputs, so omitting one is an
error that names the missing fields instead of a silent fallback. The
numerical blocks (grid, time, optimizer, ...) do carry documented
defaults.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np
import yaml

from .errors import ScenarioError
from .grid import Grid4D
from .model import (
    DimensionalParams,
    DispersionSpec,
    NonDimParams,
    ScalingConstants,
    State,
    nondimensionalize,
)
from .pncg import PncgConfig

__all__ = ["Scenario", "load_scenario"]

_PARAM_FIELDS = [
    "a", "b", "c", "d", "e", "f", "p", "m", "j", "k", "q", "r1", "r2",
    "s", "l", "alpha", "beta", "alpha1", "alpha2", "alpha3", "alpha4",
    "beta_n", "beta_l",
]
_SCALING_FIELDS = ["k1", "k2", "k3", "k4", "k5"]


@dataclass
class Scenario:
    """Validated run description."""

    name: str
    params: DimensionalParams
    scaling: ScalingConstants
    patient_triple: tuple[float, float, float]
    target_triple: tuple[float, float, float]
    initial_state: State
    domain_lo: float
    domain_hi: float
    npoints: int
    full_scale_npoints: int
    t_final: float
    n_steps: int
    full_scale_n_steps: int
    dispersion: DispersionSpec
    alpha: float
    nu1: float
    nu2: float
    d1: float
    d2: float
    chemo_scale: float
    il2_scale: float
    n_anchors: int
    target_variance: float
    optimizer: PncgConfig
    sde_paths: int
    sde_steps: int
    seed: int
    description: str = ""

    def nondim(self) -> NonDimParams:
        """Patient parameters in solver units (kill triple applied)."""
        q = nondimensionalize(self.params, self.scaling)
        d, l, s = self.patient_triple
        return q.with_patient(d, l, s)

    def nondim_target(self) -> NonDimParams:
        """Parameters of the reference patient the target tracks."""
        q = nondimensionalize(self.params, self.scaling)
        d, l, s = self.target_triple
        return q.with_patient(d, l, s)

    def grid(self, full_scale: bool = False) -> Grid4D:
        n = self.full_scale_npoints if full_scale else self.npoints
        return Grid4D.cube(self.domain_lo, self.domain_hi, n)

    def time_grid(self, full_scale: bool = False) -> np.ndarray:
        n = self.full_scale_n_steps if full_scale else self.n_steps
        return np.linspace(0.0, self.t_final, n + 1)


def _require(mapping: dict, key: str, context: str):
    if key not in mapping:
        raise ScenarioError(f"missing field {context}.{key}")
    return mapping[key]


def _as_float(value, context: str) -> float:
    try:
        return float(value)
    except (TypeError, ValueError):
        raise ScenarioError(f"field {context} must be a number, got {value!r}") from None


def _as_int(value, context: str) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(f"field {context} must be an integer, got {value!r}") from None


def _as_bool(value, context: str) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"field {context} must be true or false, got {value!r}")
    return value


def load_scenario(path) -> Scenario:
    """Parse and validate a scenario file.

    Raises ScenarioError with the offending field name (or the YAML
    parser's line information) on any defect.
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioError(f"scenario file not found: {path}")
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except yaml.MarkedYAMLError as exc:
        mark = exc.problem_mark
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        raise ScenarioError(f"cannot parse {path}{where}: {exc.problem}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path} must be a mapping")

    raw_params = doc.get("parameters") or {}
    missing = [f for f in _PARAM_FIELDS if f not in raw_params]
    if missing:
        raise ScenarioError(
            "missing mandatory base parameters (literature-sourced, never defaulted): "
            + ", ".join(missing)
        )
    try:
        params = DimensionalParams(**{f: _as_float(raw_params[f], f"parameters.{f}")
                                      for f in _PARAM_FIELDS})
    except ValueError as exc:
        raise ScenarioError(f"invalid parameters: {exc}") from exc

    raw_scaling = doc.get("scaling") or {}
    missing = [f for f in _SCALING_FIELDS if f not in raw_scaling]
    if missing:
        raise ScenarioError("missing scaling constants: " + ", ".join(missing))
    try:
        scaling = ScalingConstants(**{f: _as_float(raw_scaling[f], f"scaling.{f}")
                                      for f in _SCALING_FIELDS})
    except ValueError as exc:
        raise ScenarioError(f"invalid scaling: {exc}") from exc

    patient = _require(doc, "patient", "scenario")
    triple = tuple(_as_float(_require(patient, key, "patient"), f"patient.{key}")
                   for key in ("d", "l", "s"))

    target = doc.get("target") or {}
    target_triple = tuple(
        _as_float(v, "target.triple")
        for v in target.get("triple", [2.1, 1.1, 1.25])
    )
    if len(target_triple) != 3:
        raise ScenarioError("target.triple must have exactly three entries")

    x0_raw = _require(doc, "initial_state", "scenario")
    if not isinstance(x0_raw, (list, tuple)) or len(x0_raw) != 4:
        raise ScenarioError("initial_state must be a list of four numbers")
    try:
        x0 = State.from_array([_as_float(v, "initial_state") for v in x0_raw])
    except ValueError as exc:
        raise ScenarioError(f"invalid initial_state: {exc}") from exc

    domain = doc.get("domain") or {}
    lo = _as_float(domain.get("lo", 0.0), "domain.lo")
    hi = _as_float(domain.get("hi", 6.0), "domain.hi")
    if hi <= lo:
        raise ScenarioError("domain.hi must exceed domain.lo")

    grid_block = doc.get("grid") or {}
    npoints = _as_int(grid_block.get("npoints", 15), "grid.npoints")
    full_np = _as_int(grid_block.get("full_scale_npoints", 51), "grid.full_scale_npoints")
    if npoints < 3 or full_np < 3:
        raise ScenarioError("grid.npoints must be at least 3")

    time_block = doc.get("time") or {}
    t_final = _as_float(time_block.get("t_final", 10.0), "time.t_final")
    n_steps = _as_int(time_block.get("n_steps", 100), "time.n_steps")
    full_ns = _as_int(time_block.get("full_scale_n_steps", 200), "time.full_scale_n_steps")
    if t_final <= 0 or n_steps < 1 or full_ns < 1:
        raise ScenarioError("time.t_final must be positive and step counts >= 1")

    disp_block = doc.get("dispersion") or {}
    try:
        disp = DispersionSpec(
            scale=_as_float(disp_block.get("scale", 0.5), "dispersion.scale"),
            exponent=_as_float(disp_block.get("exponent", 1.2), "dispersion.exponent"),
            offset=_as_float(disp_block.get("offset", 0.001), "dispersion.offset"),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid dispersion: {exc}") from exc

    objective = doc.get("objective") or {}
    alpha = _as_float(objective.get("alpha", 1.0), "objective.alpha")
    nu1 = _as_float(objective.get("nu1", 0.01), "objective.nu1")
    nu2 = _as_float(objective.get("nu2", 0.01), "objective.nu2")
    if alpha < 0 or nu1 < 0 or nu2 < 0:
        raise ScenarioError("objective weights must be non-negative")

    bounds = doc.get("dose_bounds") or {}
    d1 = _as_float(bounds.get("d1", 7.0), "dose_bounds.d1")
    d2 = _as_float(bounds.get("d2", 0.072), "dose_bounds.d2")
    if d1 < 0 or d2 < 0:
        raise ScenarioError("dose bounds must be non-negative")

    scales = doc.get("dose_scales") or {}
    chemo_scale = _as_float(scales.get("chemo_mg_per_day", 1.0), "dose_scales.chemo_mg_per_day")
    il2_scale = _as_float(scales.get("il2_iu_per_l_per_day", 1.0e7),
                          "dose_scales.il2_iu_per_l_per_day")

    n_anchors = _as_int(target.get("n_anchors", 20), "target.n_anchors")
    variance = _as_float(target.get("variance", 0.05), "target.variance")
    if n_anchors < 2:
        raise ScenarioError("target.n_anchors must be at least 2")
    if variance <= 0:
        raise ScenarioError("target.variance must be positive")

    opt = doc.get("optimizer") or {}
    try:
        pcfg = PncgConfig(
            k_max=_as_int(opt.get("k_max", 200), "optimizer.k_max"),
            tol=_as_float(opt.get("tol", 1e-5), "optimizer.tol"),
            armijo_alpha0=_as_float(opt.get("armijo_alpha0", 1.0), "optimizer.armijo_alpha0"),
            armijo_rho=_as_float(opt.get("armijo_rho", 0.5), "optimizer.armijo_rho"),
            armijo_c1=_as_float(opt.get("armijo_c1", 1e-4), "optimizer.armijo_c1"),
            armijo_max_backtracks=_as_int(opt.get("armijo_max_backtracks", 40),
                                          "optimizer.armijo_max_backtracks"),
            use_h1_gradient=_as_bool(opt.get("use_h1_gradient", True), "optimizer.use_h1_gradient"),
            h1_epsilon=_as_float(opt.get("h1_epsilon", 1e-2), "optimizer.h1_epsilon"),
        )
    except ValueError as exc:
        raise ScenarioError(f"invalid optimizer block: {exc}") from exc

    sde_block = doc.get("sde") or {}
    sde_paths = _as_int(sde_block.get("n_paths", 100_000), "sde.n_paths")
    sde_steps = _as_int(sde_block.get("n_steps", 1000), "sde.n_steps")
    if sde_paths < 1 or sde_steps < 1:
        raise ScenarioError("sde.n_paths and sde.n_steps must be >= 1")

    scenario = Scenario(
        name=str(doc.get("name", path.stem)),
        description=str(doc.get("description", "")),
        params=params,
        scaling=scaling,
        patient_triple=triple,
        target_triple=target_triple,
        initial_state=x0,
        domain_lo=lo,
        domain_hi=hi,
        npoints=npoints,
        full_scale_npoints=full_np,
        t_final=t_final,
        n_steps=n_steps,
        full_scale_n_steps=full_ns,
        dispersion=disp,
        alpha=alpha,
        nu1=nu1,
        nu2=nu2,
        d1=d1,
        d2=d2,
        chemo_scale=chemo_scale,
        il2_scale=il2_scale,
        n_anchors=n_anchors,
        target_variance=variance,
        optimizer=pcfg,
        sde_paths=sde_paths,
        sde_steps=sde_steps,
        seed=_as_int(doc.get("seed", 0), "seed"),
    )

    state = scenario.initial_state.as_array()
    if np.any(state < lo) or np.any(state > hi):
        raise ScenarioError("initial_state lies outside the domain")
    return scenario
