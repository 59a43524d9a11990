"""Scenario files: every run is fully described by one YAML document.

One table, ``_FIELDS``, lists every key with the ``Scenario`` field it
feeds, its type, default and lower bound; it drives conversion,
validation and error messages, and any other key is an error. The
dimensional model rates are deliberately mandatory with no defaults:
they are literature-sourced inputs, so omitting one is an error that
names the missing fields instead of a silent fallback.
"""

from __future__ import annotations

import dataclasses
import difflib
import math
import operator
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

    def grid(self) -> Grid4D:
        return Grid4D.cube(self.domain_lo, self.domain_hi, self.npoints)

    def time_grid(self) -> np.ndarray:
        return np.linspace(0.0, self.t_final, self.n_steps + 1)


# np.random.Philox, which draws the oracle's noise, takes keys below 2**128
SEED_LIMIT = 2**128

_REQUIRED = object()
_BOUND_CHECKS = {">": operator.gt, ">=": operator.ge, "in": lambda value, allowed: value in allowed}
_KIND_NAMES = {float: "a finite number", int: "an integer", str: "a string"}

# YAML block -> (Scenario field, dataclass). The dataclass gives the
# block's keys, their types and defaults, and validates the values.
_BLOCKS = {
    "parameters": ("params", DimensionalParams),
    "scaling": ("scaling", ScalingConstants),
    "dispersion": ("dispersion", DispersionSpec),
    "optimizer": ("optimizer", PncgConfig),
}

# Bounds a scenario adds to its blocks' own checks: a zero noise scale
# or a negative exponent leaves the face diffusion zero or infinite.
_BLOCK_BOUNDS = {
    "dispersion.scale": (">", 0.0),
    "dispersion.exponent": (">=", 0.0),
}

# Dotted key -> (Scenario field, type, default, lower bound). A tuple
# type is a list of that many numbers.
_FIELDS = {
    f"{block}.{f.name}": (
        attr, {"float": float, "int": int}[f.type],
        _REQUIRED if f.default is dataclasses.MISSING else f.default,
        _BLOCK_BOUNDS.get(f"{block}.{f.name}"),
    )
    for block, (attr, cls) in _BLOCKS.items() for f in dataclasses.fields(cls)
}
_FIELDS.update({
    "name": ("name", str, None, None),
    "description": ("description", str, "", None),
    "seed": ("seed", int, 0, ("in", range(SEED_LIMIT))),
    "patient.d": ("patient_triple", float, _REQUIRED, None),
    "patient.l": ("patient_triple", float, _REQUIRED, None),
    "patient.s": ("patient_triple", float, _REQUIRED, None),
    "target.triple": ("target_triple", (float,) * 3, (2.1, 1.1, 1.25), None),
    "target.n_anchors": ("n_anchors", int, 20, (">=", 2)),
    "target.variance": ("target_variance", float, 0.05, (">", 0.0)),
    "initial_state": ("initial_state", (float,) * 4, _REQUIRED, None),
    "domain.lo": ("domain_lo", float, 0.0, (">=", 0.0)),
    "domain.hi": ("domain_hi", float, 6.0, None),
    "grid.npoints": ("npoints", int, 15, (">=", 3)),
    "grid.full_scale_npoints": ("full_scale_npoints", int, 51, (">=", 3)),
    "time.t_final": ("t_final", float, 10.0, (">", 0.0)),
    "time.n_steps": ("n_steps", int, 100, (">=", 1)),
    "time.full_scale_n_steps": ("full_scale_n_steps", int, 200, (">=", 1)),
    "objective.alpha": ("alpha", float, 1.0, (">=", 0.0)),
    "objective.nu1": ("nu1", float, 0.01, (">=", 0.0)),
    "objective.nu2": ("nu2", float, 0.01, (">=", 0.0)),
    "dose_bounds.d1": ("d1", float, 7.0, (">=", 0.0)),
    "dose_bounds.d2": ("d2", float, 0.072, (">=", 0.0)),
    "dose_scales.chemo_mg_per_day": ("chemo_scale", float, 1.0, (">", 0.0)),
    "dose_scales.il2_iu_per_l_per_day": ("il2_scale", float, 1.0e7, (">", 0.0)),
    "sde.n_paths": ("sde_paths", int, 100_000, (">=", 1)),
    "sde.n_steps": ("sde_steps", int, 1000, (">=", 1)),
})
_TOP_KEYS = {key.partition(".")[0]: "." in key for key in _FIELDS}  # name -> is a block


def _unknown(key, valid) -> ScenarioError:
    close = difflib.get_close_matches(str(key), valid, n=1)
    return ScenarioError(f"unknown key {key}" + (f"; did you mean {close[0]}?" if close else ""))


def _convert(key: str, kind, value):
    """``value`` read as ``kind``, or a ScenarioError naming ``key``."""
    if isinstance(kind, tuple):
        if not isinstance(value, list) or len(value) != len(kind):
            raise ScenarioError(f"field {key} must be a list of {len(kind)} numbers, "
                                f"got {value!r}")
        return tuple(_convert(key, float, v) for v in value)
    if isinstance(value, bool) or kind is str:
        if type(value) is kind:
            return value
    elif kind is int and isinstance(value, int):
        return value
    else:
        try:
            number = float(value)
        except (TypeError, ValueError, OverflowError):
            number = math.nan
        if math.isfinite(number) and (kind is float or number.is_integer()):
            return kind(number)
    raise ScenarioError(f"field {key} must be {_KIND_NAMES[kind]}, got {value!r}")


def _read(doc: dict) -> dict:
    """Every table key's value: converted and bounds-checked, or its default."""
    given = {}
    for key, value in doc.items():
        if key not in _TOP_KEYS:
            raise _unknown(key, list(_TOP_KEYS))
        if not _TOP_KEYS[key]:
            given[key] = value
        elif isinstance(value, (dict, type(None))):
            for sub, sub_value in (value or {}).items():
                if f"{key}.{sub}" not in _FIELDS:
                    raise _unknown(f"{key}.{sub}", list(_FIELDS))
                given[f"{key}.{sub}"] = sub_value
        else:
            raise ScenarioError(f"{key} must be a mapping of fields, got {value!r}")

    missing = [key for key, (_, _, default, _) in _FIELDS.items()
               if default is _REQUIRED and key not in given]
    if missing:
        raise ScenarioError("missing mandatory base parameters or settings "
                            "(literature-sourced, never defaulted): " + ", ".join(missing))
    values = {}
    for key, (_, kind, default, bound) in _FIELDS.items():
        values[key] = _convert(key, kind, given[key]) if key in given else default
        if bound and not _BOUND_CHECKS[bound[0]](values[key], bound[1]):
            raise ScenarioError(f"field {key} must be {bound[0]} {bound[1]}, "
                                f"got {values[key]!r}")
    return values


def _build(what: str, make, *args, **kwargs):
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        raise ScenarioError(f"invalid {what}: {exc}") from exc


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
            # libyaml's parser where PyYAML was built with it; same safe schema
            doc = yaml.load(fh, Loader=getattr(yaml, "CSafeLoader", yaml.SafeLoader))
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)
        where = f" at line {mark.line + 1}, column {mark.column + 1}" if mark else ""
        problem = getattr(exc, "problem", None) or exc
        raise ScenarioError(f"cannot parse {path}{where}: {problem}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError(f"scenario {path} must be a mapping")

    values = _read(doc)
    fields = {attr: values[key] for key, (attr, *_) in _FIELDS.items()}
    # fields that several keys feed are built from all of them
    for block, (attr, cls) in _BLOCKS.items():
        fields[attr] = _build(block, cls, **{f.name: values[f"{block}.{f.name}"]
                                             for f in dataclasses.fields(cls)})
    fields["patient_triple"] = tuple(values[f"patient.{key}"] for key in "dls")
    fields["initial_state"] = _build("initial_state", State.from_array, values["initial_state"])
    fields["name"] = values["name"] or path.stem
    scenario = Scenario(**fields)

    if scenario.domain_hi <= scenario.domain_lo:
        raise ScenarioError("domain.hi must exceed domain.lo")
    state = scenario.initial_state.as_array()
    if np.any(state < scenario.domain_lo) or np.any(state > scenario.domain_hi):
        raise ScenarioError("initial_state lies outside the domain")
    return scenario
