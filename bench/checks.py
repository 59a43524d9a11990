"""Correctness checks of the benchmark, written against numpy only.

Every check returns a list of ``Failure``s; an empty list means the
operation passed. The checks recompute what they test (quadrature,
dose totals, central differences) instead of trusting the program's own
diagnostics, and none compares against a stored copy of earlier output.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# The one fault the benchmark expects today: the explicit Douglas-Gunn
# predictor takes the density slightly negative at the T = 6 wall under
# chemotherapy. It fails the operation but not the run.
KNOWN_FAULT = "positivity"


@dataclass(frozen=True)
class Failure:
    kind: str
    message: str


@dataclass
class Tally:
    """Operations attempted and failed, and whether any failure was new."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    notes: list = field(default_factory=list)

    def record(self, failures: list[Failure]) -> None:
        """Count one operation and the checks it failed."""
        self.attempted += 1
        if not failures:
            return
        self.failed += 1
        if any(f.kind != KNOWN_FAULT for f in failures):
            self.correct = False
        for f in failures:
            if f.message not in self.notes:
                self.notes.append(f.message)


def trapezoid_weights(n: int, h: float) -> np.ndarray:
    w = np.full(n, h)
    w[0] = w[-1] = 0.5 * h
    return w


def tensor_weights(shape: tuple[int, ...], h: float) -> np.ndarray:
    """Outer product of the per-axis trapezoid weights."""
    out = np.ones(())
    for n in shape:
        out = np.multiply.outer(out, trapezoid_weights(n, h))
    return out


def check_density_history(snapshots, weights: np.ndarray,
                          mass_tol: float = 1e-8) -> list[Failure]:
    """Every snapshot is non-negative and carries unit mass to mass_tol."""
    worst_min = np.inf
    worst_mass = 0.0
    for f in snapshots:
        worst_min = min(worst_min, float(f.min()))
        worst_mass = max(worst_mass, abs(float(np.vdot(weights, f)) - 1.0))
    failures = []
    if worst_min < 0.0:
        failures.append(Failure(KNOWN_FAULT, "density went negative (Douglas-Gunn predictor)"))
    if worst_mass > mass_tol:
        failures.append(Failure("mass", f"mass drifted by {worst_mass:.3e} > {mass_tol:g}"))
    return failures


def read_table(path) -> dict[str, np.ndarray]:
    """CSV file with a header row, as one float column per name."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    data = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: data[:, i] for i, name in enumerate(header)}


def check_pipeline_outputs(out_dir, d1: float, d2: float) -> list[Failure]:
    """Properties Test case 1's optimal schedule and its report must have."""
    out = Path(out_dir)
    failures = []

    def fail(kind, message):
        failures.append(Failure(kind, message))

    j = read_table(out / "trace.csv")["J"]
    if np.any(np.diff(j) > 0.0):
        fail("objective", "objective rose along trace.csv")
    if not j[-1] < j[0]:
        fail("objective", "objective did not end below its start")

    dose = read_table(out / "dosage.csv")
    if np.any((dose["u1"] < 0.0) | (dose["u1"] > d1)) or \
            np.any((dose["u2"] < 0.0) | (dose["u2"] > d2)):
        fail("dose_box", "a dose sample left [0, D1] x [0, D2]")
    t = dose["t"]
    wt = trapezoid_weights(t.size, t[1] - t[0])
    total_dox = float(np.sum(wt * dose["u1_mg_per_day"]))
    peak_il2 = float(np.max(dose["u2_iu_per_l_per_day"]))
    if not total_dox < 70.0:
        fail("dose_total", f"total Doxorubicin {total_dox:.2f} mg >= 70")
    if not peak_il2 < 2.1e6:
        fail("dose_total", f"peak IL-2 {peak_il2:.4g} IU/l >= 2.1e6")

    for name in ("untreated", "treated"):
        diag = read_table(out / f"diagnostics_{name}.csv")
        if np.max(np.abs(diag["mass"] - 1.0)) > 1e-8:
            fail("mass", f"{name} solve lost mass beyond 1e-8")
        if np.min(diag["min_f"]) < 0.0:
            fail(KNOWN_FAULT, f"{name} density went negative (Douglas-Gunn predictor)")
    tumor_u = read_table(out / "mean_untreated.csv")["T"]
    tumor_t = read_table(out / "mean_treated.csv")["T"]
    if not np.all(np.diff(tumor_u) > 0.0):
        fail("tumor", "untreated mean tumour did not rise at every step")
    if not tumor_t[-1] < tumor_t[0]:
        fail("tumor", "treated mean tumour did not end below its start")

    report = json.loads((out / "report.json").read_text())
    if report["final_objective"] != j[-1]:
        fail("report", "report.json and trace.csv disagree on the final objective")
    return failures


def check_gradient(objective_at, g1: np.ndarray, g2: np.ndarray, u1: np.ndarray,
                   u2: np.ndarray, times: np.ndarray, rng: np.random.Generator,
                   n_directions: int = 3, eps: float = 1e-4,
                   tol: float = 1e-3) -> list[Failure]:
    """Adjoint directional derivatives against central differences.

    ``objective_at(u1, u2)`` evaluates the discrete objective; the
    gradient samples the L2(0, T) representer, so the directional
    derivative is its trapezoidal inner product with the direction.
    """
    wt = trapezoid_weights(times.size, times[1] - times[0])
    worst = 0.0
    for _ in range(n_directions):
        psi1 = rng.uniform(-1.0, 1.0, times.size)
        psi2 = rng.uniform(-1.0, 1.0, times.size)
        scale = max(np.max(np.abs(psi1)), np.max(np.abs(psi2)))
        psi1, psi2 = psi1 / scale, psi2 / scale
        adjoint = float(np.sum(wt * (g1 * psi1 + g2 * psi2)))
        fd = (objective_at(u1 + eps * psi1, u2 + eps * psi2)
              - objective_at(u1 - eps * psi1, u2 - eps * psi2)) / (2.0 * eps)
        worst = max(worst, abs(adjoint - fd) / max(abs(adjoint), abs(fd), 1e-14))
    if worst > tol:
        return [Failure("gradient", f"adjoint gradient off central differences by "
                                    f"{worst:.3e} > {tol:g}")]
    return []


def marginal_l1(fp_marginal: np.ndarray, mc_marginal: np.ndarray, h: float) -> float:
    """Trapezoid-weighted L1 distance of two marginals on one axis."""
    w = trapezoid_weights(fp_marginal.size, h)
    return float(np.sum(w * np.abs(fp_marginal - mc_marginal)))


def check_oracle_rows(rows, times=(5.0, 10.0), n_axes: int = 4,
                      tol: float = 0.05) -> list[Failure]:
    """Rows (t, axis, l1) cover every time and axis and stay within tol."""
    rows = np.asarray(rows, dtype=float).reshape(-1, 3)
    seen = {(round(t, 9), int(a)) for t, a, _ in rows}
    wanted = {(round(t, 9), a) for t in times for a in range(n_axes)}
    failures = []
    if seen != wanted or len(rows) != len(wanted):
        failures.append(Failure("oracle", "oracle rows do not cover t x axis exactly once"))
    worst = float(np.max(rows[:, 2])) if rows.size else np.inf
    if not worst <= tol:
        failures.append(Failure("oracle", f"worst marginal L1 {worst:.4f} > {tol:g}"))
    return failures
