"""Run orchestration: target construction, solves, optimization, reports.

Every run starts from one shared set-up (``_prepare``). The optimization
run takes its untreated and treated densities from the control
problem's forward cache, so one stepper serves the whole run.

Every stage emits plot-ready CSV data; binary density dumps carry the
full final snapshots. All outputs are deterministic for a fixed
scenario and seed.
"""

from __future__ import annotations

import dataclasses
import json
import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adjoint import adjoint_gradient, gradient_check, objective, time_weights
from .errors import ScenarioError, SolverError
from .fpsolver import (DensityField, ForwardDiagnostics, build_fp_stepper, mean_state,
                       solve_forward)
from .grid import Grid4D
from .io_utils import format_float, write_csv, write_density
from .model import ControlSchedule, NonDimParams
from .ode import Trajectory, integrate
from .pncg import pncg
from .scenario import Scenario
from .sde import marginal_histogram, sample_gaussian_in_box, simulate_paths
from .target import TargetDensity, build_target, gaussian_on_grid

log = logging.getLogger(__name__)

__all__ = ["RunReport", "run_pipeline", "run_forward", "run_oracle",
           "run_gradcheck", "run_target", "dimensionalize_controls",
           "FpControlProblem"]


def dimensionalize_controls(u: ControlSchedule, chemo_scale: float, il2_scale: float):
    """Convert solver dose units back to mg/day and IU IL-2/l/day.

    The unit scales live in the scenario because the model's dose
    coefficients absorb the unit conversions; 0.072 solver units of
    immunotherapy correspond to 7.2e5 IU/l/day at the default scale.
    """
    return u.u1 * chemo_scale, u.u2 * il2_scale


@dataclass
class RunReport:
    """Summary of one optimization pipeline run."""

    scenario: str
    seed: int
    final_objective: float
    initial_objective: float
    iterations: int
    converged: bool
    line_search_failed: bool
    mass_deviation_untreated: float
    mass_deviation_treated: float
    min_density_untreated: float
    min_density_treated: float
    total_doxorubicin_mg: float
    peak_il2_iu_per_l: float
    mean_tumor_untreated_start: float
    mean_tumor_untreated_end: float
    mean_tumor_treated_start: float
    mean_tumor_treated_end: float
    forward_solves: int
    backward_sweeps: int
    objective_evals: int
    armijo_backtracks: int
    outputs: dict

    def to_json(self, path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dataclasses.asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


class FpControlProblem:
    """Objective/gradient bundle the optimizer consumes.

    Each gradient call runs one forward solve and one fused backward
    sweep; objectives reuse a one-entry forward cache keyed by the
    schedule's bytes so the Armijo loop does not recompute accepted
    iterates. The cache is dropped before a new solve starts, so the
    problem holds at most one density history at a time. ``forward``
    also supplies the untreated and treated fields. The counters tally
    the forward solves (cache misses), backward sweeps and objective
    evaluations of the problem's lifetime.
    """

    def __init__(self, f0, fstar: TargetDensity, q, grid: Grid4D, disp,
                 alpha: float, nu1: float, nu2: float, store_every: int = 1):
        self.f0 = f0
        self.fstar = fstar
        self.q = q
        self.grid = grid
        self.disp = disp
        self.alpha = alpha
        self.nu1 = nu1
        self.nu2 = nu2
        self.store_every = store_every
        self.stepper = build_fp_stepper(grid, q, disp)
        self._cache_key = None
        self._cache = None
        self.forward_solves = self.backward_sweeps = self.objective_evals = 0

    def forward(self, u: ControlSchedule) -> tuple[DensityField, ForwardDiagnostics]:
        """Density history and diagnostics at u; a repeat call at u reuses the solve."""
        key = (u.u1.tobytes(), u.u2.tobytes())
        if key != self._cache_key:
            self._cache_key = self._cache = None
            self.forward_solves += 1
            self._cache = solve_forward(self.f0, u, self.q, self.grid, disp=self.disp,
                                        store_every=self.store_every, stepper=self.stepper)
            self._cache_key = key
        return self._cache

    def objective(self, u: ControlSchedule) -> float:
        self.objective_evals += 1
        return objective(self.forward(u)[0], self.fstar, u, self.alpha, self.nu1, self.nu2)

    def gradient(self, u: ControlSchedule):
        self.backward_sweeps += 1
        return adjoint_gradient(self.forward(u)[0], self.fstar, u, self.stepper, self.alpha,
                                self.nu1, self.nu2)


@dataclass(frozen=True)
class _RunContext:
    """What every run derives from its scenario before its first solve."""

    out: Path
    seed: int
    grid: Grid4D
    t_grid: np.ndarray
    q: NonDimParams
    f0: np.ndarray
    u_zero: ControlSchedule


def _prepare(scenario: Scenario, out_dir, seed: int | None) -> _RunContext:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    grid = scenario.grid()
    t_grid = scenario.time_grid()
    return _RunContext(
        out=out,
        seed=scenario.seed if seed is None else seed,
        grid=grid,
        t_grid=t_grid,
        q=scenario.nondim(),
        f0=gaussian_on_grid(grid, scenario.initial_state.as_array(), scenario.target_variance),
        u_zero=ControlSchedule.zeros(scenario.t_final, t_grid.size - 1,
                                     scenario.d1, scenario.d2),
    )


def _target_for(scenario: Scenario, grid: Grid4D, t_grid: np.ndarray) -> tuple[Trajectory, TargetDensity]:
    q_target = scenario.nondim_target()
    ode_steps = max(1000, 10 * (t_grid.size - 1))
    traj = integrate(scenario.initial_state, None, q_target, scenario.t_final, ode_steps)
    fstar = build_target(traj, scenario.n_anchors, scenario.target_variance, grid, t_grid)
    return traj, fstar


def _problem_for(scenario: Scenario, ctx: _RunContext,
                 checkpoint_every: int) -> tuple[Trajectory, FpControlProblem]:
    traj, fstar = _target_for(scenario, ctx.grid, ctx.t_grid)
    problem = FpControlProblem(ctx.f0, fstar, ctx.q, ctx.grid, scenario.dispersion,
                               scenario.alpha, scenario.nu1, scenario.nu2,
                               store_every=checkpoint_every)
    return traj, problem


def _mean_series(field: DensityField, grid: Grid4D):
    rows = []
    for m in range(field.n_steps + 1):
        rows.append([field.times[m], *mean_state(field.snapshot(m), grid, mass_tol=1e-5)])
    return np.array(rows)


_DIAG_HEADER = ["t", "mass", "min_f", "negative_mass"]


def _diag_rows(field: DensityField, diag):
    return np.column_stack([field.times, diag.mass, diag.min_value, diag.negative_mass])


def run_pipeline(scenario: Scenario, out_dir, seed: int | None = None,
                 checkpoint_every: int = 1) -> RunReport:
    """Full optimization pipeline; emits all CSV artifacts into out_dir."""
    ctx = _prepare(scenario, out_dir, seed)
    out, grid = ctx.out, ctx.grid

    log.info("stage: target construction")
    traj, problem = _problem_for(scenario, ctx, checkpoint_every)

    log.info("stage: untreated forward solve")
    try:
        field_untr, diag_untr = problem.forward(ctx.u_zero)
    except SolverError as exc:
        raise SolverError(f"untreated forward solve failed: {exc}") from exc
    # Reduce the untreated history to its rows now, so only the problem's
    # cache can keep it alive during the optimization.
    mean_untr = _mean_series(field_untr, grid)
    diag_rows_untr = _diag_rows(field_untr, diag_untr)
    del field_untr

    log.info("stage: optimization")
    u_star, trace = pncg(ctx.u_zero, problem, scenario.optimizer)

    log.info("stage: treated forward solve")
    try:
        field_tr, diag_tr = problem.forward(u_star)
    except SolverError as exc:
        raise SolverError(f"treated forward solve failed: {exc}") from exc

    mean_tr = _mean_series(field_tr, grid)
    u1_dim, u2_dim = dimensionalize_controls(u_star, scenario.chemo_scale, scenario.il2_scale)
    wt = time_weights(u_star.times)
    total_dox = float(np.sum(wt * u1_dim))
    peak_il2 = float(np.max(u2_dim))

    outputs = {}

    def emit(name, header, rows):
        write_csv(out / name, header, rows)
        outputs[name.removesuffix(".csv")] = name

    emit("mean_untreated.csv", ["t", "T", "N", "L", "C"], mean_untr)
    emit("mean_treated.csv", ["t", "T", "N", "L", "C"], mean_tr)
    emit("diagnostics_untreated.csv", _DIAG_HEADER, diag_rows_untr)
    emit("diagnostics_treated.csv", _DIAG_HEADER, _diag_rows(field_tr, diag_tr))
    emit("dosage.csv", ["t", "u1", "u2", "u1_mg_per_day", "u2_iu_per_l_per_day"],
         np.column_stack([u_star.times, u_star.u1, u_star.u2, u1_dim, u2_dim]))
    emit("trace.csv", ["k", "J", "grad_norm", "step_length", "beta", "active_bounds"],
         np.column_stack([
             np.arange(len(trace.objective), dtype=float),
             trace.objective, trace.gradient_norm, trace.step_length,
             trace.beta, np.asarray(trace.active_bounds, dtype=float),
         ]))
    emit("target_trajectory.csv", ["t", "T", "N", "L", "C"],
         np.column_stack([traj.times, traj.states]))

    report = RunReport(
        scenario=scenario.name,
        seed=ctx.seed,
        final_objective=float(trace.objective[-1]),
        initial_objective=float(trace.objective[0]),
        iterations=trace.iterations,
        converged=trace.converged,
        line_search_failed=trace.line_search_failed,
        mass_deviation_untreated=diag_untr.max_mass_deviation,
        mass_deviation_treated=diag_tr.max_mass_deviation,
        min_density_untreated=diag_untr.min_over_run,
        min_density_treated=diag_tr.min_over_run,
        total_doxorubicin_mg=total_dox,
        peak_il2_iu_per_l=peak_il2,
        mean_tumor_untreated_start=float(mean_untr[0, 1]),
        mean_tumor_untreated_end=float(mean_untr[-1, 1]),
        mean_tumor_treated_start=float(mean_tr[0, 1]),
        mean_tumor_treated_end=float(mean_tr[-1, 1]),
        forward_solves=problem.forward_solves,
        backward_sweeps=problem.backward_sweeps,
        objective_evals=problem.objective_evals,
        armijo_backtracks=trace.backtracks,
        outputs=outputs,
    )
    report.to_json(out / "report.json")
    return report


def run_forward(scenario: Scenario, out_dir, seed: int | None = None,
                checkpoint_every: int = 1) -> dict:
    """Untreated forward solve only; emits means, diagnostics, snapshot."""
    ctx = _prepare(scenario, out_dir, seed)
    out, grid = ctx.out, ctx.grid
    field, diag = solve_forward(ctx.f0, ctx.u_zero, ctx.q, grid, disp=scenario.dispersion,
                                store_every=checkpoint_every)
    mean = _mean_series(field, grid)
    write_csv(out / "mean_untreated.csv", ["t", "T", "N", "L", "C"], mean)
    write_csv(out / "diagnostics_untreated.csv", _DIAG_HEADER, _diag_rows(field, diag))
    final = field.snapshot(field.n_steps)
    write_density(out / "density_final.bin", final, grid, field.n_steps,
                  float(field.times[-1]))
    for axis in range(4):
        rows = np.column_stack([grid.axis(axis), grid.marginal(final, axis)])
        write_csv(out / f"marginal_final_axis{axis}.csv", ["x", "density"], rows)
    return {
        "max_mass_deviation": diag.max_mass_deviation,
        "min_density": diag.min_over_run,
    }


def run_oracle(scenario: Scenario, out_dir, seed: int | None = None) -> dict:
    """Density solver vs Monte Carlo marginal comparison (no treatment).

    The solve stores only steps 0, n/2 and n, the checkpoints of stride
    n/2: exactly the snapshots the comparison reads, so nothing is
    re-stepped.
    """
    # both comparisons, at t_final/2 and t_final, must fall on a step of each grid
    for key, steps in (("time.n_steps", scenario.n_steps), ("sde.n_steps", scenario.sde_steps)):
        if steps % 2:
            raise ScenarioError(f"field {key} must be even for the oracle, which compares "
                                f"at t_final/2, got {steps}")
    ctx = _prepare(scenario, out_dir, seed)
    out, grid = ctx.out, ctx.grid
    n_steps = ctx.t_grid.size - 1
    disp = scenario.dispersion
    x0 = scenario.initial_state.as_array()
    var = scenario.target_variance

    field, _ = solve_forward(ctx.f0, ctx.u_zero, ctx.q, grid, disp=disp,
                             store_every=n_steps // 2)
    # Keep only the marginals, so the stored snapshots are freed before
    # the ensemble's buffers are allocated.
    fp_margs = [[grid.marginal(field.snapshot(m), axis) for axis in range(4)]
                for m in (n_steps // 2, n_steps)]
    del field

    t_half = scenario.t_final / 2.0
    ens = simulate_paths(
        lambda rng: sample_gaussian_in_box(x0, var, grid.lo, grid.hi,
                                           scenario.sde_paths, rng),
        None, ctx.q, scenario.sde_paths, scenario.sde_steps, seed=ctx.seed,
        t_end=scenario.t_final, lo=grid.lo, hi=grid.hi, disp=disp,
        observe_at=np.array([0.0, t_half, scenario.t_final]),
    )
    write_csv(out / "ensemble_summary.csv",
              ["t", "mean_T", "mean_N", "mean_L", "mean_C",
               "var_T", "var_N", "var_L", "var_C", "n_paths", "seed"],
              ens.summary_rows())

    rows = []
    worst = 0.0
    for t_idx, snap_margs in enumerate(fp_margs, start=1):
        for axis, fp_marg in enumerate(snap_margs):
            mc_marg = marginal_histogram(ens, t_idx, axis, grid.axis(axis))
            l1 = float(np.sum(grid.axis_weights(axis) * np.abs(fp_marg - mc_marg)))
            worst = max(worst, l1)
            rows.append([ens.times[t_idx], float(axis), l1])
    write_csv(out / "oracle_l1.csv", ["t", "axis", "l1_distance"], rows)
    return {"worst_l1": worst, "rows": rows}


def run_gradcheck(scenario: Scenario, out_dir, seed: int | None = None,
                  checkpoint_every: int = 1) -> dict:
    """Finite-difference audit of the adjoint gradient; writes a report."""
    ctx = _prepare(scenario, out_dir, seed)
    _, problem = _problem_for(scenario, ctx, checkpoint_every)

    rng = np.random.default_rng(ctx.seed)
    size = ctx.t_grid.size
    u = ControlSchedule(
        ctx.t_grid,
        rng.uniform(0.25 * scenario.d1, 0.75 * scenario.d1, size),
        rng.uniform(0.25 * scenario.d2, 0.75 * scenario.d2, size),
        scenario.d1, scenario.d2,
    )
    g = problem.gradient(u)
    rows, worst = gradient_check(problem.objective, g, u, seed=ctx.seed)
    lines = ["adjoint gradient vs central finite differences", ""]
    for r in rows:
        lines.append(
            f"direction {r['direction']}: adjoint {format_float(r['adjoint'])}  "
            f"fd {format_float(r['finite_difference'])}  "
            f"rel_err {r['relative_error']:.3e}"
        )
    lines.append("")
    lines.append(f"worst relative error: {worst:.3e}")
    (ctx.out / "gradcheck.txt").write_text("\n".join(lines) + "\n")
    return {"worst_relative_error": worst, "rows": rows}


def run_target(scenario: Scenario, out_dir, seed: int | None = None) -> dict:
    """Emit the target trajectory and per-axis target marginals."""
    ctx = _prepare(scenario, out_dir, seed)
    out, grid, t_grid = ctx.out, ctx.grid, ctx.t_grid
    traj, fstar = _target_for(scenario, grid, t_grid)
    write_csv(out / "target_trajectory.csv", ["t", "T", "N", "L", "C"],
              np.column_stack([traj.times, traj.states]))
    # Each step's target is formed once and feeds all four files.
    rows = [[] for _ in range(4)]
    masses = []
    for m in range(fstar.n_steps + 1):
        snap = fstar.snapshot(m)
        for axis in range(4):
            marg = grid.marginal(snap, axis)
            for xv, dv in zip(grid.axis(axis), marg):
                rows[axis].append([t_grid[m], xv, dv])
        masses.append(grid.integrate(snap))
    for axis in range(4):
        write_csv(out / f"target_marginal_axis{axis}.csv", ["t", "x", "density"], rows[axis])
    return {"max_mass_error": float(np.max(np.abs(np.array(masses) - 1.0)))}
