"""The three workloads: set-up, seeded inputs, one timed operation, checks.

A workload object is driven by ``run.py`` in a closed loop with one
caller: ``inputs(k)`` makes operation k's inputs from the benchmark seed
(untimed), ``operate`` is the timed call into the program, and
``check`` verifies its outputs (untimed). The program is reached through
module attributes at call time, so a traced run sees every call.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np

import checks

SCENARIOS = Path(__file__).resolve().parent.parent / "src" / "fpcontrol" / "scenarios"


def _rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


class Workload:
    """Shared plumbing; subclasses define setup, inputs, operate, check
    and summary."""

    scenario_name = ""

    def __init__(self, mods: dict, seed: int, out_dir: Path):
        self.m = mods
        self.seed = seed
        self.out_dir = out_dir

    def load(self):
        return self.m["scenario"].load_scenario(SCENARIOS / f"{self.scenario_name}.scenario")

    def _fresh_dir(self, k: int) -> Path:
        path = self.out_dir / f"op{k}"
        shutil.rmtree(path, ignore_errors=True)
        return path


class ForwardSolves(Workload):
    """forward-21: one forward solve per operation, fresh random doses."""

    scenario_name = "conservation_check"

    def setup(self) -> None:
        m = self.m
        sc = self.load()
        self.sc = sc
        self.grid = sc.grid()
        self.t_grid = sc.time_grid()
        self.q = sc.nondim()
        self.f0 = m["target"].gaussian_on_grid(self.grid, sc.initial_state.as_array(),
                                               sc.target_variance)
        self.stepper = m["fpsolver"].build_fp_stepper(self.grid, self.q, sc.dispersion)
        self.weights = checks.tensor_weights(self.grid.shape, self.grid.h)
        self.nodes = self.grid.cell_count()

    def inputs(self, k: int):
        sc, t = self.sc, self.t_grid
        rng = _rng(self.seed, k)
        return self.m["model"].ControlSchedule(
            t, rng.uniform(0.0, sc.d1, t.size), rng.uniform(0.0, sc.d2, t.size),
            sc.d1, sc.d2)

    def operate(self, u):
        field, _ = self.m["fpsolver"].solve_forward(
            self.f0, u, self.q, self.grid, disp=self.sc.dispersion, stepper=self.stepper)
        return field

    def check(self, k: int, u, field) -> list:
        snaps = (field.snapshot(m) for m in range(field.n_steps + 1))
        return checks.check_density_history(snaps, self.weights)

    def summary(self, op_seconds: list[float]) -> str:
        node_steps = self.nodes * (self.t_grid.size - 1)
        rate = node_steps / float(np.median(op_seconds))
        return (f"forward_node_steps_per_s {rate:.6g} node-steps/s "
                f"({self.nodes} nodes x {self.t_grid.size - 1} steps, median of "
                f"{len(op_seconds)} solves)")


class OptimizeTestCase1(Workload):
    """optimize-tc1: the paper's Test case 1 through ``run_pipeline``."""

    scenario_name = "testcase1"

    def setup(self) -> None:
        m = self.m
        sc = self.load()
        self.sc = sc
        grid = sc.grid()
        t_grid = sc.time_grid()
        self.nodes = grid.cell_count()
        f0 = m["target"].gaussian_on_grid(grid, sc.initial_state.as_array(),
                                          sc.target_variance)
        ode_steps = max(1000, 10 * (t_grid.size - 1))
        traj = m["ode"].integrate(sc.initial_state, None, sc.nondim_target(),
                                  sc.t_final, ode_steps)
        fstar = m["target"].build_target(traj, sc.n_anchors, sc.target_variance, grid, t_grid)
        # The gradient audit's problem: same target, density and stepper
        # the pipeline builds for itself.
        self.problem = m["pipeline"].FpControlProblem(
            f0, fstar, sc.nondim(), grid, sc.dispersion, sc.alpha, sc.nu1, sc.nu2)
        self.t_grid = t_grid

    def inputs(self, k: int):
        return self._fresh_dir(k)

    def operate(self, out: Path):
        return self.m["pipeline"].run_pipeline(self.sc, out, seed=self.seed)

    def check(self, k: int, out: Path, report) -> list:
        sc = self.sc
        failures = checks.check_pipeline_outputs(out, sc.d1, sc.d2)
        shutil.rmtree(out, ignore_errors=True)
        # Adjoint audit at a seeded interior schedule, outside the timed call.
        rng = _rng(self.seed, k)
        t = self.t_grid
        u = self.m["model"].ControlSchedule(
            t, rng.uniform(0.25 * sc.d1, 0.75 * sc.d1, t.size),
            rng.uniform(0.25 * sc.d2, 0.75 * sc.d2, t.size), sc.d1, sc.d2)
        g = self.problem.gradient(u)
        failures += checks.check_gradient(
            lambda u1, u2: self.problem.objective(u.with_values(u1, u2)),
            g.g1, g.g2, u.u1, u.u2, t, rng)
        return failures

    def summary(self, op_seconds: list[float]) -> str:
        return (f"optimize_s {float(np.median(op_seconds)):.6g} s "
                f"(pipeline runs: {len(op_seconds)})")


class Oracle(Workload):
    """oracle-17: Monte Carlo paths against one untreated forward solve."""

    scenario_name = "oracle_check"

    def setup(self) -> None:
        self.sc = self.load()
        self.nodes = self.sc.grid().cell_count()

    def inputs(self, k: int):
        key = int(np.random.SeedSequence([self.seed, k]).generate_state(1)[0])
        return self._fresh_dir(k), key

    def operate(self, inputs):
        out, key = inputs
        return self.m["pipeline"].run_oracle(self.sc, out, seed=key)

    def check(self, k: int, inputs, info) -> list:
        out, _ = inputs
        table = checks.read_table(out / "oracle_l1.csv")
        shutil.rmtree(out, ignore_errors=True)
        rows = np.column_stack([table["t"], table["axis"], table["l1_distance"]])
        t_final = self.sc.t_final
        failures = checks.check_oracle_rows(rows, times=(t_final / 2.0, t_final))
        if not np.array_equal(rows, np.asarray(info["rows"], dtype=float)):
            failures.append(checks.Failure("oracle", "oracle_l1.csv differs from the result"))
        return failures

    def summary(self, op_seconds: list[float]) -> str:
        return (f"oracle_s {float(np.median(op_seconds)):.6g} s "
                f"(oracle runs: {len(op_seconds)})")


WORKLOADS = {
    "forward-21": ForwardSolves,
    "optimize-tc1": OptimizeTestCase1,
    "oracle-17": Oracle,
}
