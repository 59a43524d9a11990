"""Fast self-test of the benchmark harness on small inputs.

    python3 bench/selftest.py

Each check runs once on clean outputs of the program, where it must
pass, and once on a corrupted copy, where the operation must be counted
as failed: a density with a negative entry, mass off by 1e-6, a gradient
scaled by 1.01, and a marginal shifted by one bin. The span recorder is
checked on a small traced forward solve. Exits 1 if anything is off.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import numpy as np

import checks
import spans

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

m = {name: importlib.import_module(f"fpcontrol.{name}")
     for name in ("scenario", "model", "grid", "ode", "target", "fpsolver", "pipeline", "sde")}
SCENARIOS = SRC / "fpcontrol" / "scenarios"


def expect(label: str, failures: list, should_fail: bool, kind: str | None = None) -> bool:
    """Record one operation and compare with what the case should give."""
    tally = checks.Tally()
    tally.record(failures)
    ok = tally.attempted == 1 and tally.failed == int(should_fail)
    if kind is not None:
        ok = ok and any(f.kind == kind for f in failures)
        ok = ok and tally.correct == (kind == checks.KNOWN_FAULT)
    print(f"{'ok  ' if ok else 'FAIL'} {label}: attempted {tally.attempted}, "
          f"failed {tally.failed}, correct {tally.correct}"
          + "".join(f"; {f.message}" for f in failures))
    return ok


def small_forward():
    sc = m["scenario"].load_scenario(SCENARIOS / "conservation_check.scenario")
    grid = m["grid"].Grid4D.cube(sc.domain_lo, sc.domain_hi, 9)
    u = m["model"].ControlSchedule.zeros(sc.t_final, 10, sc.d1, sc.d2)
    f0 = m["target"].gaussian_on_grid(grid, sc.initial_state.as_array(), sc.target_variance)
    field, _ = m["fpsolver"].solve_forward(f0, u, sc.nondim(), grid, disp=sc.dispersion)
    snaps = [field.snapshot(k).copy() for k in range(field.n_steps + 1)]
    return snaps, checks.tensor_weights(grid.shape, grid.h)


def density_cases() -> list[bool]:
    snaps, weights = small_forward()
    clean = expect("density history, clean", checks.check_density_history(snaps, weights),
                   False)
    negative = [f.copy() for f in snaps]
    negative[5][-1, -1, -1, -1] = -1e-12
    heavy = [f.copy() for f in snaps]
    heavy[7] *= 1.0 + 1e-6
    return [clean,
            expect("density with a negative entry",
                   checks.check_density_history(negative, weights), True, checks.KNOWN_FAULT),
            expect("mass off by 1e-6", checks.check_density_history(heavy, weights), True,
                   "mass")]


def gradient_cases() -> list[bool]:
    sc = m["scenario"].load_scenario(SCENARIOS / "testcase1.scenario")
    grid = m["grid"].Grid4D.cube(sc.domain_lo, sc.domain_hi, 7)
    t = np.linspace(0.0, sc.t_final, 11)
    f0 = m["target"].gaussian_on_grid(grid, sc.initial_state.as_array(), sc.target_variance)
    traj = m["ode"].integrate(sc.initial_state, None, sc.nondim_target(), sc.t_final, 1000)
    fstar = m["target"].build_target(traj, sc.n_anchors, sc.target_variance, grid, t)
    problem = m["pipeline"].FpControlProblem(f0, fstar, sc.nondim(), grid, sc.dispersion,
                                             sc.alpha, sc.nu1, sc.nu2)
    rng = np.random.default_rng(7)
    u = m["model"].ControlSchedule(t, rng.uniform(0.25 * sc.d1, 0.75 * sc.d1, t.size),
                                   rng.uniform(0.25 * sc.d2, 0.75 * sc.d2, t.size),
                                   sc.d1, sc.d2)
    g = problem.gradient(u)

    def audit(scale):
        return checks.check_gradient(
            lambda u1, u2: problem.objective(u.with_values(u1, u2)),
            scale * g.g1, scale * g.g2, u.u1, u.u2, t, np.random.default_rng(3))

    return [expect("adjoint gradient, clean", audit(1.0), False),
            expect("gradient scaled by 1.01", audit(1.01), True, "gradient")]


def oracle_cases() -> list[bool]:
    grid = m["grid"].Grid4D.cube(0.0, 6.0, 17)
    center, variance = np.array([2.0, 3.0, 2.5, 3.5]), 0.5
    f = m["target"].gaussian_on_grid(grid, center, variance)
    x = m["sde"].sample_gaussian_in_box(center, variance, grid.lo, grid.hi, 200_000,
                                        np.random.default_rng(11))
    ens = m["sde"].PathEnsemble(seed=11, times=np.array([0.0]), samples=x[None],
                                lo=np.asarray(grid.lo), hi=np.asarray(grid.hi))
    fp = [grid.marginal(f, axis) for axis in range(4)]
    mc = [m["sde"].marginal_histogram(ens, 0, axis, grid.axis(axis)) for axis in range(4)]

    def rows(mc_marginals):
        return [[t, axis, checks.marginal_l1(fp[axis], mc_marginals[axis], grid.h)]
                for t in (5.0, 10.0) for axis in range(4)]

    shifted = list(mc)
    shifted[2] = np.roll(mc[2], 1)
    return [expect("oracle marginals, clean", checks.check_oracle_rows(rows(mc)), False),
            expect("marginal shifted by one bin", checks.check_oracle_rows(rows(shifted)),
                   True, "oracle")]


def tracer_case() -> list[bool]:
    tracer = spans.Tracer()
    tracer.install()
    tracer.phase = "op"
    try:
        snaps, _ = small_forward()
    finally:
        tracer.uninstall()
    values = spans.layer_metrics(tracer.spans, 1, 9**4, [1.0], 0.0)
    own = spans.self_times_ns(tracer.spans)
    ok = (values["fpsolver.forward_solves"] == 1.0
          and sum(s[spans.NAME] == "fpsolver.step" for s in tracer.spans) == len(snaps) - 1
          and values["fpsolver.history_bytes"] == len(snaps) * snaps[0].nbytes
          and all(t >= 0 for t in own)
          and m["fpsolver"].DgStepper.step.__name__ == "step"
          and not hasattr(m["fpsolver"].DgStepper.step, "__wrapped__"))
    print(f"{'ok  ' if ok else 'FAIL'} span recorder: {len(tracer.spans)} spans, "
          f"{values['fpsolver.forward_solves']:.0f} forward solve, uninstalled cleanly")
    return [ok]


def main() -> int:
    results = density_cases() + gradient_cases() + oracle_cases() + tracer_case()
    if not all(results):
        print(f"self-test failed: {results.count(False)} case(s)")
        return 1
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
