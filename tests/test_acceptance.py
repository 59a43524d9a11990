"""Acceptance suite: every release-gating criterion at its stated
tolerance, one printed pass line per criterion (run with -s or -v).

The heavyweight fixtures (both test-case optimizations) are shared
across criteria; the whole module is sized to finish well inside the
stated runtime budgets on a desktop machine.
"""

import time
from importlib import resources

import numpy as np
import pytest

from fpcontrol.adjoint import time_weights
from fpcontrol.cli import main as cli_main
from fpcontrol.fpsolver import DgStepper, solve_forward
from fpcontrol.io_utils import read_csv
from fpcontrol.model import ControlSchedule
from fpcontrol.pipeline import run_gradcheck, run_oracle, run_pipeline
from fpcontrol.pncg import PncgConfig, pncg
from fpcontrol.scenario import load_scenario
from fpcontrol.target import gaussian_on_grid

from test_fpsolver import gauss, make_ou_axis
from test_pncg import make_quadratic


def scenario_path(name: str) -> str:
    return str(resources.files("fpcontrol") / "scenarios" / f"{name}.scenario")


@pytest.fixture(scope="module")
def conservation_run():
    scenario = load_scenario(scenario_path("conservation_check"))
    grid = scenario.grid()
    assert grid.npts == (21, 21, 21, 21)
    assert scenario.n_steps == 50
    rng = np.random.default_rng(scenario.seed)
    t_grid = scenario.time_grid()
    u = ControlSchedule(
        t_grid,
        rng.uniform(0.0, scenario.d1, t_grid.size),
        rng.uniform(0.0, scenario.d2, t_grid.size),
        scenario.d1, scenario.d2,
    )
    assert u.is_admissible()
    f0 = gaussian_on_grid(grid, scenario.initial_state.as_array(),
                          scenario.target_variance)
    start = time.monotonic()
    field, diag = solve_forward(f0, u, scenario.nondim(), grid,
                                disp=scenario.dispersion)
    elapsed = time.monotonic() - start
    return diag, elapsed


@pytest.fixture(scope="module")
def tc_reports(tmp_path_factory):
    reports = {}
    for name in ("testcase1", "testcase2"):
        out = tmp_path_factory.mktemp(name)
        scenario = load_scenario(scenario_path(name))
        reports[name] = (run_pipeline(scenario, out), out)
    return reports


def _dose_totals(out):
    header, rows = read_csv(out / "dosage.csv")
    wt = time_weights(rows[:, header.index("t")])
    total_u1 = float(np.sum(wt * rows[:, header.index("u1_mg_per_day")]))
    total_u2 = float(np.sum(wt * rows[:, header.index("u2_iu_per_l_per_day")]))
    return total_u1, total_u2


class TestAcceptance:
    def test_mass_conservation_under_randomized_dosing(self, conservation_run):
        diag, elapsed = conservation_run
        worst = diag.max_mass_deviation
        assert worst <= 1e-8, f"mass deviated by {worst:.3e}"
        assert elapsed <= 600.0, f"runtime {elapsed:.1f}s exceeds 10 min"
        print(f"PASS: mass conservation: max |mass-1| = {worst:.3e} "
              f"({elapsed:.1f}s)")

    def test_positivity_under_randomized_dosing(self, conservation_run):
        diag, _ = conservation_run
        worst = diag.min_over_run
        assert worst >= 0.0, f"density dipped to {worst:.3e}"
        print(f"PASS: positivity: min density over run = {worst:.3e}")

    def test_density_solver_matches_monte_carlo(self, tmp_path):
        scenario = load_scenario(scenario_path("oracle_check"))
        assert scenario.grid().npts == (17, 17, 17, 17)
        assert scenario.sde_paths == 100_000
        start = time.monotonic()
        info = run_oracle(scenario, tmp_path)
        elapsed = time.monotonic() - start
        assert info["worst_l1"] <= 0.05, f"worst marginal L1 {info['worst_l1']:.4f}"
        assert elapsed <= 1200.0, f"runtime {elapsed:.1f}s exceeds 20 min"
        print(f"PASS: solver vs Monte Carlo: worst marginal L1 = "
              f"{info['worst_l1']:.4f} over 8 checks ({elapsed:.1f}s)")

    def test_adjoint_gradient_audit(self, tmp_path):
        scenario = load_scenario(scenario_path("gradcheck"))
        assert scenario.grid().npts == (13, 13, 13, 13)
        assert scenario.n_steps == 20
        info = run_gradcheck(scenario, tmp_path)
        worst = info["worst_relative_error"]
        assert len(info["rows"]) == 5
        assert worst <= 1e-3, f"gradient audit worst relative error {worst:.3e}"
        print(f"PASS: adjoint gradient audit: worst relative error = {worst:.3e} "
              f"over 5 directions at eps=1e-4")

    def test_convergence_order_on_manufactured_problem(self):
        # 2D restriction, mean-reverting drift with exact Gaussian
        # transient; h and dt halved together across three levels
        theta, sigma, t_end = 1.0, 0.5, 1.0
        v0, m0 = 0.16, (2.6, 3.5)
        errors = []
        for n, nt in ((17, 10), (33, 20), (65, 40)):
            ax1, x1, h = make_ou_axis(n, 0.0, 6.0, theta, 3.0, sigma, ndim=2)
            ax2, x2, _ = make_ou_axis(n, 0.0, 6.0, theta, 3.0, sigma, ndim=2)
            stepper = DgStepper([ax1, ax2], (n, n))
            w = np.full(n, h)
            w[0] = w[-1] = h / 2
            f = gauss(x1, m0[0], v0)[:, None] * gauss(x2, m0[1], v0)[None, :]
            f /= np.sum(w[:, None] * w[None, :] * f)
            dt = t_end / nt
            for _ in range(nt):
                f = stepper.step(f, (0.0, 0.0), dt)
            vinf = sigma**2 / (2 * theta)
            v_t = v0 * np.exp(-2 * theta * t_end) + vinf * (1 - np.exp(-2 * theta * t_end))
            m1 = 3.0 + (m0[0] - 3.0) * np.exp(-theta * t_end)
            m2 = 3.0 + (m0[1] - 3.0) * np.exp(-theta * t_end)
            exact = gauss(x1, m1, v_t)[:, None] * gauss(x2, m2, v_t)[None, :]
            errors.append(float(np.sum(w[:, None] * w[None, :] * np.abs(f - exact))))
        orders = [float(np.log2(errors[i] / errors[i + 1])) for i in range(2)]
        assert min(orders) >= 1.7, f"observed orders {orders}"
        print(f"PASS: convergence order: observed L1 orders = "
              f"{[f'{o:.2f}' for o in orders]} (threshold 1.7)")

    def test_pncg_contract(self, tc_reports):
        # analytic-box oracle
        prob, t, z1, z2 = make_quadratic(seed=5)
        u0 = ControlSchedule.zeros(10.0, 20, 7.0, 0.072)
        u, trace = pncg(u0, prob, PncgConfig(tol=1e-6, k_max=50))
        assert trace.converged and trace.iterations <= 50
        err = max(np.max(np.abs(u.u1 - np.clip(z1, 0.0, 7.0))),
                  np.max(np.abs(u.u2 - np.clip(z2, 0.0, 0.072))))
        assert err <= 1e-6, f"box minimizer error {err:.2e}"
        # density-tracking run: monotone objective, feasible iterates
        report, out = tc_reports["testcase1"]
        _, rows = read_csv(out / "trace.csv")
        j = rows[:, 1]
        assert np.all(np.diff(j) <= 0.0), "objective increased"
        header, dose_rows = read_csv(out / "dosage.csv")
        u1 = dose_rows[:, header.index("u1")]
        u2 = dose_rows[:, header.index("u2")]
        assert np.all((u1 >= 0.0) & (u1 <= 7.0))
        assert np.all((u2 >= 0.0) & (u2 <= 0.072))
        print(f"PASS: optimizer contract: box oracle error {err:.2e} in "
              f"{trace.iterations} iterations; tracking run monotone and feasible")

    def test_testcase1_qualitative_reproduction(self, tc_reports):
        report, out = tc_reports["testcase1"]
        header, rows = read_csv(out / "mean_untreated.csv")
        untreated_tumor = rows[:, header.index("T")]
        assert np.all(np.diff(untreated_tumor) > 0.0), "untreated tumor not monotone"
        header, rows = read_csv(out / "mean_treated.csv")
        treated_tumor = rows[:, header.index("T")]
        assert treated_tumor[-1] < treated_tumor[0], "treatment failed to shrink tumor"
        total_u1, _ = _dose_totals(out)
        assert total_u1 < 70.0, f"total Doxorubicin {total_u1:.1f} mg"
        assert report.peak_il2_iu_per_l < 2.1e6, f"peak IL-2 {report.peak_il2_iu_per_l:.3g}"
        print(f"PASS: test case 1: untreated tumor {untreated_tumor[0]:.3f}->"
              f"{untreated_tumor[-1]:.3f} rising, treated {treated_tumor[0]:.3f}->"
              f"{treated_tumor[-1]:.3f}, Doxorubicin {total_u1:.1f} mg < 70, "
              f"peak IL-2 {report.peak_il2_iu_per_l:.3g} IU/l < 2.1e6")

    def test_testcase2_doses_no_higher_than_testcase1(self, tc_reports):
        _, out1 = tc_reports["testcase1"]
        _, out2 = tc_reports["testcase2"]
        dox1, il21 = _dose_totals(out1)
        dox2, il22 = _dose_totals(out2)
        assert dox2 <= dox1, f"Doxorubicin {dox2:.2f} vs {dox1:.2f}"
        assert il22 <= il21, f"IL-2 {il22:.3g} vs {il21:.3g}"
        print(f"PASS: test case 2: Doxorubicin {dox2:.1f} <= {dox1:.1f} mg, "
              f"IL-2 total {il22:.3g} <= {il21:.3g}")

    def test_deterministic_outputs(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            code = cli_main(["solve", scenario_path("demo_small"),
                             "--out", str(out), "--seed", "11"])
            assert code == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name
        print(f"PASS: determinism: {len(names)} artifacts byte-identical across runs")
