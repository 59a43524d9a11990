import dataclasses
import filecmp
import gc
import json
import os
import subprocess
import sys
import weakref
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

import fpcontrol
from fpcontrol.adjoint import time_weights
from fpcontrol.cli import main as cli_main
from fpcontrol.grid import Grid4D
from fpcontrol.io_utils import read_csv, read_density, write_density
from fpcontrol.pipeline import (run_forward, run_gradcheck, run_oracle, run_pipeline,
                                run_target)
from fpcontrol.scenario import load_scenario


def scenario_path(name: str) -> str:
    return str(resources.files("fpcontrol") / "scenarios" / f"{name}.scenario")


@pytest.fixture(scope="module")
def demo_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo_run")
    scenario = load_scenario(scenario_path("demo_small"))
    report = run_pipeline(scenario, out)
    return scenario, report, out


class TestRunPipeline:
    def test_emits_all_artifacts(self, demo_report):
        _, report, out = demo_report
        for name in ("mean_untreated.csv", "mean_treated.csv", "dosage.csv",
                     "trace.csv", "diagnostics_untreated.csv",
                     "diagnostics_treated.csv", "target_trajectory.csv",
                     "report.json"):
            assert (out / name).exists(), name

    def test_report_totals_match_emitted_schedule(self, demo_report):
        _, report, out = demo_report
        header, rows = read_csv(out / "dosage.csv")
        t = rows[:, header.index("t")]
        u1_dim = rows[:, header.index("u1_mg_per_day")]
        u2_dim = rows[:, header.index("u2_iu_per_l_per_day")]
        wt = time_weights(t)
        assert report.total_doxorubicin_mg == pytest.approx(float(np.sum(wt * u1_dim)),
                                                            rel=1e-12)
        assert report.peak_il2_iu_per_l == pytest.approx(float(np.max(u2_dim)))

    def test_csv_values_round_trip_exactly(self, demo_report):
        _, report, out = demo_report
        header, rows = read_csv(out / "trace.csv")
        assert rows.shape[1] == 6
        again_path = out / "trace_rewrite.csv"
        from fpcontrol.io_utils import write_csv

        write_csv(again_path, header, rows)
        assert (out / "trace.csv").read_text() == again_path.read_text()

    def test_trace_objective_non_increasing(self, demo_report):
        _, report, out = demo_report
        _, rows = read_csv(out / "trace.csv")
        j = rows[:, 1]
        assert np.all(np.diff(j) <= 1e-15)

    def test_report_consistent_with_json(self, demo_report):
        _, report, out = demo_report
        blob = json.loads((out / "report.json").read_text())
        assert blob["final_objective"] == report.final_objective
        assert blob["scenario"] == "demo_small"

    def test_zero_tracking_weight_keeps_doses_at_zero(self, tmp_path):
        scenario = load_scenario(scenario_path("demo_small"))
        scenario = dataclasses.replace(scenario, alpha=0.0)
        report = run_pipeline(scenario, tmp_path / "a0")
        header, rows = read_csv(tmp_path / "a0" / "dosage.csv")
        assert np.all(rows[:, header.index("u1")] == 0.0)
        assert np.all(rows[:, header.index("u2")] == 0.0)
        assert report.total_doxorubicin_mg == 0.0

    def test_mass_and_positivity_reported(self, demo_report):
        _, report, _ = demo_report
        assert report.mass_deviation_untreated < 1e-8
        assert report.mass_deviation_treated < 1e-8


class TestSolveCount:
    def test_pipeline_solves_each_schedule_once_with_one_stepper(self, tmp_path, monkeypatch):
        import fpcontrol.fpsolver as fpsolver
        import fpcontrol.pipeline as pipeline

        solved, builds = [], []
        solve, build = fpsolver.solve_forward, fpsolver.build_fp_stepper

        def counting_solve(f0, u, *args, **kwargs):
            solved.append((u.u1.tobytes(), u.u2.tobytes()))
            return solve(f0, u, *args, **kwargs)

        def counting_build(*args, **kwargs):
            builds.append(1)
            return build(*args, **kwargs)

        for module in (pipeline, fpsolver):
            monkeypatch.setattr(module, "solve_forward", counting_solve)
            monkeypatch.setattr(module, "build_fp_stepper", counting_build)
        run_pipeline(load_scenario(scenario_path("demo_small")), tmp_path)
        assert len(builds) == 1
        assert len(solved) == len(set(solved))

    def test_report_counts_match_counted_calls(self, tmp_path, monkeypatch):
        import fpcontrol.pipeline as pipeline
        import fpcontrol.pncg as pncg_module

        counts = dict(forward_solves=0, backward_sweeps=0, objective_evals=0,
                      armijo_backtracks=0)

        def counting(key, fn, tally=lambda out: 1):
            def wrapped(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts[key] += tally(out)
                return out
            return wrapped

        monkeypatch.setattr(pipeline, "solve_forward",
                            counting("forward_solves", pipeline.solve_forward))
        monkeypatch.setattr(pipeline, "adjoint_gradient",
                            counting("backward_sweeps", pipeline.adjoint_gradient))
        monkeypatch.setattr(pipeline.FpControlProblem, "objective",
                            counting("objective_evals", pipeline.FpControlProblem.objective))
        monkeypatch.setattr(pncg_module, "armijo_step",
                            counting("armijo_backtracks", pncg_module.armijo_step,
                                     lambda out: out[3]))
        report = run_pipeline(load_scenario(scenario_path("demo_small")), tmp_path)
        blob = json.loads((tmp_path / "report.json").read_text())
        assert counts["objective_evals"] > 0 and counts["backward_sweeps"] > 0
        for key, value in counts.items():
            assert getattr(report, key) == blob[key] == value, key


class TestHistoryLifetime:
    def test_previous_history_is_dead_when_the_next_solve_starts(self, tmp_path, monkeypatch):
        import fpcontrol.pipeline as pipeline

        solve = pipeline.solve_forward
        earlier, alive_at_start = [], []

        def spying_solve(*args, **kwargs):
            gc.collect()
            alive_at_start.append(sum(ref() is not None for ref in earlier))
            field, diag = solve(*args, **kwargs)
            earlier.append(weakref.ref(field))
            return field, diag

        monkeypatch.setattr(pipeline, "solve_forward", spying_solve)
        run_pipeline(load_scenario(scenario_path("demo_small")), tmp_path)
        assert len(alive_at_start) > 2
        assert alive_at_start == [0] * len(alive_at_start)

    def test_oracle_stores_only_the_compared_steps(self, tmp_path, monkeypatch):
        import fpcontrol.pipeline as pipeline

        scenario = load_scenario(scenario_path("demo_small"))
        n = scenario.n_steps
        solve, simulate = pipeline.solve_forward, pipeline.simulate_paths
        seen = {}

        def spying_solve(*args, **kwargs):
            field, diag = solve(*args, **kwargs)
            seen["stored"] = [m for m in range(n + 1) if field.is_stored(m)]
            seen["full"], _ = solve(*args, **dict(kwargs, store_every=1))
            return field, diag

        def spying_simulate(*args, **kwargs):
            seen["ensemble"] = simulate(*args, **kwargs)
            return seen["ensemble"]

        monkeypatch.setattr(pipeline, "solve_forward", spying_solve)
        monkeypatch.setattr(pipeline, "simulate_paths", spying_simulate)
        info = run_oracle(scenario, tmp_path)
        assert seen["stored"] == [0, n // 2, n]
        grid, ens, full = scenario.grid(), seen["ensemble"], seen["full"]
        want = []
        for t_idx, m in enumerate((n // 2, n), start=1):
            for axis in range(4):
                fp_marg = grid.marginal(full.snapshot(m), axis)
                mc_marg = pipeline.marginal_histogram(ens, t_idx, axis, grid.axis(axis))
                l1 = float(np.sum(grid.axis_weights(axis) * np.abs(fp_marg - mc_marg)))
                want.append([ens.times[t_idx], float(axis), l1])
        assert info["rows"] == want


class TestAuxiliaryPipelines:
    def test_forward_emits_density_and_marginals(self, tmp_path):
        scenario = load_scenario(scenario_path("demo_small"))
        info = run_forward(scenario, tmp_path)
        assert info["max_mass_deviation"] < 1e-8
        f, grid, m, t = read_density(tmp_path / "density_final.bin")
        assert f.shape == grid.shape == (9, 9, 9, 9)
        assert m == scenario.n_steps
        assert t == pytest.approx(scenario.t_final)
        for axis in range(4):
            assert (tmp_path / f"marginal_final_axis{axis}.csv").exists()

    def test_gradcheck_report(self, tmp_path):
        scenario = load_scenario(scenario_path("demo_small"))
        info = run_gradcheck(scenario, tmp_path)
        assert info["worst_relative_error"] <= 1e-3
        text = (tmp_path / "gradcheck.txt").read_text()
        assert "worst relative error" in text
        assert text.count("direction") == 5

    def test_target_forms_each_step_once(self, tmp_path, monkeypatch):
        from fpcontrol.target import TargetDensity

        reads = []
        snapshot = TargetDensity.snapshot

        def counting(self, m):
            reads.append(m)
            return snapshot(self, m)

        monkeypatch.setattr(TargetDensity, "snapshot", counting)
        scenario = load_scenario(scenario_path("demo_small"))
        run_target(scenario, tmp_path)
        assert reads == list(range(scenario.n_steps + 1))

    def test_target_marginals_are_normalized(self, tmp_path):
        scenario = load_scenario(scenario_path("demo_small"))
        info = run_target(scenario, tmp_path)
        assert info["max_mass_error"] < 1e-8
        header, rows = read_csv(tmp_path / "target_marginal_axis0.csv")
        assert header == ["t", "x", "density"]
        # each time block integrates to one under trapezoid weights
        grid = scenario.grid()
        w = grid.axis_weights(0)
        block = rows[rows[:, 0] == 0.0]
        assert float(np.sum(w * block[:, 2])) == pytest.approx(1.0, rel=1e-10)


class TestDensityFormat:
    def test_round_trip_is_exact(self, tmp_path, rng):
        grid = Grid4D.cube(0.0, 6.0, 5)
        f = rng.random(grid.shape)
        path = tmp_path / "snap.bin"
        write_density(path, f, grid, 7, 1.4)
        g, grid2, m, t = read_density(path)
        assert np.array_equal(f, g)
        assert grid2 == grid
        assert (m, t) == (7, 1.4)

    def test_rejects_foreign_files(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a density\n\n123")
        with pytest.raises(ValueError, match="magic"):
            read_density(path)


class TestCli:
    def test_missing_scenario_exits_2(self, tmp_path, capsys):
        assert cli_main(["solve", str(tmp_path / "absent.scenario")]) == 2

    def test_invalid_scenario_exits_2(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text("parameters: {a: 1.0}\n")
        assert cli_main(["solve", str(bad)]) == 2

    @pytest.mark.parametrize("line, bad_line, field", [
        ("  npoints: 13", "  npoints: nine", "grid.npoints"),
        ("  scale: 0.5", "  scale: 0", "dispersion.scale"),
        ("  exponent: 1.2", "  exponent: -1", "dispersion.exponent"),
        ("  lo: 0.0", "  lo: -1", "domain.lo"),
        ("seed: 1234", "seed: -3", "seed"),
        # np.random.Philox takes keys below 2**128
        ("seed: 1234", f"seed: {2**128}", "seed"),
        ("  t_final: 10.0", "  t_final: .nan", "time.t_final"),
        ("  npoints: 13", "  npoints: 9.7", "grid.npoints"),
        ("time:", "tme:", "tme"),
        ("  k_max: 30", "  kmax: 3", "optimizer.kmax"),
        ("  chemo_mg_per_day: 1.0", "  chemo_mg_per_day: -1.0", "dose_scales.chemo_mg_per_day"),
        ("  il2_iu_per_l_per_day: 1.0e+7", "  il2_iu_per_l_per_day: 0",
         "dose_scales.il2_iu_per_l_per_day"),
    ], ids=["npoints", "dispersion_scale", "dispersion_exponent", "domain_lo", "seed",
            "seed_2**128", "t_final_nan", "npoints_fraction", "tme", "kmax", "chemo_scale",
            "il2_scale"])
    def test_malformed_field_exits_2_naming_it(self, tmp_path, capsys, line, bad_line, field):
        text = Path(scenario_path("testcase1")).read_text()
        assert line in text
        bad = tmp_path / "bad.scenario"
        bad.write_text(text.replace(line, bad_line))
        assert cli_main(["target", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("make", [
        lambda path: path.write_bytes(b"\xff\xfe\x00garbage"),
        lambda path: path.mkdir(),
    ], ids=["not_utf8", "directory"])
    def test_unreadable_scenario_exits_2(self, tmp_path, capsys, make):
        bad = tmp_path / "bad.scenario"
        make(bad)
        assert cli_main(["target", str(bad), "--out", str(tmp_path / "out")]) == 2
        assert "cannot read" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag, value", [
        pytest.param("gradcheck", "--seed", "-1", id="--seed--1"),
        pytest.param("gradcheck", "--seed", "seven", id="--seed-seven"),
        pytest.param("oracle", "--seed", str(2**128), id="oracle--seed-2**128"),
        pytest.param("gradcheck", "--checkpoint-every", "0", id="--checkpoint-every-0"),
        # the oracle stores exactly the snapshots it reads, so it takes no stride
        pytest.param("oracle", "--checkpoint-every", "2", id="oracle--checkpoint-every-2"),
    ])
    def test_bad_integer_option_exits_2(self, tmp_path, capsys, command, flag, value):
        with pytest.raises(SystemExit) as exc:
            cli_main([command, scenario_path("demo_small"), "--out", str(tmp_path),
                      flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_full_scale_runs_at_the_full_scale_resolution(self, tmp_path):
        text = Path(scenario_path("demo_small")).read_text()
        edits = {"full": [("full_scale_npoints: 51", "full_scale_npoints: 7"),
                          ("full_scale_n_steps: 200", "full_scale_n_steps: 4")],
                 "plain": [("  npoints: 9\n", "  npoints: 7\n"),
                           ("  n_steps: 10\n", "  n_steps: 4\n")]}
        for name, pairs in edits.items():
            edited = text
            for old, new in pairs:
                assert edited.count(old) == 1
                edited = edited.replace(old, new)
            (tmp_path / f"{name}.scenario").write_text(edited)
        assert cli_main(["target", str(tmp_path / "full.scenario"), "--full-scale",
                         "--out", str(tmp_path / "full")]) == 0
        assert cli_main(["target", str(tmp_path / "plain.scenario"),
                         "--out", str(tmp_path / "plain")]) == 0
        names = sorted(p.name for p in (tmp_path / "full").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "plain").iterdir())
        for name in names:
            assert ((tmp_path / "full" / name).read_bytes()
                    == (tmp_path / "plain" / name).read_bytes()), name

    def test_solve_and_reports(self, tmp_path, capsys):
        out = tmp_path / "run"
        code = cli_main(["solve", scenario_path("demo_small"), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == 0
        assert "final objective" in captured.out
        assert (out / "report.json").exists()

    def test_forward_subcommand(self, tmp_path):
        out = tmp_path / "fwd"
        assert cli_main(["forward", scenario_path("demo_small"), "--out", str(out)]) == 0
        assert (out / "density_final.bin").exists()

    def test_gradcheck_subcommand(self, tmp_path):
        out = tmp_path / "gc"
        assert cli_main(["gradcheck", scenario_path("demo_small"), "--out", str(out)]) == 0
        assert (out / "gradcheck.txt").exists()

    def test_target_subcommand(self, tmp_path):
        out = tmp_path / "tg"
        assert cli_main(["target", scenario_path("demo_small"), "--out", str(out)]) == 0
        assert (out / "target_trajectory.csv").exists()

    def test_oracle_subcommand(self, tmp_path):
        out = tmp_path / "or"
        assert cli_main(["oracle", scenario_path("demo_small"), "--out", str(out)]) == 0
        assert (out / "oracle_l1.csv").exists()
        assert (out / "ensemble_summary.csv").exists()

    @pytest.mark.parametrize("line, bad_line, field", [
        ("  n_steps: 10\n", "  n_steps: 11\n", "time.n_steps"),
        ("  n_steps: 200\n", "  n_steps: 199\n", "sde.n_steps"),
    ], ids=["time", "sde"])
    def test_oracle_with_an_odd_step_count_exits_2(self, tmp_path, capsys, line, bad_line, field):
        # t_final/2 would fall between two steps: the density grid would be
        # compared a half step early, the Monte Carlo grid would raise
        text = Path(scenario_path("demo_small")).read_text()
        assert text.count(line) == 1
        bad = tmp_path / "odd.scenario"
        bad.write_text(text.replace(line, bad_line))
        out = tmp_path / "or"
        assert cli_main(["oracle", str(bad), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_checkpointed_solve_matches_full(self, tmp_path):
        out_full = tmp_path / "full"
        out_chk = tmp_path / "chk"
        assert cli_main(["solve", scenario_path("demo_small"), "--out", str(out_full)]) == 0
        assert cli_main(["solve", scenario_path("demo_small"), "--out", str(out_chk),
                         "--checkpoint-every", "4"]) == 0
        for name in ("mean_treated.csv", "dosage.csv", "trace.csv"):
            assert (out_full / name).read_bytes() == (out_chk / name).read_bytes(), name

    def test_identical_runs_are_byte_identical(self, tmp_path):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        for out in (out_a, out_b):
            assert cli_main(["solve", scenario_path("demo_small"), "--out", str(out),
                             "--seed", "7"]) == 0
        names = sorted(p.name for p in out_a.iterdir())
        assert names == sorted(p.name for p in out_b.iterdir())
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    def test_entry_point_runs_in_subprocess(self, tmp_path):
        # the child finds the package the tests imported, installed or not
        src = str(Path(fpcontrol.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        result = subprocess.run(
            [sys.executable, "-m", "fpcontrol.cli", "target",
             scenario_path("demo_small"), "--out", str(tmp_path / "sp")],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
