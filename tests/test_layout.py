"""The axis-first solver against its moved-last reference, bit for bit,
and the solver's promise not to write its inputs or what it returned."""

import numpy as np
import pytest

import moved_last_reference as ref
from fpcontrol.adjoint import adjoint_gradient
from fpcontrol.fpsolver import (
    AxisDiscretization,
    _band_apply,
    _implicit_bands,
    build_fp_stepper,
    solve_forward,
)
from fpcontrol.grid import Grid4D
from fpcontrol.model import ControlSchedule, DispersionSpec
from fpcontrol.target import gaussian_on_grid
from fpcontrol.tridiag import thomas_factor, thomas_factored_solve

from conftest import weak_patient
from test_adjoint import make_setup, seeded_step_case


def same_bits(a, b):
    # array_equal alone takes -0.0 for +0.0
    return np.array_equal(a, b) and a.tobytes() == b.tobytes()


def bands_of(stepper, j, u, full):
    """Implicit bands of axis j, reduced or expanded to the full grid."""
    bands = _implicit_bands([b.copy() for b in stepper.axes[j].operator_bands(*u)], 0.125)
    if full:
        shape = (stepper.shape[j],) + stepper.shape[:j] + stepper.shape[j + 1:]
        bands = tuple(np.broadcast_to(b, shape) for b in bands)
    return bands


class TestMatchesMovedLastReference:
    @pytest.mark.parametrize("full", [False, True], ids=["broadcast", "full"])
    @pytest.mark.parametrize("transposed", [False, True], ids=["plain", "transposed"])
    def test_solves(self, full, transposed):
        grid, stepper, u, rng = seeded_step_case(seed=11)
        for j in range(4):
            bands = bands_of(stepper, j, u, full)
            rhs = rng.normal(size=grid.shape)
            lines = grid.shape[:j] + grid.shape[j + 1:]
            got = thomas_factored_solve(thomas_factor(*bands, lines),
                                        np.moveaxis(rhs, j, 0), transposed)
            want = ref.thomas_factored_solve(ref.thomas_factor(*ref.moved_last(bands)),
                                             np.moveaxis(rhs, j, -1), transposed)
            assert same_bits(np.moveaxis(got, 0, j), np.moveaxis(want, -1, j)), j

    @pytest.mark.parametrize("full", [False, True], ids=["broadcast", "full"])
    def test_band_applications(self, full):
        grid, stepper, u, rng = seeded_step_case(seed=12)
        for j in range(4):
            bands = bands_of(stepper, j, u, full)
            x = rng.normal(size=grid.shape)
            lo, di, up = bands
            # one product for both: A^T swaps A's off-diagonals
            for sub, sup, apply_ref in ((lo[1:], up[:-1], ref.band_apply),
                                        (up[:-1], lo[1:], ref.band_apply_transpose)):
                got = _band_apply((sub, di, sup), np.moveaxis(x, j, 0))
                want = apply_ref(ref.moved_last(bands), np.moveaxis(x, j, -1))
                assert same_bits(np.moveaxis(got, 0, j), np.moveaxis(want, -1, j)), j

    def test_step_and_transposed_step(self):
        grid, stepper, u, rng = seeded_step_case(seed=13)
        dt = 0.25
        f = rng.uniform(size=grid.shape)
        p = rng.normal(size=grid.shape)
        f_next = stepper.step(f, u, dt)
        assert f_next.flags.c_contiguous
        assert same_bits(f_next, ref.step(stepper, f, u, dt))
        mtp, _ = stepper.step_transpose(f, f_next, u, dt, p)
        assert same_bits(mtp, ref.step_transpose(stepper, u, dt, p))

    def test_seeded_forward_history(self):
        grid, stepper, _, rng = seeded_step_case(seed=14)
        f0 = gaussian_on_grid(grid, np.array([0.5, 1.0, 1.0, 1.0]), 0.25)
        t = np.linspace(0.0, 2.0, 9)
        u = ControlSchedule(t, rng.uniform(0.0, 7.0, t.size), rng.uniform(0.0, 0.072, t.size),
                            7.0, 0.072)
        field, _ = solve_forward(f0, u, weak_patient(), grid, stepper=stepper)
        f = f0
        for m in range(8):
            f = ref.step(stepper, f, u.at_index(m), 0.25)
            assert same_bits(field.snapshot(m + 1), f), m


class TestStagesFromTheResult:
    # step_transpose rebuilds the forward stages g_j - f from f_next by
    # explicit products instead of replaying the step: M^T p keeps the
    # replay's bits, the stages and the sensitivities its values to rounding

    @staticmethod
    def rebuilt_stages(stepper, f, u, dt, p, monkeypatch):
        """d_j = g_j - f as step_transpose hands it to axis j's face sums."""
        seen = {}
        ids = [id(ax) for ax in stepper.axes]
        face_sums = AxisDiscretization.dose_face_sums

        def recording(ax, terms, work):
            j = ids.index(id(ax))
            seen[j] = np.moveaxis(terms[1][1], 0, j).copy()
            return face_sums(ax, terms, work)

        with monkeypatch.context() as patch:
            patch.setattr(AxisDiscretization, "dose_face_sums", recording)
            stepper.step_transpose(f, stepper.step(f, u, dt), u, dt, p)
        return [seen[j] for j in range(stepper.ndim)]

    def assert_stages_match_the_replay(self, stepper, f, u, dt, p, monkeypatch):
        rebuilt = self.rebuilt_stages(stepper, f, u, dt, p, monkeypatch)
        for j, g in enumerate(ref.stages(stepper, f, u, dt)):
            want = g - f
            assert np.max(np.abs(rebuilt[j] - want)) <= 1e-13 * np.max(np.abs(want)), j

    @pytest.mark.parametrize("seed", range(5))
    def test_stages_match_the_replay(self, seed, monkeypatch):
        grid, stepper, u, rng = seeded_step_case(seed=seed)
        self.assert_stages_match_the_replay(stepper, rng.uniform(size=grid.shape), u, 0.25,
                                            rng.normal(size=grid.shape), monkeypatch)

    def test_stages_match_the_replay_at_21(self, monkeypatch):
        grid = Grid4D.cube(0.0, 6.0, 21)
        stepper = build_fp_stepper(grid, weak_patient(), DispersionSpec())
        rng = np.random.default_rng(21)
        f = gaussian_on_grid(grid, np.array([0.5, 1.0, 1.0, 1.0]), 0.25)
        self.assert_stages_match_the_replay(stepper, f, (5.0, 0.05), 0.04,
                                            rng.normal(size=grid.shape), monkeypatch)

    @pytest.mark.parametrize("seed", range(5))
    def test_transposed_step_keeps_the_replays_bits(self, seed):
        grid, stepper, u, rng = seeded_step_case(seed=seed)
        f = rng.uniform(size=grid.shape)
        p = rng.normal(size=grid.shape)
        mtp, _ = stepper.step_transpose(f, stepper.step(f, u, 0.25), u, 0.25, p)
        assert same_bits(mtp, ref.step_transpose(stepper, u, 0.25, p))

    @pytest.mark.parametrize("seed", range(5))
    def test_sensitivities_match_the_replay(self, seed):
        grid, stepper, u, rng = seeded_step_case(seed=seed)
        f = rng.uniform(size=grid.shape)
        p = rng.normal(size=grid.shape)
        _, sens = stepper.step_transpose(f, stepper.step(f, u, 0.25), u, 0.25, p)
        want = ref.sensitivities(stepper, f, u, 0.25, p)
        for got, ref_value in zip(sens, want):
            assert abs(got - ref_value) <= 1e-13 * abs(ref_value)


class TestInputsStayUnchanged:
    def test_step_and_transposed_step(self):
        grid, stepper, u, rng = seeded_step_case(seed=15)
        f = rng.uniform(size=grid.shape)
        f_next = stepper.step(f, u, 0.25)
        p_next = rng.normal(size=grid.shape)
        arrays = (f, f_next, p_next)
        before = [a.tobytes() for a in arrays]
        stepper.step(f, u, 0.25)
        stepper.step_transpose(f, f_next, u, 0.25, p_next)
        assert [a.tobytes() for a in arrays] == before

    @pytest.mark.parametrize("store_every", [1, 4])
    def test_stored_snapshots(self, store_every):
        grid, q, disp, fstar, f0, t_grid = make_setup()
        u = ControlSchedule.constant(t_grid[-1], t_grid.size - 1, 2.0, 0.04, 7.0, 0.072)
        field, _ = solve_forward(f0, u, q, grid, disp=disp, store_every=store_every)
        stored = {m: field.snapshot(m).tobytes() for m in range(field.n_steps + 1)
                  if field.is_stored(m)}
        adjoint_gradient(field, fstar, u, build_fp_stepper(grid, q, disp), 1.0, 0.01, 0.01)
        assert {m: field.snapshot(m).tobytes() for m in stored} == stored

    def test_history_survives_later_steps(self):
        # the stepper's work arrays are reused by every step; what a step
        # returned, and the history stored from it, must not move
        grid, stepper, u, rng = seeded_step_case(seed=16)
        f0 = gaussian_on_grid(grid, np.array([0.5, 1.0, 1.0, 1.0]), 0.25)
        t = np.linspace(0.0, 2.0, 9)
        sched = ControlSchedule(t, rng.uniform(0.0, 7.0, t.size),
                                rng.uniform(0.0, 0.072, t.size), 7.0, 0.072)
        field, _ = solve_forward(f0, sched, weak_patient(), grid, stepper=stepper)
        snaps = [field.snapshot(m) for m in range(field.n_steps + 1)]
        before = [a.tobytes() for a in snaps]
        f = snaps[-1]
        for m in range(3):
            f_next = stepper.step(f, u, 0.25)
            assert not any(np.shares_memory(f_next, a) for a in snaps)
            stepper.step_transpose(f, f_next, u, 0.25, rng.normal(size=grid.shape))
            f = f_next
        assert [a.tobytes() for a in snaps] == before


class TestTransposedWorkArrays:
    # step_transpose solves, sums and accumulates in arrays the stepper and
    # its axes keep from call to call; what one call leaves there must not
    # reach the next, and what it returns must not be one of them

    def test_reused_stepper_gives_a_fresh_steppers_bits(self):
        grid, used, u, rng = seeded_step_case(seed=17)
        _, fresh, _, _ = seeded_step_case(seed=17)
        for _ in range(3):
            x = rng.normal(size=grid.shape)
            other = (rng.uniform(0.0, 7.0), rng.uniform(0.0, 0.072))
            used.step_transpose(x, used.step(x, other, 0.5), other, 0.5,
                                rng.normal(size=grid.shape))
        f = rng.uniform(size=grid.shape)
        p = rng.normal(size=grid.shape)
        (got, got_sens), (want, want_sens) = (
            stepper.step_transpose(f, stepper.step(f, u, 0.25), u, 0.25, p)
            for stepper in (used, fresh))
        assert same_bits(got, want) and got_sens == want_sens

    def test_returned_arrays_share_no_memory(self):
        grid, stepper, u, rng = seeded_step_case(seed=18)
        f = rng.uniform(size=grid.shape)
        f_next = stepper.step(f, u, 0.25)
        first, _ = stepper.step_transpose(f, f_next, u, 0.25, rng.normal(size=grid.shape))
        second, _ = stepper.step_transpose(f, f_next, u, 0.25, first)
        af, g, scratch = stepper._buffers()
        work = [*af, g, scratch, *stepper._adjoint_work]
        for ax in stepper.axes:
            faces, bands = ax._buffers()
            copies, mask = ax._transposed_buffers()
            work += [*faces, *bands, *copies, mask]
        assert not np.shares_memory(first, second)
        assert not any(np.shares_memory(out, a) for out in (first, second) for a in work)
