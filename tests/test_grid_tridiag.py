import warnings

import numpy as np
import pytest

from fpcontrol.grid import Grid4D
from fpcontrol.tridiag import (
    TridiagonalBreakdown,
    thomas_factor,
    thomas_factored_solve,
    thomas_solve,
)


class TestGrid4D:
    def test_spacing_and_shape(self):
        g = Grid4D.cube(0.0, 6.0, 13)
        assert g.h == pytest.approx(0.5)
        assert g.shape == (13, 13, 13, 13)
        assert g.cell_count() == 13**4

    def test_rejects_mismatched_spacing(self):
        with pytest.raises(ValueError, match="identical"):
            Grid4D(lo=(0, 0, 0, 0), hi=(6, 6, 6, 3), npts=(13, 13, 13, 13))

    def test_rejects_tiny_axes(self):
        with pytest.raises(ValueError, match="3 nodes"):
            Grid4D(lo=(0, 0, 0, 0), hi=(6, 6, 6, 6), npts=(13, 13, 13, 2))

    def test_integrates_constants_exactly(self):
        g = Grid4D.cube(0.0, 6.0, 9)
        assert g.integrate(np.ones(g.shape)) == pytest.approx(6.0**4, rel=1e-13)

    def test_axis_weights_sum_to_length(self):
        g = Grid4D.cube(0.0, 6.0, 11)
        assert g.axis_weights(2).sum() == pytest.approx(6.0)

    def test_mean_of_uniform_density_is_center(self):
        g = Grid4D.cube(0.0, 6.0, 9)
        f = np.ones(g.shape)
        f /= g.integrate(f)
        assert np.allclose(g.mean_position(f), [3.0, 3.0, 3.0, 3.0], atol=1e-12)

    def test_marginal_of_product_density(self):
        g = Grid4D.cube(0.0, 6.0, 9)
        parts = []
        f = np.ones(g.shape)
        for i in range(4):
            gi = np.exp(-0.5 * (g.axis(i) - 2.0 - 0.3 * i) ** 2)
            gi /= np.sum(g.axis_weights(i) * gi)
            parts.append(gi)
            f = f * g.broadcast_axis(i, gi)
        for i in range(4):
            assert np.allclose(g.marginal(f, i), parts[i], rtol=1e-12)

    def test_quadratures_keep_the_bits_of_fresh_weights(self):
        # the 1D weights are built once per grid; integrate and marginal
        # must give the bits of the loop that built them on every call
        g = Grid4D(lo=(0.0,) * 4, hi=(6.0, 5.5, 5.0, 4.5), npts=(13, 12, 11, 10))

        def fresh(i):
            w = np.full(g.npts[i], g.h)
            w[0] = w[-1] = 0.5 * g.h
            return w

        rng = np.random.default_rng(31)
        for _ in range(3):
            f = rng.uniform(size=g.shape)
            out = f
            for i in range(4):
                out = np.tensordot(out, fresh(i), axes=([0], [0]))
            assert g.integrate(f) == float(out)
            for axis in range(4):
                out = f
                for other in sorted(set(range(4)) - {axis}, reverse=True):
                    out = np.tensordot(out, fresh(other), axes=([other], [0]))
                assert g.marginal(f, axis).tobytes() == out.tobytes()
        assert not g.axis_weights(0).flags.writeable

    def test_contains(self):
        g = Grid4D.cube(0.0, 6.0, 9)
        assert g.contains([0.0, 6.0, 3.0, 1.0])
        assert not g.contains([-0.1, 3.0, 3.0, 3.0])


class TestThomas:
    # Bands and right-hand sides are solve axis first: (n, *batch).

    def _random_system(self, rng, batch, n):
        lo = rng.uniform(-1.0, 0.0, (n,) + batch)
        up = rng.uniform(-1.0, 0.0, (n,) + batch)
        lo[0] = 0.0
        up[-1] = 0.0
        di = 2.5 + np.abs(lo) + np.abs(up)
        rhs = rng.normal(size=(n,) + batch)
        return lo, di, up, rhs

    def _dense(self, lo, di, up):
        n = di.shape[0]
        mat = np.diag(di)
        mat += np.diag(lo[1:], -1)
        mat += np.diag(up[:-1], 1)
        return mat

    def test_matches_dense_solve(self, rng):
        lo, di, up, rhs = self._random_system(rng, (), 17)
        x = thomas_solve(lo, di, up, rhs)
        expected = np.linalg.solve(self._dense(lo, di, up), rhs)
        assert np.allclose(x, expected, rtol=1e-12, atol=1e-13)

    def test_batched_matches_loop(self, rng):
        lo, di, up, rhs = self._random_system(rng, (5, 4), 9)
        x = thomas_solve(lo, di, up, rhs)
        for idx in np.ndindex(5, 4):
            line = (slice(None),) + idx
            expected = np.linalg.solve(self._dense(lo[line], di[line], up[line]), rhs[line])
            assert np.allclose(x[line], expected, rtol=1e-11, atol=1e-12)

    def test_broadcast_bands_against_full(self, rng):
        lo, di, up, _ = self._random_system(rng, (), 11)
        rhs = rng.normal(size=(11, 6))
        x = thomas_solve(lo, di, up, rhs)
        full = thomas_solve(np.broadcast_to(lo[:, None], (11, 6)),
                            np.broadcast_to(di[:, None], (11, 6)),
                            np.broadcast_to(up[:, None], (11, 6)), rhs)
        assert np.array_equal(x, full)

    def test_factored_transpose_solve_matches_dense_transpose(self, rng):
        lo, di, up, _ = self._random_system(rng, (3,), 13)
        rhs = rng.normal(size=(13, 2, 3))
        factors = thomas_factor(lo, di, up, rhs.shape[1:])
        x = thomas_factored_solve(factors, rhs, transposed=True)
        for idx in np.ndindex(2, 3):
            line = (slice(None),) + idx
            band = (slice(None), idx[1])
            dense_t = self._dense(lo[band], di[band], up[band]).T
            expected = np.linalg.solve(dense_t, rhs[line])
            assert np.allclose(x[line], expected, rtol=1e-12, atol=1e-13)

    def test_solves_leave_their_inputs_unchanged(self, rng):
        # the sweep runs in place on a copy, also where the right-hand
        # side is already C-ordered and solve axis first
        lo, di, up, rhs = self._random_system(rng, (4, 3), 8)
        arrays = (lo, di, up, rhs)
        before = [a.tobytes() for a in arrays]
        factors = thomas_factor(lo, di, up, rhs.shape[1:])
        solves = (lambda: thomas_solve(lo, di, up, rhs),
                  lambda: thomas_factored_solve(factors, rhs),
                  lambda: thomas_factored_solve(factors, rhs, transposed=True))
        for solve in solves:
            x = solve()
            assert not np.shares_memory(x, rhs)
            assert [a.tobytes() for a in arrays] == before

    def test_breakdown_reports_stage(self):
        with pytest.raises(TridiagonalBreakdown):
            thomas_solve(np.zeros(3), np.zeros(3), np.zeros(3), np.ones(3))

    def test_breakdown_line_counts_right_hand_side_lines(self):
        # band line 1 of (n, 2, 1) serves right-hand-side lines 3, 4, 5
        # of (n, 2, 3); the first of them is the one reported
        lo, up = np.zeros((4, 2, 1)), np.zeros((4, 2, 1))
        di = np.ones((4, 2, 1))
        di[2, 1, 0] = 0.0
        with pytest.raises(TridiagonalBreakdown) as exc:
            thomas_solve(lo, di, up, np.ones((4, 2, 3)))
        assert (exc.value.stage, exc.value.line) == (2, 3)

    def test_breakdown_stage_survives_later_nonfinite_pivots(self):
        # band line 1 of (5, 2, 1) has a zero pivot at stage 2 of 5; its
        # elimination factor there is -inf, so stages 3 and 4 get NaN
        # pivots. The one check per factorization still names stage 2
        # and right-hand-side line 3, and no warning escapes.
        lo = np.zeros((5, 2, 1))
        up = np.full((5, 2, 1), -0.5)
        up[-1] = 0.0
        di = np.ones((5, 2, 1))
        di[2, 1, 0] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: thomas_factor(lo, di, up, (2, 3)),
                          lambda: thomas_solve(lo, di, up, np.ones((5, 2, 3)))):
                with pytest.raises(TridiagonalBreakdown) as exc:
                    solve()
                assert (exc.value.stage, exc.value.line) == (2, 3)
