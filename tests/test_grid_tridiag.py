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

    def test_contains(self):
        g = Grid4D.cube(0.0, 6.0, 9)
        assert g.contains([0.0, 6.0, 3.0, 1.0])
        assert not g.contains([-0.1, 3.0, 3.0, 3.0])


class TestThomas:
    def _random_system(self, rng, batch, n):
        lo = rng.uniform(-1.0, 0.0, batch + (n,))
        up = rng.uniform(-1.0, 0.0, batch + (n,))
        lo[..., 0] = 0.0
        up[..., -1] = 0.0
        di = 2.5 + np.abs(lo) + np.abs(up)
        rhs = rng.normal(size=batch + (n,))
        return lo, di, up, rhs

    def _dense(self, lo, di, up):
        n = di.shape[-1]
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
            expected = np.linalg.solve(self._dense(lo[idx], di[idx], up[idx]), rhs[idx])
            assert np.allclose(x[idx], expected, rtol=1e-11, atol=1e-12)

    def test_broadcast_bands_against_full(self, rng):
        lo, di, up, _ = self._random_system(rng, (), 11)
        rhs = rng.normal(size=(6, 11))
        x = thomas_solve(lo, di, up, rhs)
        full = thomas_solve(np.broadcast_to(lo, (6, 11)), np.broadcast_to(di, (6, 11)),
                            np.broadcast_to(up, (6, 11)), rhs)
        assert np.array_equal(x, full)

    def test_factored_transpose_solve_matches_dense_transpose(self, rng):
        lo, di, up, _ = self._random_system(rng, (3,), 13)
        rhs = rng.normal(size=(2, 3, 13))
        factors = thomas_factor(lo, di, up, rhs.shape[:-1])
        x = thomas_factored_solve(factors, rhs, transposed=True)
        for idx in np.ndindex(2, 3):
            dense_t = self._dense(lo[idx[1]], di[idx[1]], up[idx[1]]).T
            expected = np.linalg.solve(dense_t, rhs[idx])
            assert np.allclose(x[idx], expected, rtol=1e-12, atol=1e-13)

    def test_breakdown_reports_stage(self):
        with pytest.raises(TridiagonalBreakdown):
            thomas_solve(np.zeros(3), np.zeros(3), np.zeros(3), np.ones(3))

    def test_breakdown_line_counts_right_hand_side_lines(self):
        # band line 1 of (2, 1, n) serves right-hand-side lines 3, 4, 5
        # of (2, 3, n); the first of them is the one reported
        lo, up = np.zeros((2, 1, 4)), np.zeros((2, 1, 4))
        di = np.ones((2, 1, 4))
        di[1, 0, 2] = 0.0
        with pytest.raises(TridiagonalBreakdown) as exc:
            thomas_solve(lo, di, up, np.ones((2, 3, 4)))
        assert (exc.value.stage, exc.value.line) == (2, 3)

    def test_breakdown_stage_survives_later_nonfinite_pivots(self):
        # band line 1 of (2, 1, 5) has a zero pivot at stage 2 of 5; its
        # elimination factor there is -inf, so stages 3 and 4 get NaN
        # pivots. The one check per factorization still names stage 2
        # and right-hand-side line 3, and no warning escapes.
        lo = np.zeros((2, 1, 5))
        up = np.full((2, 1, 5), -0.5)
        up[..., -1] = 0.0
        di = np.ones((2, 1, 5))
        di[1, 0, 2] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for solve in (lambda: thomas_factor(lo, di, up, (2, 3)),
                          lambda: thomas_solve(lo, di, up, np.ones((2, 3, 5)))):
                with pytest.raises(TridiagonalBreakdown) as exc:
                    solve()
                assert (exc.value.stage, exc.value.line) == (2, 3)
