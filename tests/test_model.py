import dataclasses

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fpcontrol.model import (
    ControlSchedule,
    DimensionalParams,
    DispersionSpec,
    NonDimParams,
    ScalingConstants,
    State,
    drift,
    kill_term,
    nondimensionalize,
    redimensionalize,
)

from conftest import PAPER_SCALING, sample_dimensional, weak_patient


def unit_scaling() -> ScalingConstants:
    return ScalingConstants(1.0, 1.0, 1.0, 1.0, 1.0)


class TestNondimensionalize:
    def test_unit_scaling_passes_rates_through(self):
        p = dataclasses.replace(sample_dimensional(), s=1.0, p=1e-10, q=1e-8)
        q = nondimensionalize(p, unit_scaling())
        assert q.a == p.a
        assert q.b == p.b
        assert q.p == pytest.approx(1.0)
        assert q.q == pytest.approx(1.0)
        assert q.s == pytest.approx(250.0)
        assert q.l == p.l

    def test_time_scale_one_keeps_growth_rate(self):
        p = dataclasses.replace(sample_dimensional(), a=0.5)
        q = nondimensionalize(p, PAPER_SCALING)
        assert q.a == pytest.approx(0.5)

    def test_nk_conversion_rate_formula(self):
        # hand evaluation of e*k2/(k4*k5) with e=2e-4, k2=1e-5, k4=1e-8
        expected = (2e-4 * 1e-5) / (1e-8 * 1.0)
        assert expected == pytest.approx(0.2)
        p = dataclasses.replace(sample_dimensional(), e=2e-4)
        q = nondimensionalize(p, PAPER_SCALING)
        assert q.e == pytest.approx(expected, rel=1e-14)

    def test_rejects_nonpositive_scaling(self):
        with pytest.raises(ValueError, match="k1"):
            ScalingConstants(0.0, 1.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="k5"):
            ScalingConstants(1.0, 1.0, 1.0, 1.0, -2.0)

    @given(
        scale_exps=st.tuples(*[st.integers(min_value=-10, max_value=2)] * 5),
        a=st.floats(0.01, 10.0),
        m=st.floats(0.0, 1.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_round_trip_is_identity(self, scale_exps, a, m):
        k = ScalingConstants(*[10.0**e for e in scale_exps])
        p = dataclasses.replace(sample_dimensional(), a=a, m=m)
        back = redimensionalize(nondimensionalize(p, k), k)
        for field in dataclasses.fields(p):
            orig = getattr(p, field.name)
            got = getattr(back, field.name)
            assert got == pytest.approx(orig, rel=1e-12), field.name

    def test_carries_state_scale_ratio(self):
        q = nondimensionalize(sample_dimensional(), PAPER_SCALING)
        assert q.ratio_tl == pytest.approx(1e-3)


class TestDimensionalParamsValidation:
    def test_rejects_negative_rate(self):
        with pytest.raises(ValueError, match="'f'"):
            dataclasses.replace(sample_dimensional(), f=-0.1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="'a'"):
            dataclasses.replace(sample_dimensional(), a=float("nan"))

    def test_rejects_zero_carrying_capacity(self):
        with pytest.raises(ValueError, match="'b'"):
            dataclasses.replace(sample_dimensional(), b=0.0)


class TestKillTerm:
    def test_zero_cd8_kills_nothing(self):
        assert kill_term(1.0, 0.0, weak_patient()) == 0.0

    def test_saturates_at_max_rate(self):
        q = weak_patient()
        assert kill_term(1e-9, 5.0, q) == pytest.approx(q.d, rel=1e-9)

    def test_matches_high_precision_evaluation(self):
        # independent symbolic evaluation of d*r^l/(4e-3*s*rho^l + r^l)
        # at d=2.1, l=1.1, s=1.25, rho=1e-3, r=1
        with mp.workdps(50):
            expected = mp.mpf("2.1") / (
                1 + 4 * mp.mpf("1.25") * mp.mpf("1e-3") * mp.mpf("1e-3") ** mp.mpf("1.1")
            )
        q = weak_patient().with_patient(2.1, 1.1, 1.25)
        got = kill_term(1.0, 1.0, q)
        assert got == pytest.approx(float(expected), rel=1e-14)

    def test_zero_tumor_is_regularized(self):
        q = weak_patient()
        assert np.isfinite(kill_term(0.0, 1.0, q))
        assert kill_term(0.0, 1.0, q) == pytest.approx(q.d, rel=1e-9)

    @given(
        T=st.floats(1e-9, 6.0),
        L=st.floats(0.0, 6.0),
        d=st.floats(0.1, 5.0),
        l=st.floats(0.2, 3.0),
        s=st.floats(0.1, 20.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_max_rate(self, T, L, d, l, s):
        q = weak_patient().with_patient(d, l, s)
        value = kill_term(T, L, q)
        assert 0.0 <= value <= d * (1 + 1e-12)

    def test_monotone_in_cd8_to_tumor_ratio(self):
        q = weak_patient(ratio_tl=1.0)
        ratios = np.linspace(0.0, 4.0, 41)
        values = np.array([kill_term(1.0, r, q) for r in ratios])
        assert np.all(np.diff(values) >= 0)

    def test_dimensional_consistency_at_equal_state_scales(self):
        # the dimensional kill d/(s*(T/L)^l + 1) agrees with the solver
        # form exactly when the tumor and CD8 scales coincide
        d, l, s = 1.7, 1.6, 0.03
        q = weak_patient(ratio_tl=1.0).with_patient(d, l, 250.0 * s)
        for T, L in [(0.5, 1.0), (2.0, 0.3), (1.0, 1.0)]:
            dimensional = d / (s * (T / L) ** l + 1.0)
            assert kill_term(T, L, q) == pytest.approx(dimensional, rel=1e-12)

    def test_scale_ratio_mismatch_is_quantified(self):
        # with the production scales the solver form saturates while the
        # dimensional form, evaluated at the corresponding dimensional
        # state (T/L picks up a factor k3/k1 = 1e3), is strongly
        # suppressed; the two differ by ~(k3/k1)^(2l). This is a known
        # discrepancy of the published transformation, kept as printed.
        d, l, s = 1.3, 2.0, 0.04
        q = weak_patient(ratio_tl=1e-3).with_patient(d, l, 250.0 * s)
        T, L = 1.0, 1.0
        dimensional = d / (s * (1e3 * T / L) ** l + 1.0)
        nondimensional = kill_term(T, L, q)
        assert nondimensional == pytest.approx(d, rel=1e-6)
        assert dimensional < 1e-4 * nondimensional


class TestDrift:
    def test_nk_equation_reduces_to_source_without_nk(self):
        q = weak_patient()
        f = drift(np.array([1.5, 0.0, 0.0, 2.0]), (0.0, 0.0), q)
        assert f[1] == pytest.approx(q.e * 2.0)

    def test_lymphocyte_fixed_point(self):
        q = weak_patient()
        c_star = q.alpha / q.beta
        f = drift(np.array([1.0, 1.0, 1.0, c_star]), (0.0, 0.0), q)
        assert f[3] == pytest.approx(0.0, abs=1e-15)

    def test_logistic_root_is_tumor_fixed_point(self):
        q = weak_patient().with_patient(0.0, 1.0, 1.0)
        f = drift(np.array([1.0 / q.b, 0.0, 0.0, 0.0]), (0.0, 0.0), q)
        assert f[0] == pytest.approx(0.0, abs=1e-12)

    def test_chemotherapy_suppresses_every_population(self, rng):
        q = weak_patient()
        for _ in range(25):
            x = rng.uniform(0.05, 5.0, 4)
            base = drift(x, (0.0, 0.0), q)
            dosed = drift(x, (3.0, 0.0), q)
            assert np.all(dosed < base)

    def test_immunotherapy_boosts_immune_compartments(self):
        q = weak_patient()
        x = np.array([1.0, 1.0, 1.0, 1.0])
        base = drift(x, (0.0, 0.0), q)
        dosed = drift(x, (0.0, 0.05), q)
        assert dosed[1] > base[1]
        assert dosed[2] > base[2]
        assert dosed[0] == pytest.approx(base[0])
        assert dosed[3] == pytest.approx(base[3])

    def test_vectorized_matches_scalar(self, rng):
        q = weak_patient()
        pts = rng.uniform(0.0, 6.0, (10, 4))
        ft, fn, fl, fc = drift((pts[:, 0], pts[:, 1], pts[:, 2], pts[:, 3]), (1.0, 0.03), q)
        for i in range(10):
            single = drift(pts[i], (1.0, 0.03), q)
            assert np.allclose([ft[i], fn[i], fl[i], fc[i]], single, rtol=1e-14)


class TestDispersion:
    def test_floor_at_origin(self):
        assert DispersionSpec().sigma(np.zeros(4))[0] == pytest.approx(0.0005)

    def test_unit_value(self):
        assert DispersionSpec().sigma(np.ones(4))[0] == pytest.approx(0.5005)

    def test_direct_evaluation_at_two(self):
        expected = 0.5 * (2.0**1.2 + 0.001)
        assert DispersionSpec().sigma(np.full(4, 2.0))[0] == pytest.approx(expected, rel=1e-15)

    def test_rejects_negative_state(self):
        with pytest.raises(ValueError):
            DispersionSpec().sigma(np.array([1.0, -0.1, 1.0, 1.0]))

    # sigma is strictly increasing in exact arithmetic, but x**1.2 of a
    # tiny x vanishes against the 0.001 offset in floating point, so
    # strictness is only asserted for separations it can resolve.
    @given(x=st.floats(0.0, 6.0), y=st.floats(0.0, 6.0))
    @example(x=0.0, y=7.7e-26)
    @settings(max_examples=100, deadline=None)
    def test_positive_and_monotone(self, x, y):
        spec = DispersionSpec()
        sx, sy = spec.sigma(np.array([x])), spec.sigma(np.array([y]))
        assert sx[0] > 0
        if x < y:
            assert sx[0] <= sy[0]
        if y - x >= 1e-6:
            assert sx[0] < sy[0]


class TestStateAndControls:
    def test_state_rejects_negative(self):
        with pytest.raises(ValueError):
            State(-0.1, 1.0, 1.0, 1.0)

    def test_state_round_trip(self):
        s = State(0.2, 1.0, 1.5, 0.7)
        assert State.from_array(s.as_array()) == s

    def test_schedule_admissibility_and_projection(self):
        t = np.linspace(0.0, 10.0, 11)
        u = ControlSchedule(t, np.linspace(-1.0, 8.0, 11), np.full(11, 0.05), 7.0, 0.072)
        assert not u.is_admissible()
        clipped = u.clipped()
        assert clipped.is_admissible()
        assert clipped.u1[0] == 0.0
        assert clipped.u1[-1] == 7.0

    def test_piecewise_linear_interpolation(self):
        u = ControlSchedule([0.0, 1.0, 2.0], [0.0, 2.0, 2.0], [0.0, 0.0, 0.06], 7.0, 0.072)
        assert u.at_time(0.5) == (pytest.approx(1.0), pytest.approx(0.0))
        assert u.at_time(1.5) == (pytest.approx(2.0), pytest.approx(0.03))

    def test_schedule_shape_validation(self):
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 1.0], [0.0], [0.0, 0.0], 7.0, 0.072)
        with pytest.raises(ValueError):
            ControlSchedule([0.0, 0.0], [0.0, 0.0], [0.0, 0.0], 7.0, 0.072)
