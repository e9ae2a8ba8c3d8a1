import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from legendreflow import (Constraint, CurveEnsembleSpec, CurveKind,
                          FlowConfig, FlowType, GridFunction,
                          ModeNotExcludedError, NotZeroLengthError,
                          SupportFourier, algebraic_area, algebraic_length,
                          beta_of, check_beta2_family, check_beta2_zero_length,
                          check_grad_family, check_isoperimetric, classify,
                          equality_family, green_osher_quadratic,
                          isoperimetric_deficit, moments, periodic_quadrature,
                          random_curve, run, run_ensemble, synthesize,
                          wirtinger_gap)
from conftest import rand_support

P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))
P_NEG = SupportFourier(0.0, ((1, 2.0, 1.0), (2, 2.0, 1.0)))


def quad_int_beta2(p, n=512):
    b = synthesize(beta_of(p), n).values
    return periodic_quadrature(GridFunction(b * b))


class TestIsoperimetric:
    def test_circle_equality(self):
        assert isoperimetric_deficit(SupportFourier(1.7)) == \
            pytest.approx(0.0, abs=1e-12)

    def test_fig_a(self):
        assert isoperimetric_deficit(P_FIG_A) == pytest.approx(
            6 * math.pi ** 2, abs=1e-10)

    def test_negative_area_curve(self):
        assert isoperimetric_deficit(P_NEG) == pytest.approx(
            30 * math.pi ** 2, abs=1e-10)


class TestBeta2Family:
    def test_sharp_at_tau8_for_mode012(self):
        p = equality_family(2.0, 0.0, 0.0, 0.3, 0.0)
        rep = check_beta2_family(moments(p), 8.0)
        assert abs(rep.slack) <= 1e-10 and rep.holds

    def test_tau0_is_basic_inequality(self, rng):
        for _ in range(50):
            p = rand_support(rng, K=6)
            rep = check_beta2_family(moments(p), 0.0)
            assert rep.slack >= -1e-9
            # slack at tau = 0 is int beta^2 - 2A, cross-checked by quadrature
            oracle = quad_int_beta2(p) - 2 * algebraic_area(p)
            assert rep.slack == pytest.approx(oracle, abs=1e-9)

    def test_mode3_breaks_sharpness(self):
        p = SupportFourier(1.0, ((3, 0.1, 0.0),))
        assert check_beta2_family(moments(p), 8.0).slack > 1e-3

    def test_tau_monotone_and_expected_violable(self, rng):
        p = rand_support(rng, K=4)
        if isoperimetric_deficit(p) > 0:
            assert check_beta2_family(moments(p), 8.0).slack <= \
                check_beta2_family(moments(p), 4.0).slack + 1e-12
        assert check_beta2_family(moments(p), 9.0).expected_violable


class TestBeta2ZeroLength:
    def test_sharp_mode2(self):
        p = SupportFourier(0.0, ((2, 0.7, 0.0),))
        # int beta^2 = 9 pi a2^2, A = -(3 pi / 2) a2^2
        rep = check_beta2_zero_length(moments(p), 6.0)
        assert abs(rep.slack) <= 1e-10

    def test_mode3_strict(self):
        p = SupportFourier(0.0, ((3, 0.4, 0.0),))
        assert check_beta2_zero_length(moments(p), 6.0).slack > 0

    def test_point_equality(self):
        p = SupportFourier(0.0, ((1, 1.0, -2.0),))
        assert check_beta2_zero_length(moments(p), 6.0).slack == \
            pytest.approx(0.0)

    def test_rejects_nonzero_length(self):
        with pytest.raises(NotZeroLengthError):
            check_beta2_zero_length(moments(P_FIG_A), 6.0)


class TestGradFamily:
    def test_sharp_at_xi24(self):
        p = equality_family(2.0, 0.5, -0.3, 0.3, 0.1)
        assert abs(check_grad_family(moments(p), 24.0).slack) <= 1e-10

    def test_circle_trivial(self):
        rep = check_grad_family(moments(SupportFourier(1.0)), 24.0)
        assert rep.slack == pytest.approx(0.0, abs=1e-12)

    def test_scaled_form(self, rng):
        # (1/12) int beta'^2 - 2(L^2/4pi - A) = slack(xi = 24) / 12
        p = rand_support(rng, K=5)
        rep = check_grad_family(moments(p), 24.0)
        from legendreflow import l2_quantities
        int_db2 = l2_quantities(beta_of(p))["int_dp2"]
        L = algebraic_length(p)
        A = algebraic_area(p)
        lhs = int_db2 / 12 - 2 * (L * L / (4 * math.pi) - A)
        assert lhs == pytest.approx(rep.slack / 12, abs=1e-10)
        assert lhs >= -1e-9

    def test_zero_length_branch(self):
        p = SupportFourier(0.0, ((2, 0.7, 0.2),))
        rep = check_grad_family(moments(p), 24.0, zero_length=True)
        assert abs(rep.slack) <= 1e-10
        with pytest.raises(NotZeroLengthError):
            check_grad_family(moments(P_FIG_A), 24.0, zero_length=True)


class TestGreenOsher:
    def test_circle(self):
        assert green_osher_quadratic(moments(SupportFourier(2.0))).slack == \
            pytest.approx(0.0, abs=1e-12)

    def test_fig_a(self):
        assert green_osher_quadratic(moments(P_FIG_A)).slack == \
            pytest.approx(6 * math.pi, abs=1e-10)

    def test_random_ensemble_nonnegative(self, rng):
        for _ in range(100):
            p = rand_support(rng, K=8)
            assert green_osher_quadratic(moments(p)).slack >= -1e-9


class TestWirtinger:
    def test_equality_at_mode2(self):
        s = SupportFourier(0.0, ((2, 0.0, 1.0),))
        lhs, rhs = wirtinger_gap(s)
        assert lhs == pytest.approx(4 * math.pi)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_strict_at_mode3(self):
        s = SupportFourier(0.0, ((3, 1.0, 0.0),))
        lhs, rhs = wirtinger_gap(s)
        assert lhs == pytest.approx(9 * math.pi)
        assert rhs == pytest.approx(4 * math.pi)
        assert lhs > rhs

    def test_rejects_excluded_mass(self):
        with pytest.raises(ModeNotExcludedError):
            wirtinger_gap(SupportFourier(1.0, ((2, 1.0, 0.0),)))
        with pytest.raises(ModeNotExcludedError):
            wirtinger_gap(SupportFourier(0.0, ((1, 0.1, 0.0),)))


class TestRandomCurve:
    def test_deterministic(self):
        spec = CurveEnsembleSpec(seed=1, count=10, K=5)
        assert random_curve(spec, 3) == random_curve(spec, 3)
        assert random_curve(spec, 3) != random_curve(spec, 4)

    def test_amplitude_bounds(self):
        spec = CurveEnsembleSpec(seed=7, count=50, K=6, amplitude_decay=1.5)
        for i in range(50):
            p = random_curve(spec, i)
            assert abs(p.a0) <= 1.0
            for k, a, b in p.modes:
                bound = (k + 1) ** -1.5
                assert abs(a) <= bound and abs(b) <= bound

    def test_zero_length_constraint(self):
        spec = CurveEnsembleSpec(seed=2, count=20, K=4,
                                 constraint=Constraint.ZERO_LENGTH)
        for i in range(20):
            assert algebraic_length(random_curve(spec, i)) == 0.0

    def test_positive_area_constraint(self):
        spec = CurveEnsembleSpec(seed=3, count=50, K=4,
                                 constraint=Constraint.POSITIVE_AREA)
        for i in range(50):
            assert algebraic_area(random_curve(spec, i)) > 0.01

    def test_convex_constraint(self):
        spec = CurveEnsembleSpec(seed=4, count=20, K=4,
                                 constraint=Constraint.CONVEX)
        for i in range(20):
            assert classify(random_curve(spec, i)).kind is CurveKind.CONVEX

    def test_index_range(self):
        spec = CurveEnsembleSpec(seed=1, count=3, K=2)
        with pytest.raises(ValueError):
            random_curve(spec, 3)


class TestEqualityFamily:
    def test_astroid_zero_length(self):
        p = equality_family(0.0, 0.0, 0.0, 1.0, 0.0)
        assert algebraic_length(p) == 0.0

    def test_circle(self):
        p = equality_family(1.5, 0.0, 0.0, 0.0, 0.0)
        assert p.modes == () and p.a0 == 1.5


class TestRunEnsemble:
    def test_standard_set_no_violations(self):
        spec = CurveEnsembleSpec(seed=42, count=200, K=8, amplitude_decay=1.5)
        checkers = [
            ("isoperimetric", check_isoperimetric),
            ("beta2_tau8", lambda m: check_beta2_family(m, 8.0)),
            ("grad_xi24", lambda m: check_grad_family(m, 24.0)),
            ("green_osher", green_osher_quadratic),
        ]
        for rep in run_ensemble(spec, checkers):
            assert rep.holds and rep.n_violations == 0
            assert rep.n_checked == 200
            assert rep.witness is not None

    def test_tau_above_8_finds_violation(self):
        # slack(tau) = pi sum (k^2-1)(k^2 - tau/2) c_k^2: any mode-2 mass
        # goes negative for tau > 8
        spec = CurveEnsembleSpec(seed=42, count=50, K=2)
        reports = run_ensemble(
            spec, [("beta2_tau8.5", lambda m: check_beta2_family(m, 8.5))])
        assert reports[0].n_violations >= 1
        assert not reports[0].holds
        assert reports[0].expected_violable


class TestFlowMonotonicity:
    def test_w_and_v_nonincreasing_along_length_flow(self):
        p = SupportFourier(2.0, ((2, 0.3, 1.0), (3, 0.2, -0.1)))
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, p, t_final=3.0,
                            dt=1e-2))
        ws, vs = [], []
        state_p = p
        from legendreflow import step_exact_modal, FlowState
        s = FlowState(0.0, p)
        for _ in range(300):
            ws.append(check_beta2_family(moments(s.p), 8.0).slack)
            vs.append(check_grad_family(moments(s.p), 24.0).slack)
            s = step_exact_modal(s, 1e-2, FlowType.LENGTH_PRESERVING)
        assert all(b - a <= 1e-12 for a, b in zip(ws, ws[1:]))
        assert all(b - a <= 1e-12 for a, b in zip(vs, vs[1:]))


@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_translation_invariance_of_slacks(da, db):
    p = SupportFourier(2.0, ((1, 0.2, -0.4), (2, 0.3, 1.0), (3, 0.1, 0.0)))
    a1, b1 = p.coeff(1)
    q = p.with_mode(1, a1 + da, b1 + db)
    assert check_beta2_family(moments(q), 8.0).slack == \
        check_beta2_family(moments(p), 8.0).slack
    assert check_grad_family(moments(q), 24.0).slack == \
        check_grad_family(moments(p), 24.0).slack
    assert green_osher_quadratic(moments(q)).slack == \
        green_osher_quadratic(moments(p)).slack
    assert isoperimetric_deficit(q) == isoperimetric_deficit(p)


def test_sharpness_characterization(rng):
    # slack(tau=8) < 1e-10 iff no mass above mode 2
    spec = CurveEnsembleSpec(seed=9, count=100, K=8)
    for i in range(100):
        p = random_curve(spec, i)
        slack = check_beta2_family(moments(p), 8.0).slack
        high = max((max(abs(a), abs(b)) for k, a, b in p.modes if k >= 3),
                   default=0.0)
        if slack < 1e-10:
            assert high < 1e-6
        if high >= 1e-3:
            assert slack > 1e-10
