import math

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from legendreflow import (Constraint, CurveEnsembleSpec, DegenerateLengthError,
                          FlowConfig, FlowState, FlowType, GridFunction,
                          InputError, Scheme, StabilityError, SupportFourier,
                          algebraic_area, algebraic_length, beta_of,
                          derivative, diagnostics, ell_convex_residuals,
                          fit_decay_rate, grid_stability_bound, lambda_area,
                          moments, periodic_quadrature, random_curve, run,
                          sample_points, step_exact_modal, step_grid_rk4,
                          steiner_point, synthesize)
from legendreflow.flows import GridFlowState

TWO_PI = 2.0 * math.pi
AREA = FlowType.AREA_PRESERVING
P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))
P_FIG_C = SupportFourier(0.5, ((2, 0.0, 1.0),))      # A = -5 pi / 4
P_ZERO_L = SupportFourier(0.0, ((1, 2.0, 1.0), (2, 2.0, 1.0)))


class TestLambdas:
    def test_lambda_length(self):
        # lambda = L/(2*pi) is a0 under the length-preserving flow
        for p in (P_FIG_A, SupportFourier(0.0, ((2, 1, 1),))):
            row = diagnostics(FlowState(0.0, p), FlowType.LENGTH_PRESERVING,
                              64)
            assert row.lam == p.a0

    def test_lambda_area_circle(self):
        for r in (0.5, 2.0):
            m = moments(SupportFourier(r))
            assert lambda_area(m.L, m.int_b2, 0.0) == pytest.approx(r)

    def test_lambda_area_fig_a_with_quadrature_oracle(self):
        m = moments(P_FIG_A)
        lam = lambda_area(m.L, m.int_b2, 0.0)
        assert lam == pytest.approx(17 / 4, abs=1e-12)
        beta = synthesize(beta_of(P_FIG_A), 1024).values
        oracle = periodic_quadrature(GridFunction(beta * beta)) / (4 * math.pi)
        assert lam == pytest.approx(oracle, abs=1e-12)

    def test_lambda_area_degenerate(self):
        m = moments(SupportFourier(0.0, ((1, 2.0, 1.0),)))
        with pytest.raises(DegenerateLengthError, match="at t = 0.5"):
            lambda_area(m.L, m.int_b2, 0.5)


def _mp_reference(p: SupportFourier, flow_type: FlowType, t: float):
    """(a0(t), {k: (a_k(t), b_k(t))}) at mpmath's working precision, after
    checking a0 against da0/dt = a0 - lambda, lambda = int beta^2 / L by
    Parseval, with mpmath's numerical derivative."""
    mp = mpmath.mp
    t = mp.mpf(t)
    energy = [(1 - k * k, mp.mpf(a) ** 2 + mp.mpf(b) ** 2)
              for k, a, b in p.modes if k >= 2]

    def a0(s):
        if flow_type is FlowType.LENGTH_PRESERVING:
            return mp.mpf(p.a0)
        return mpmath.sign(p.a0) * mpmath.sqrt(mp.mpf(p.a0) ** 2 + sum(
            f * e * (1 - mpmath.exp(2 * f * s)) for f, e in energy) / 2)

    if flow_type is FlowType.LENGTH_PRESERVING:
        lam = a0(t)
    else:
        lam = (2 * mp.pi * a0(t) ** 2 + mp.pi * sum(
            f * f * e * mpmath.exp(2 * f * t) for f, e in energy)) \
            / (2 * mp.pi * a0(t))
    assert abs(mpmath.diff(a0, t) - (a0(t) - lam)) < mp.mpf(10) ** -40
    return a0(t), {k: (mp.mpf(a) * mpmath.exp((1 - k * k) * t),
                       mp.mpf(b) * mpmath.exp((1 - k * k) * t))
                   for k, a, b in p.modes}


class TestStepExactModal:
    def test_length_step_exact_factors(self):
        s = step_exact_modal(FlowState(0.0, P_FIG_A), 1.0,
                             FlowType.LENGTH_PRESERVING)
        assert s.p.a0 == 2.0
        assert s.p.coeff(2) == pytest.approx((0.0, math.exp(-3)), rel=1e-15)

    def test_mode2_rate(self):
        for ft in FlowType:
            s = step_exact_modal(FlowState(0.0, P_FIG_A), 0.5, ft)
            assert math.log(s.p.coeff(2)[1]) / 0.5 == pytest.approx(-3.0,
                                                                    rel=1e-14)

    def test_mode1_bit_identical(self):
        p = SupportFourier(1.0, ((1, 0.7, -0.2), (2, 0.1, 0.0)))
        for ft in FlowType:
            s = step_exact_modal(FlowState(0.0, p), 0.5, ft)
            assert s.p.coeff(1) == (0.7, -0.2)

    def test_a0_rate_vs_quadrature_oracle(self):
        # da0/dt is the mean of f = beta - lambda over the circle, with beta
        # sampled and lambda integrated on N = 1024 points
        h = 1e-4
        for ft in FlowType:
            def a0(t):
                return step_exact_modal(FlowState(0.0, P_FIG_A), t, ft).p.a0
            rate = (a0(0.5 + h) - a0(0.5 - h)) / (2 * h)
            p = step_exact_modal(FlowState(0.0, P_FIG_A), 0.5, ft).p
            beta = synthesize(beta_of(p), 1024).values
            L = periodic_quadrature(synthesize(p, 1024))
            lam = L / TWO_PI if ft is FlowType.LENGTH_PRESERVING else \
                periodic_quadrature(GridFunction(beta * beta)) / L
            oracle = periodic_quadrature(GridFunction(beta - lam)) / TWO_PI
            assert rate == pytest.approx(oracle, abs=1e-7)

    def test_matches_mpmath(self):
        spec = CurveEnsembleSpec(seed=3, count=1, K=16,
                                 constraint=Constraint.CONVEX)
        for p in (P_FIG_A, random_curve(spec, 0)):
            for ft in FlowType:
                for t in (0.05, 1.0):
                    got = step_exact_modal(FlowState(0.0, p), t, ft).p
                    with mpmath.workdps(50):
                        a0, modes = _mp_reference(p, ft, t)
                        assert abs(got.a0 - a0) <= 1e-14 * abs(a0)
                        for k, a, b in got.modes:
                            ref_a, ref_b = modes[k]
                            assert abs(a - ref_a) <= 1e-14 * abs(ref_a)
                            assert abs(b - ref_b) <= 1e-14 * abs(ref_b)

    def test_circle_fixed_point(self):
        circle = FlowState(0.0, SupportFourier(1.5))
        for ft in FlowType:
            s = step_exact_modal(circle, 0.25, ft)
            assert s.p.a0 == pytest.approx(1.5, abs=1e-14)
            assert s.p.modes == ()

    def test_area_preserved_per_step(self):
        a0 = algebraic_area(P_FIG_A)
        state = FlowState(0.0, P_FIG_A)
        for _ in range(20):
            state = step_exact_modal(state, 1e-2, AREA)
            assert algebraic_area(state.p) == pytest.approx(a0, rel=1e-13)

    def test_area_flow_past_blow_up_raises(self):
        # a0(t)^2 = 1/4 - (3/2)(1 - e^{-6t}) is 0 at t = ln(1.2)/6 ~ 0.0304
        start = FlowState(0.0, P_FIG_C)
        s = step_exact_modal(start, 0.03, AREA)
        assert s.p.a0 == pytest.approx(
            math.sqrt(0.25 - 1.5 * (1.0 - math.exp(-0.18))), rel=1e-12)
        with pytest.raises(DegenerateLengthError):
            step_exact_modal(start, 0.1, AREA)


class TestStepGridRK4:
    def test_circle_fixed_point(self):
        g = GridFlowState(0.0, synthesize(SupportFourier(1.5), 64), 1)
        for ft in FlowType:
            s = step_grid_rk4(g, 1e-2, ft)
            assert np.max(np.abs(s.grid.values - 1.5)) < 1e-13

    def test_mode3_decay_rate(self):
        p = SupportFourier(1.0, ((3, 0.1, 0.0),))
        cfg = FlowConfig(FlowType.LENGTH_PRESERVING, p, t_final=0.5, dt=1e-3,
                         scheme=Scheme.GRID_RK4, grid_n=64, record_every=500)
        tr = run(cfg)
        a3, b3 = tr.final_state.p.coeff(3)
        assert math.hypot(a3, b3) == pytest.approx(0.1 * math.exp(-8 * 0.5),
                                                   abs=1e-6)

    def test_area_flow_length_floor(self):
        g = GridFlowState(0.25, synthesize(P_ZERO_L, 64), 2)
        step_grid_rk4(g, 1e-2, FlowType.LENGTH_PRESERVING)
        with pytest.raises(DegenerateLengthError, match="at t = 0.25"):
            step_grid_rk4(g, 1e-2, AREA)

    def test_stability_error(self):
        p = SupportFourier(1.0, ((8, 0.1, 0.0),))
        g = GridFlowState(0.0, synthesize(p, 64), 8)
        assert grid_stability_bound(8) == pytest.approx(1 / 65)
        with pytest.raises(StabilityError):
            step_grid_rk4(g, 0.1, FlowType.LENGTH_PRESERVING)

    def test_cross_scheme_agreement(self):
        theta = np.linspace(0, TWO_PI, 256, endpoint=False)
        for ft in FlowType:
            tm = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3,
                                record_every=1000))
            tg = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3,
                                scheme=Scheme.GRID_RK4, grid_n=256,
                                record_every=1000))
            dp = np.abs(tm.final_state.p.evaluate(theta)
                        - tg.final_state.p.evaluate(theta))
            assert np.max(dp) < 1e-8

    @given(st.integers(0, 2**32 - 1), st.integers(1, 8),
           st.sampled_from(list(FlowType)))
    @settings(max_examples=12, deadline=None)
    def test_closed_form_matches_grid_on_convex_curves(self, seed, K, ft):
        spec = CurveEnsembleSpec(seed, 1, K, constraint=Constraint.CONVEX)
        p = random_curve(spec, 0)
        modal, grid = (run(FlowConfig(ft, p, t_final=0.2, dt=1e-3, scheme=s,
                                      record_every=200)).final_state.p
                       for s in (Scheme.EXACT_MODAL, Scheme.GRID_RK4))
        assert abs(modal.a0 - grid.a0) < 1e-8
        for k in range(1, K + 1):
            assert np.allclose(modal.coeff(k), grid.coeff(k), rtol=0, atol=1e-8)


class TestRun:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=1.0, dt=2.0)
        with pytest.raises(ValueError, match="whole number of steps"):
            FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=1.0,
                       dt=0.4)
        FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=0.3, dt=1e-3)
        for bad in (dict(t_final=math.nan), dict(t_final=math.inf),
                    dict(dt=math.nan), dict(grid_n=0),
                    dict(stop_sup_dev=math.inf), dict(stop_sup_dev=math.nan),
                    dict(stop_sup_dev=-1.0)):
            with pytest.raises(InputError):
                FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, **bad)
        with pytest.raises(DegenerateLengthError):
            FlowConfig(FlowType.AREA_PRESERVING, P_ZERO_L)

    def test_length_preserving_run(self):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                            t_final=6.0, dt=1e-2))
        Ls = [r.L for r in tr.rows]
        As = [r.A for r in tr.rows]
        assert all(abs(L - 4 * math.pi) < 1e-12 for L in Ls)
        assert all(b - a >= -1e-12 for a, b in zip(As, As[1:]))
        assert As[-1] == pytest.approx(4 * math.pi, abs=1e-6)  # circle r = 2
        ts = [r.t for r in tr.rows]
        assert all(b > a for a, b in zip(ts, ts[1:]))

    def test_area_preserving_run(self):
        tr = run(FlowConfig(FlowType.AREA_PRESERVING, P_FIG_A,
                            t_final=6.0, dt=1e-3, record_every=10))
        a0 = 5 * math.pi / 2
        assert all(abs(r.A - a0) / a0 < 1e-8 for r in tr.rows)
        Ls = [r.L for r in tr.rows]
        assert all(b - a <= 1e-12 for a, b in zip(Ls, Ls[1:]))
        assert tr.final_state.p.a0 == pytest.approx(math.sqrt(2.5), abs=1e-6)
        assert all(r.Q <= 1e-9 for r in tr.rows)

    def test_area_drift_round_off_over_convex_ensemble(self):
        spec = CurveEnsembleSpec(seed=7, count=8, K=32,
                                 constraint=Constraint.CONVEX)
        for i in range(spec.count):
            tr = run(FlowConfig(AREA, random_curve(spec, i), t_final=30.0,
                                dt=1e-2, record_every=10))
            A0 = tr.rows[0].A
            assert len(tr.rows) == 301
            assert max(abs(r.A - A0) for r in tr.rows) <= 1e-13 * abs(A0)

    def test_zero_length_collapse_to_steiner_point(self):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_ZERO_L,
                            t_final=6.0, dt=1e-2, record_every=100))
        theta = np.linspace(0, TWO_PI, 512, endpoint=False)
        pts = sample_points(tr.final_state.p, theta)
        assert np.max(np.hypot(pts[:, 0] - 2.0, pts[:, 1] - 1.0)) < 1e-6

    def test_early_stop(self):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                            t_final=6.0, dt=1e-2, stop_sup_dev=1e-3))
        assert tr.converged
        assert tr.rows[-1].t < 6.0
        assert tr.rows[-1].sup_dev < 1e-3

    def test_deficit_nonincreasing_to_zero(self):
        for ft, p in ((FlowType.LENGTH_PRESERVING, P_FIG_A),
                      (FlowType.AREA_PRESERVING, P_FIG_A)):
            tr = run(FlowConfig(ft, p, t_final=6.0, dt=1e-2, record_every=10))
            us = [r.deficit for r in tr.rows]
            assert all(b - a <= 1e-9 for a, b in zip(us, us[1:]))
            assert us[-1] == pytest.approx(0.0, abs=1e-6)

    def test_steiner_invariance(self):
        p = SupportFourier(2.0, ((1, 0.7, -0.3), (2, 0.0, 1.0)))
        tm = run(FlowConfig(FlowType.AREA_PRESERVING, p, t_final=1.0, dt=1e-3,
                            record_every=1000))
        assert tm.final_state.p.coeff(1) == (0.7, -0.3)  # bit-identical
        tg = run(FlowConfig(FlowType.LENGTH_PRESERVING, p, t_final=1.0,
                            dt=1e-3, scheme=Scheme.GRID_RK4, grid_n=256,
                            record_every=1000))
        assert tg.final_state.p.coeff(1) == pytest.approx((0.7, -0.3),
                                                          abs=1e-10)

    def test_conservation_grid_scheme(self):
        tg = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=1.0,
                            dt=1e-3, scheme=Scheme.GRID_RK4, grid_n=256,
                            record_every=100))
        assert all(abs(r.L - 4 * math.pi) < 1e-8 for r in tg.rows)

    def test_beta_mode1_null_along_flow(self):
        p = SupportFourier(2.0, ((1, 0.7, -0.3), (2, 0.0, 1.0), (3, 0.2, 0.1)))
        state = FlowState(0.0, p)
        for _ in range(10):
            state = step_exact_modal(state, 0.05, FlowType.LENGTH_PRESERVING)
            beta = beta_of(state.p)
            assert beta.coeff(1) == (0.0, 0.0)

    def test_derivative_orthogonality_along_flow(self):
        # int beta^(i) cos = int beta^(i) sin = 0 for i = 1, 2 at all times
        p = SupportFourier(2.0, ((1, 0.5, 0.5), (2, 0.3, 1.0), (4, 0.1, -0.2)))
        state = FlowState(0.0, p)
        for _ in range(8):
            state = step_exact_modal(state, 0.1, FlowType.LENGTH_PRESERVING)
            beta = beta_of(state.p)
            for order in (1, 2):
                g = synthesize(derivative(beta, order), 64)
                rc, rs = ell_convex_residuals(g)
                assert abs(rc) < 1e-10 and abs(rs) < 1e-10

    def test_evolution_equation_consistency(self):
        # dL/dt and dA/dt from the trace vs the exact identities
        # int f = L - 2 pi lambda and int beta f = int beta^2 - lambda L
        for ft in FlowType:
            tr = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3))
            rows = tr.rows
            dt = rows[1].t - rows[0].t
            for i in range(1, len(rows) - 1, 37):
                r = rows[i]
                int_b2 = r.L * r.L / TWO_PI - r.Q
                dL = (rows[i + 1].L - rows[i - 1].L) / (2 * dt)
                dA = (rows[i + 1].A - rows[i - 1].A) / (2 * dt)
                int_f = r.L - TWO_PI * r.lam
                int_bf = int_b2 - r.lam * r.L
                assert dL == pytest.approx(int_f, rel=1e-4, abs=1e-10)
                assert dA == pytest.approx(int_bf, rel=1e-4, abs=1e-10)


class TestFits:
    def test_sup_dev_rate(self):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                            t_final=6.0, dt=1e-2))
        fit = fit_decay_rate(tr, "sup_dev", (0.5, 4.0))
        assert 2.99 <= fit["alpha"] <= 3.01
        assert fit["r2"] > 0.999

    def test_absQ_rate(self):
        tr = run(FlowConfig(FlowType.AREA_PRESERVING, P_FIG_A,
                            t_final=6.0, dt=1e-3, record_every=10))
        fit = fit_decay_rate(tr, "absQ", (0.5, 4.0))
        assert 5.9 <= fit["alpha"] <= 6.1

    def test_noise_floor_rejected(self):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                            t_final=12.0, dt=1e-2))
        with pytest.raises(ValueError):
            fit_decay_rate(tr, "sup_dev", (10.0, 12.0))

    def test_unknown_field(self):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                            t_final=1.0, dt=1e-2))
        with pytest.raises(ValueError):
            fit_decay_rate(tr, "bogus", (0.0, 1.0))


class TestLimitCircle:
    def test_converged(self):
        # area flow: a circle of radius sqrt(A0/pi) about the Steiner point
        tr = run(FlowConfig(FlowType.AREA_PRESERVING, P_FIG_A, t_final=6.0,
                            dt=1e-3, record_every=100))
        p = tr.final_state.p
        assert p.a0 == pytest.approx(
            math.sqrt(algebraic_area(P_FIG_A) / math.pi), abs=1e-6)
        assert steiner_point(p) == (0.0, 0.0)
        assert tr.rows[-1].max_abs_mode < 1e-6
        # length flow: a circle of radius L0/(2*pi)
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=6.0,
                            dt=1e-3, record_every=100))
        assert tr.final_state.p.a0 == algebraic_length(P_FIG_A) / TWO_PI
        assert tr.rows[-1].max_abs_mode < 1e-6
