import math

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from legendreflow import (CurveKind, SingularPointError, SupportFourier,
                          algebraic_area, algebraic_length, beta_of, classify,
                          curvature_at, ell_convex_residuals, eval_point,
                          sample_points, singular_angles, steiner_point,
                          analyze, synthesize)
from conftest import area_quadrature, length_quadrature, rand_support

TWO_PI = 2.0 * math.pi

P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))        # 2 + sin 2theta
P_FIG_B = SupportFourier(math.sqrt(1.5), ((2, 0.0, 1.0),))
P_FIG_C = SupportFourier(0.5, ((2, 0.0, 1.0),))
P_NEG = SupportFourier(0.0, ((1, 2.0, 1.0), (2, 2.0, 1.0)))

coeff = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


@st.composite
def supports(draw, max_k: int = 6):
    k_max = draw(st.integers(1, max_k))
    a0 = draw(coeff)
    modes = tuple((k, draw(coeff), draw(coeff)) for k in range(1, k_max + 1))
    return SupportFourier(a0, modes)


class TestSupportFourier:
    def test_rejects_duplicate_modes(self):
        with pytest.raises(ValueError):
            SupportFourier(0.0, ((2, 1.0, 0.0), (2, 0.0, 1.0)))

    def test_rejects_mode_zero(self):
        with pytest.raises(ValueError):
            SupportFourier(0.0, ((0, 1.0, 0.0),))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SupportFourier(math.nan)

    def test_modes_sorted(self):
        p = SupportFourier(1.0, ((3, 1.0, 0.0), (1, 0.0, 1.0)))
        assert [k for k, _, _ in p.modes] == [1, 3]
        assert p.K == 3


class TestEvalPoint:
    def test_unit_circle(self):
        assert eval_point(SupportFourier(1.0), 0.0) == (1.0, 0.0)

    def test_fig_a_at_zero_with_fd_oracle(self):
        # p(0) = 2, p'(0) by central difference
        h = 1e-6
        dp = (P_FIG_A.evaluate(h) - P_FIG_A.evaluate(-h)) / (2 * h)
        pt = eval_point(P_FIG_A, 0.0)
        assert pt.x == pytest.approx(P_FIG_A.evaluate(0.0), abs=1e-12)
        assert pt.y == pytest.approx(dp, abs=1e-8)
        assert pt == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_pure_mode_one_is_a_point(self):
        p = SupportFourier(0.0, ((1, 3.0, -1.5),))
        for th in np.linspace(0, TWO_PI, 17):
            assert eval_point(p, th) == pytest.approx((3.0, -1.5), abs=1e-12)

    def test_periodic(self):
        for th in (0.3, 1.7, 5.0):
            a = eval_point(P_FIG_A, th)
            b = eval_point(P_FIG_A, th + TWO_PI)
            assert a == pytest.approx(b, abs=1e-12)

    def test_legendrian_condition_and_speed(self, rng):
        # <gamma', nu> = 0 and |gamma'| = |beta| with gamma' by spectral
        # differentiation of the sampled coordinates
        n = 256
        theta = np.linspace(0, TWO_PI, n, endpoint=False)
        for _ in range(5):
            p = rand_support(rng, K=5)
            pts = sample_points(p, theta)
            k = np.fft.rfftfreq(n, d=1.0 / n)
            dx = np.fft.irfft(1j * k * np.fft.rfft(pts[:, 0]), n)
            dy = np.fft.irfft(1j * k * np.fft.rfft(pts[:, 1]), n)
            nu_dot = dx * np.cos(theta) + dy * np.sin(theta)
            assert np.max(np.abs(nu_dot)) < 1e-9
            beta = beta_of(p).evaluate(theta)
            assert np.max(np.abs(np.hypot(dx, dy) - np.abs(beta))) < 1e-9


class TestBeta:
    def test_circle(self):
        b = beta_of(SupportFourier(3.0))
        assert b.a0 == 3.0 and b.modes == ()

    def test_fig_a_with_fd_oracle(self):
        b = beta_of(P_FIG_A)
        assert b.coeff(2) == (0.0, -3.0)
        h = 1e-4
        for th in (0.0, 0.9, 2.5):
            pdd = (P_FIG_A.evaluate(th + h) - 2 * P_FIG_A.evaluate(th)
                   + P_FIG_A.evaluate(th - h)) / h ** 2
            assert b.evaluate(th) == pytest.approx(
                P_FIG_A.evaluate(th) + pdd, abs=1e-6)

    def test_mode_one_annihilated(self):
        b = beta_of(SupportFourier(0.0, ((1, 1.0, 5.0),)))
        assert b.a0 == 0.0 and b.modes == ()


class TestLengthArea:
    def test_length_values(self):
        assert algebraic_length(P_FIG_A) == pytest.approx(4 * math.pi)
        assert algebraic_length(SupportFourier(0.0, ((1, 1.0, 2.0),))) == 0.0
        assert algebraic_length(SupportFourier(0.0)) == 0.0

    def test_area_reference_values(self):
        assert algebraic_area(P_FIG_A) == pytest.approx(5 * math.pi / 2, abs=1e-12)
        assert algebraic_area(P_FIG_B) == pytest.approx(0.0, abs=1e-12)
        assert algebraic_area(P_FIG_C) == pytest.approx(-5 * math.pi / 4, abs=1e-12)
        assert algebraic_area(P_NEG) == pytest.approx(-15 * math.pi / 2, abs=1e-12)

    def test_quadrature_agreement(self, rng):
        for _ in range(20):
            p = rand_support(rng, K=int(rng.integers(1, 17)))
            assert algebraic_length(p) == pytest.approx(
                length_quadrature(p), abs=1e-10)
            assert algebraic_area(p) == pytest.approx(
                area_quadrature(p), abs=1e-10)

    @given(supports())
    @settings(max_examples=60, deadline=None)
    def test_sign_flip(self, p):
        neg = SupportFourier(-p.a0, tuple((k, -a, -b) for k, a, b in p.modes))
        assert algebraic_length(neg) == pytest.approx(-algebraic_length(p),
                                                      abs=1e-12)
        assert algebraic_area(neg) == pytest.approx(algebraic_area(p),
                                                    rel=1e-12, abs=1e-12)


class TestSteiner:
    def test_values(self):
        assert steiner_point(SupportFourier(2.0)) == (0.0, 0.0)
        p = SupportFourier(0.0, ((1, 3.0, -1.0), (2, 0.0, 1.0)))
        assert steiner_point(p) == (3.0, -1.0)

    def test_dft_round_trip(self, rng):
        p = rand_support(rng, K=8)
        q = analyze(synthesize(p, 64), 8)
        assert steiner_point(q) == pytest.approx(steiner_point(p), abs=1e-12)


class TestCurvature:
    def test_circle(self):
        for r in (0.5, 1.0, 3.0):
            assert curvature_at(SupportFourier(r), 1.2) == pytest.approx(1 / r)

    def test_fig_a_with_fd_oracle(self):
        assert curvature_at(P_FIG_A, 0.0) == pytest.approx(0.5, abs=1e-12)
        # oracle: finite-difference curvature of the sampled curve
        h = 1e-4
        th = 0.0
        pts = sample_points(P_FIG_A, np.array([th - h, th, th + h]))
        d = (pts[2] - pts[0]) / (2 * h)
        dd = (pts[2] - 2 * pts[1] + pts[0]) / h ** 2
        kappa = abs(d[0] * dd[1] - d[1] * dd[0]) / np.hypot(*d) ** 3
        assert curvature_at(P_FIG_A, th) == pytest.approx(kappa, abs=1e-6)

    def test_singular_error(self):
        with pytest.raises(SingularPointError):
            curvature_at(SupportFourier(0.0, ((1, 1.0, 0.0),)), 0.7)


class TestSingularAngles:
    def test_circle_empty(self):
        assert singular_angles(SupportFourier(1.0)) == []

    def test_sin2theta(self):
        roots = singular_angles(SupportFourier(0.0, ((2, 0.0, 1.0),)))
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert len(roots) == 4
        assert roots == pytest.approx(expected, abs=1e-9)

    def test_fig_a_analytic_roots(self):
        # beta = 2 - 3 sin 2theta: four roots of sin 2theta = 2/3
        roots = singular_angles(P_FIG_A, n=64)
        phi = math.asin(2 / 3)
        expected = sorted([phi / 2, (math.pi - phi) / 2,
                           phi / 2 + math.pi, (math.pi - phi) / 2 + math.pi])
        assert roots == pytest.approx(expected, abs=1e-10)
        beta = beta_of(P_FIG_A)
        assert all(abs(beta.evaluate(r)) < 1e-10 for r in roots)

    def test_grid_too_coarse(self):
        with pytest.raises(ValueError):
            singular_angles(P_FIG_A, n=8)


class TestClassify:
    def test_convex(self):
        cls = classify(SupportFourier(3.0, ((1, 1.0, 0.0),)))
        assert cls.kind is CurveKind.CONVEX
        assert cls.min_beta == pytest.approx(3.0)

    def test_nonconvex(self):
        cls = classify(P_FIG_A)
        assert cls.kind is CurveKind.ELL_CONVEX_NONCONVEX
        assert cls.min_beta == pytest.approx(-1.0)

    def test_degenerate_point(self):
        cls = classify(SupportFourier(0.0, ((1, 1.0, 1.0),)))
        assert cls.kind is CurveKind.DEGENERATE_POINT


class TestEllConvexResiduals:
    def test_any_beta_is_clean(self, rng):
        p = rand_support(rng, K=6)
        g = synthesize(beta_of(p), 64)
        rc, rs = ell_convex_residuals(g)
        assert abs(rc) < 1e-12 and abs(rs) < 1e-12

    def test_cos_theta_flags(self):
        theta = np.linspace(0, TWO_PI, 64, endpoint=False)
        rc, rs = ell_convex_residuals(np.cos(theta))
        assert rc == pytest.approx(math.pi, abs=1e-12)
        assert rs == pytest.approx(0.0, abs=1e-12)

    def test_constant(self):
        rc, rs = ell_convex_residuals(np.full(32, 7.0))
        assert abs(rc) < 1e-12 and abs(rs) < 1e-12

    def test_too_small_grid(self):
        with pytest.raises(ValueError):
            ell_convex_residuals(np.ones(4))


class TestModeOneInvisibility:
    @given(supports(), coeff, coeff)
    @settings(max_examples=60, deadline=None)
    def test_invariants_blind_to_mode_one(self, p, da, db):
        a1, b1 = p.coeff(1)
        q = p.with_mode(1, a1 + da, b1 + db)
        assert algebraic_length(q) == algebraic_length(p)
        assert algebraic_area(q) == algebraic_area(p)
        assert beta_of(q) == beta_of(p)
        assert classify(q).kind == classify(p).kind or \
            classify(p).kind is CurveKind.DEGENERATE_POINT

    @given(supports(), coeff, coeff, st.floats(0, TWO_PI))
    @settings(max_examples=60, deadline=None)
    def test_eval_point_translates(self, p, da, db, th):
        a1, b1 = p.coeff(1)
        q = p.with_mode(1, a1 + da, b1 + db)
        base = eval_point(p, th)
        moved = eval_point(q, th)
        assert moved.x - base.x == pytest.approx(da, abs=1e-9)
        assert moved.y - base.y == pytest.approx(db, abs=1e-9)
