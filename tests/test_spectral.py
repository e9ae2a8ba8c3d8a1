import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from legendreflow import (AliasError, DegenerateLengthError, FlowState,
                          FlowType, GridFunction, NotZeroLengthError,
                          SupportFourier, algebraic_area, algebraic_length,
                          analyze, beta_of, check_beta2_family,
                          check_beta2_zero_length, check_grad_family,
                          check_isoperimetric, default_grid_size, derivative,
                          diagnostics, green_osher_quadratic,
                          isoperimetric_deficit, l2_quantities, lambda_area,
                          moments, periodic_quadrature, synthesize,
                          uniform_grid)
from legendreflow.flows import LAMBDA_FLOOR
from conftest import rand_support, supports

TWO_PI = 2.0 * math.pi


class TestGridFunction:
    def test_requires_power_of_two(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(12))

    def test_requires_min_size(self):
        with pytest.raises(ValueError):
            GridFunction(np.zeros(4))

    def test_immutable(self):
        g = GridFunction(np.zeros(8))
        with pytest.raises(ValueError):
            g.values[0] = 1.0


class TestSynthesize:
    def test_constant(self):
        g = synthesize(SupportFourier(1.0), 8)
        assert np.all(g.values == 1.0)

    def test_sin2_pattern(self):
        g = synthesize(SupportFourier(0.0, ((2, 0.0, 1.0),)), 8)
        assert g.values == pytest.approx([0, 1, 0, -1, 0, 1, 0, -1], abs=1e-15)

    def test_alias_error(self):
        with pytest.raises(AliasError):
            synthesize(SupportFourier(0.0, ((4, 1.0, 0.0),)), 8)


class TestAnalyze:
    def test_constant(self):
        p = analyze(GridFunction(np.full(16, 3.5)), 4)
        assert p.a0 == pytest.approx(3.5)
        assert all(abs(a) < 1e-14 and abs(b) < 1e-14 for _, a, b in p.modes)

    def test_cos3_orthogonality(self):
        theta = np.linspace(0, TWO_PI, 16, endpoint=False)
        p = analyze(GridFunction(np.cos(3 * theta)), 4)
        assert p.coeff(3) == pytest.approx((1.0, 0.0), abs=1e-14)
        assert abs(p.a0) < 1e-14
        for k in (1, 2, 4):
            assert p.coeff(k) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_round_trip(self, rng):
        for _ in range(10):
            p = rand_support(rng, K=int(rng.integers(1, 17)))
            q = analyze(synthesize(p, 64), p.K)
            assert q.a0 == pytest.approx(p.a0, abs=1e-13)
            for k in range(1, p.K + 1):
                assert q.coeff(k) == pytest.approx(p.coeff(k), abs=1e-13)

    def test_alias_error(self):
        with pytest.raises(AliasError):
            analyze(GridFunction(np.zeros(8)), 4)


class TestDerivative:
    def test_constant_dies(self):
        d = derivative(SupportFourier(5.0))
        assert d.a0 == 0.0 and d.modes == ()

    def test_sin_to_cos(self):
        d = derivative(SupportFourier(0.0, ((2, 0.0, 1.0),)))
        assert d.coeff(2) == (2.0, 0.0)

    def test_second_derivative_eigenvalue(self):
        p = SupportFourier(0.0, ((3, 1.5, -0.5),))
        d2 = derivative(p, order=2)
        assert d2.coeff(3) == pytest.approx((-9 * 1.5, -9 * -0.5))

    def test_commutes_with_synthesis(self, rng):
        # spectral derivative vs centered finite difference on a fine grid
        p = rand_support(rng, K=6)
        n = 4096
        g = synthesize(p, n).values
        h = TWO_PI / n
        fd = (np.roll(g, -1) - np.roll(g, 1)) / (2 * h)
        exact = synthesize(derivative(p), n).values
        # centered FD truncation is O(h^2) with h = 2pi/4096
        assert np.max(np.abs(fd - exact)) < 5e-4


class TestQuadrature:
    def test_constant(self):
        assert periodic_quadrature(GridFunction(np.ones(32))) == \
            pytest.approx(TWO_PI)

    def test_cos_squared(self):
        theta = np.linspace(0, TWO_PI, 16, endpoint=False)
        q = periodic_quadrature(GridFunction(np.cos(theta) ** 2))
        assert q == pytest.approx(math.pi, abs=1e-14)

    def test_sin3_vanishes(self):
        theta = np.linspace(0, TWO_PI, 16, endpoint=False)
        q = periodic_quadrature(GridFunction(np.sin(3 * theta)))
        assert abs(q) < 1e-14


class TestL2Quantities:
    def test_constant(self):
        q = l2_quantities(SupportFourier(1.0))
        assert q["int_p2"] == pytest.approx(TWO_PI)
        assert q["int_dp2"] == 0.0

    def test_sin2(self):
        q = l2_quantities(SupportFourier(0.0, ((2, 0.0, 1.0),)))
        assert q["int_p2"] == pytest.approx(math.pi)
        assert q["int_dp2"] == pytest.approx(4 * math.pi)

    def test_parseval_vs_quadrature(self, rng):
        for _ in range(10):
            p = rand_support(rng, K=int(rng.integers(1, 17)))
            q = l2_quantities(p)
            g = synthesize(p, 256).values
            dg = synthesize(derivative(p), 256).values
            assert q["int_p2"] == pytest.approx(
                periodic_quadrature(GridFunction(g * g)), abs=1e-10)
            assert q["int_dp2"] == pytest.approx(
                periodic_quadrature(GridFunction(dg * dg)), abs=1e-10)


def reference_slacks(p: SupportFourier, tau: float, xi: float) -> dict:
    """The six slacks written straight from p, beta rebuilt for each."""
    q = l2_quantities(beta_of(p))
    int_b2, int_db2 = q["int_p2"], q["int_dp2"]
    L = algebraic_length(p)
    A = algebraic_area(p)
    return {
        "isoperimetric": isoperimetric_deficit(p),
        "beta2_family": int_b2 - 2.0 * A - tau * (L * L / (4.0 * math.pi) - A),
        "beta2_zero_length": int_b2 + tau * algebraic_area(p),
        "grad_family": int_db2 - xi * (L * L / (4.0 * math.pi) - A),
        "grad_zero_length": int_db2 + xi * A,
        "green_osher_quadratic": int_b2 - (L * L - TWO_PI * A) / math.pi,
    }


def reference_row_fields(p: SupportFourier, flow_type: FlowType,
                      grid_n: int) -> dict:
    """The diagnostics fields that read the moments, written straight from p,
    with beta rebuilt for lambda."""
    L = algebraic_length(p)
    A = algebraic_area(p)
    beta = beta_of(p)
    q = l2_quantities(beta)
    int_b2, e1 = q["int_p2"], q["int_dp2"]
    lam = p.a0 if flow_type is FlowType.LENGTH_PRESERVING \
        else l2_quantities(beta_of(p))["int_p2"] / algebraic_length(p)
    return {
        "L": L, "A": A, "Q": L * L / TWO_PI - int_b2, "E1": e1, "lam": lam,
        "E2": l2_quantities(derivative(beta))["int_dp2"],
        "sup_dev": float(np.max(np.abs(
            beta.evaluate(uniform_grid(grid_n)) - L / TWO_PI))),
    }


@st.composite
def near_zero_area(draw):
    """A support function whose a0 is solved so that |A| <= 1e-3."""
    p = draw(supports())
    target = draw(st.floats(-1e-3, 1e-3))
    # A = pi*(a0^2 - s) with s = (1/2) sum_{k>=2} (k^2 - 1) c_k^2 >= 0
    s = 0.5 * sum((k * k - 1) * (a * a + b * b) for k, a, b in p.modes)
    a0 = math.sqrt(max(s + target / math.pi, 0.0))
    return SupportFourier(draw(st.sampled_from([a0, -a0])), p.modes)


class TestMoments:
    @given(supports(), st.booleans(), st.floats(-30, 30), st.floats(-30, 30))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_expressions_bit_for_bit(
            self, p, zero_length, tau, xi):
        if zero_length:
            p = SupportFourier(0.0, p.modes)
        m = moments(p)
        ref = reference_slacks(p, tau, xi)
        reps = [check_isoperimetric(m), check_beta2_family(m, tau),
                check_grad_family(m, xi), green_osher_quadratic(m)]
        if abs(m.L) <= 1e-12:
            reps += [check_beta2_zero_length(m, tau),
                     check_grad_family(m, xi, zero_length=True)]
        else:
            with pytest.raises(NotZeroLengthError):
                check_beta2_zero_length(m, tau)
        for rep in reps:
            assert rep.slack.hex() == ref[rep.ineq_id].hex(), rep.ineq_id
            assert rep.witness is p
        for flow_type in FlowType:
            state = FlowState(0.5, p)
            if flow_type is FlowType.AREA_PRESERVING \
                    and abs(m.L) < LAMBDA_FLOOR:
                for call in (lambda: lambda_area(m.L, m.int_b2, state.t),
                             lambda: diagnostics(state, flow_type, 64)):
                    with pytest.raises(DegenerateLengthError,
                                       match="at t = 0.5"):
                        call()
                continue
            row = diagnostics(state, flow_type, 64)
            for name, want in reference_row_fields(p, flow_type, 64).items():
                assert getattr(row, name).hex() == want.hex(), name
            if flow_type is FlowType.AREA_PRESERVING:
                assert lambda_area(m.L, m.int_b2, state.t) == row.lam

    @staticmethod
    def check_against_quadrature(p: SupportFourier, n: int = 64) -> None:
        m = moments(p)
        pg = synthesize(p, n).values
        bg = synthesize(m.beta, n).values
        bh = np.fft.rfft(bg)
        dbg = np.fft.irfft(1j * np.arange(bh.size) * bh, n)
        quad = {"L": periodic_quadrature(GridFunction(pg)),
                "A": 0.5 * periodic_quadrature(GridFunction(pg * bg)),
                "int_b2": periodic_quadrature(GridFunction(bg * bg)),
                "int_db2": periodic_quadrature(GridFunction(dbg * dbg))}
        assert m.p is p and m.beta == beta_of(p)
        for name, want in quad.items():
            assert getattr(m, name) == pytest.approx(want, rel=1e-12,
                                                     abs=1e-10), name

    @given(supports())
    @settings(max_examples=200, deadline=None)
    def test_matches_periodic_quadrature(self, p):
        self.check_against_quadrature(p)

    @given(near_zero_area())
    @settings(max_examples=200, deadline=None)
    def test_matches_periodic_quadrature_near_zero_area(self, p):
        assert abs(algebraic_area(p)) <= 1e-3 + 1e-9
        self.check_against_quadrature(p)


def test_default_grid_size():
    assert default_grid_size(2) == 256
    assert default_grid_size(40) == 512
