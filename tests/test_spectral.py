import math

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from legendreflow import (AliasError, DegenerateLengthError, FlowState,
                          FlowType, GridFunction, InputError, Moments,
                          NotZeroLengthError, SupportFourier,
                          algebraic_area, analyze, beta_of, check_beta2_family,
                          check_beta2_zero_length, check_grad_family,
                          check_grad_zero_length, check_isoperimetric,
                          default_grid_size, derivative,
                          diagnostics, green_osher_quadratic, l2_quantities,
                          lambda_area, moments, synthesize, uniform_grid)
from legendreflow import flows
from legendreflow.curves import column, stack
from legendreflow.flows import LAMBDA_FLOOR, DiagnosticsRow
from conftest import rand_support, rows_on_modes, supports
from helpers import full_sup_dev, periodic_quadrature, reference_rows

TWO_PI = 2.0 * math.pi
E1, E2 = map(DiagnosticsRow._fields.index, ("E1", "E2"))


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

    def test_alias_check_counts_nonzero_modes_only(self):
        # a listed zero mode above N/2 adds only zero terms
        p = SupportFourier(2.0, ((2, 0.0, 1.0), (600, 0.0, 0.0)))
        assert np.array_equal(synthesize(p, 8).values, synthesize(
            SupportFourier(2.0, ((2, 0.0, 1.0),)), 8).values)
        with pytest.raises(AliasError, match="2K\\+2 = 1202"):
            synthesize(SupportFourier(2.0, ((600, 0.0, 1e-300),)), 1024)


class TestAnalyze:
    def test_constant(self):
        p = column(analyze(np.full((1, 16), 3.5), 4), 0)
        assert p.a0 == pytest.approx(3.5)
        assert all(abs(a) < 1e-14 and abs(b) < 1e-14 for _, a, b in p.modes)

    def test_cos3_orthogonality(self):
        theta = np.linspace(0, TWO_PI, 16, endpoint=False)
        p = column(analyze(np.cos(3 * theta)[None], 4), 0)
        assert p.coeff(3) == pytest.approx((1.0, 0.0), abs=1e-14)
        assert abs(p.a0) < 1e-14
        for k in (1, 2, 4):
            assert p.coeff(k) == pytest.approx((0.0, 0.0), abs=1e-14)

    def test_round_trip(self, rng):
        for _ in range(10):
            p = rand_support(rng, K=int(rng.integers(1, 17)))
            q = column(analyze(synthesize(p, 64).values[None], p.K), 0)
            assert q.a0 == pytest.approx(p.a0, abs=1e-13)
            for k in range(1, p.K + 1):
                assert q.coeff(k) == pytest.approx(p.coeff(k), abs=1e-13)

    def test_alias_error(self):
        with pytest.raises(AliasError):
            analyze(np.zeros((1, 8)), 4)

    @pytest.mark.parametrize("n, K", [
        (8, 3), (256, 16), (256, 100), (4096, 64), (4096, 65), (1024, 300)])
    def test_matches_per_mode_formula_within_bound(self, rng, n, K):
        v = rng.standard_normal(n)
        _assert_near_per_mode(column(analyze(v[None], K), 0), v, K)

    @settings(max_examples=80, deadline=None)
    @given(log_n=st.integers(3, 12), data=st.data())
    def test_matches_per_mode_formula_within_bound_drawn(self, log_n, data):
        # samples with +-0.0 among them at scales 1e-300 to 1e300
        n = 1 << log_n
        K = data.draw(st.integers(0, n // 2 - 1), label="K")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        v = 10.0 ** data.draw(st.floats(-300, 300)) * rng.standard_normal(n)
        zeros = rng.random(n) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        v[zeros] = np.where(rng.random(n) < 0.5, 0.0, -0.0)[zeros]
        _assert_near_per_mode(column(analyze(v[None], K), 0), v, K)


class TestAnalyzeStack:
    @settings(max_examples=60, deadline=None)
    @given(log_n=st.integers(3, 10), data=st.data())
    def test_rows_match_per_grid_analyze_bit_for_bit(self, log_n, data):
        # one row or up to 130, samples from 1e-300 to 1e300 with +-0.0
        # among them, and maybe an all-zero row (every mode exactly zero) or
        # a row whose one nonzero sample, -5e-324 at theta = 0, makes every
        # a_k = (2/n) (-5e-324) = -0.0: the columns hold +0.0 for those modes
        n = 1 << log_n
        K = data.draw(st.integers(0, n // 2 - 1), label="K")
        rows = data.draw(st.sampled_from([1, 2, 5, 17, 130]), label="rows")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        V = 10.0 ** rng.uniform(-300, 300, (rows, 1)) \
            * rng.standard_normal((rows, n))
        zeros = rng.random((rows, n)) < data.draw(st.sampled_from([0, 0.5]))
        V[zeros] = np.where(rng.random((rows, n)) < 0.5, 0.0, -0.0)[zeros]
        special = data.draw(st.sampled_from(["", "zero", "-0.0"]))
        i0 = data.draw(st.integers(0, rows - 1), label="special row")
        if special:
            V[i0] = 0.0
            V[i0, 0] = -5e-324 if special == "-0.0" else 0.0
        if special == "-0.0":
            assert all(math.copysign(1.0, 2.0 / n * np.sum(V[i0] * np.cos(
                k * uniform_grid(n)))) == -1.0 for k in range(1, K + 1))
        c = analyze(V, K)
        assert c.k.tolist() == list(range(1, K + 1))
        for i, v in enumerate(V):
            p = column(c, i)
            assert _series_bytes(p) == _series_bytes(
                column(analyze(V[i:i + 1], K), 0))
            _assert_near_per_mode(p, v, K)
        if special:
            assert c.ab[:, :, i0].tobytes() == bytes(16 * K)

    def test_alias_error(self):
        with pytest.raises(AliasError):
            analyze(np.zeros((3, 8)), 4)

    @pytest.mark.parametrize("shape", [(8,), (2, 3, 8), ()])
    def test_rejects_samples_that_are_not_2d(self, shape):
        with pytest.raises(InputError, match="2-D"):
            analyze(np.zeros(shape), 1)

    @pytest.mark.parametrize("n", [0, 4, 12, 24])
    def test_rejects_widths_that_are_not_a_power_of_two_of_8_or_more(self, n):
        with pytest.raises(InputError, match="power of two >= 8"):
            analyze(np.zeros((2, n)), 1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_samples(self, bad):
        V = np.zeros((3, 8))
        V[1, 5] = bad
        with pytest.raises(InputError, match="non-finite grid values"):
            analyze(V, 1)

    def test_overflowing_sums_give_non_finite_columns(self):
        # finite samples whose sums overflow: Columns keep inf in that row
        # only, and its column is not a SupportFourier
        V = np.ones((3, 8))
        V[1] = 1.5e308
        c = analyze(V, 1)
        assert np.isinf(c.a0[1]) and np.isfinite(c.a0[[0, 2]]).all()
        with pytest.raises(InputError, match="non-finite coefficient"):
            column(c, 1)


def _series_bytes(p: SupportFourier) -> bytes:
    return np.array([p.a0] + [x for m in p.modes for x in m]).tobytes()


def _assert_near_per_mode(p: SupportFourier, v: np.ndarray, K: int) -> None:
    """p lists modes 1..K, and a0 and each a_k, b_k are within 4 pi eps
    (k + log2 N) (2/N) sum |v_j| + N tiny of the direct DFT: a0 = mean(v),
    a_k = (2/N) sum v_j cos(k theta_j) by one np.sum, b_k likewise.  The
    direct sum's k theta_j is off by up to 4 pi k eps, and its pairwise sum
    and the FFT add about log2 N eps of sum |v_j|; over N = 8 to 8192 the
    largest difference was 0.46 eps (k + log2 N) (2/N) sum |v_j|."""
    n, fp = v.size, np.finfo(float)
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    scale = 2.0 / n * float(np.sum(np.abs(v)))
    assert [k for k, _, _ in p.modes] == list(range(1, K + 1))
    got = [(p.a0, 0.0)] + [(a, b) for _, a, b in p.modes]
    for k, pair in enumerate(got):
        want = (float(np.mean(v)), 0.0) if k == 0 else (
            2.0 / n * float(np.sum(v * np.cos(k * theta))),
            2.0 / n * float(np.sum(v * np.sin(k * theta))))
        bound = 4 * math.pi * fp.eps * (k + math.log2(n)) * scale \
            + n * fp.tiny
        assert abs(pair[0] - want[0]) <= bound, (k, pair, want)
        assert abs(pair[1] - want[1]) <= bound, (k, pair, want)


class TestDerivative:
    def test_constant_dies(self):
        d = derivative(SupportFourier(5.0))
        assert d.a0 == 0.0 and d.modes == ()

    def test_sin_to_cos(self):
        d = derivative(SupportFourier(0.0, ((2, 0.0, 1.0),)))
        assert d.coeff(2) == (2.0, 0.0)

    def test_second_derivative_eigenvalue(self):
        p = SupportFourier(0.0, ((3, 1.5, -0.5),))
        d2 = derivative(derivative(p))
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


def series_bits(p: SupportFourier) -> tuple:
    return (p.a0.hex(), tuple((k, a.hex(), b.hex()) for k, a, b in p.modes))


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
    @given(supports(), st.sampled_from([None, 0.0, -0.0]),
           st.floats(-30, 30), st.floats(-30, 30), st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_reference_expressions_bit_for_bit(
            self, p, zero_a0, tau, xi, data):
        if zero_a0 is not None:
            p = SupportFourier(zero_a0, p.modes)
        m = moments(p)
        # column i of the moments of Columns is the moments of row i,
        # column i of beta and of derivative(beta) is row i's beta and its
        # derivative, zero modes and all, and the row kernel's E2 has the
        # bits of the int (beta')^2 of derivative(beta)
        rows = data.draw(rows_on_modes(p, 2.0))
        cols = moments(stack(rows))
        dcols = derivative(cols.beta)
        e2 = flows._rows(np.zeros(len(rows)), stack(rows),
                         FlowType.LENGTH_PRESERVING, 64)[0][:, E2].tolist()
        for i, row in enumerate(rows):
            mi = moments(row)
            assert e2[i].hex() == l2_quantities(
                derivative(mi.beta))["int_dp2"].hex()
            for name in Moments._fields[1:]:
                col = getattr(cols, name)
                assert col[i].hex() == getattr(mi, name).hex(), name
            assert series_bits(column(cols.beta, i)) == series_bits(mi.beta)
            assert series_bits(column(dcols, i)) \
                == series_bits(derivative(mi.beta))
        # the reference: Python-float loops for the moments, the six slacks
        # written out on them, sup_dev from evaluate on the whole grid
        ref = reference_rows(stack([p]), FlowType.AREA_PRESERVING)[0]
        L, A, int_b2, int_db2 = ref["L"], ref["A"], ref["int_b2"], ref["E1"]
        want_slacks = {
            "isoperimetric": L * L - 4.0 * math.pi * A,
            "beta2_family": int_b2 - 2.0 * A
            - tau * (L * L / (4.0 * math.pi) - A),
            "beta2_zero_length": int_b2 + tau * A,
            "grad_family": int_db2 - xi * (L * L / (4.0 * math.pi) - A),
            "grad_zero_length": int_db2 + xi * A,
            "green_osher_quadratic": int_b2 - (L * L - TWO_PI * A) / math.pi,
        }
        slacks = {"isoperimetric": check_isoperimetric(m),
                  "beta2_family": check_beta2_family(m, tau),
                  "grad_family": check_grad_family(m, xi),
                  "green_osher_quadratic": green_osher_quadratic(m)}
        if abs(m.L) <= 1e-12:
            slacks["beta2_zero_length"] = check_beta2_zero_length(m, tau)
            slacks["grad_zero_length"] = check_grad_zero_length(m, xi)
        else:
            with pytest.raises(NotZeroLengthError):
                check_beta2_zero_length(m, tau)
            with pytest.raises(NotZeroLengthError):
                check_grad_zero_length(m, xi)
        for name, slack in slacks.items():
            assert slack.hex() == want_slacks[name].hex(), name
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
            want = reference_rows(stack([p]), flow_type)[0]
            want["sup_dev"] = float(full_sup_dev(m.beta, L / TWO_PI, 64))
            for name in ("L", "A", "deficit", "Q", "lam", "E1", "E2",
                         "sup_dev"):
                assert getattr(row, name).hex() == want[name].hex(), name
            if flow_type is FlowType.AREA_PRESERVING:
                assert lambda_area(m.L, m.int_b2, state.t) == row.lam

    @pytest.mark.parametrize("a0", [-2.0, -0.0, 0.0, 3.0])
    def test_mode1_only_columns_give_zero_columns(self, a0):
        # no mode k >= 2: int (beta')^2 is a +0.0 column, so that a row's
        # E1 and E2 never print as -0 for a negative a0
        rows = [SupportFourier(a0, ((1, 0.5, -0.25),)),
                SupportFourier(-1.0, ((1, -0.0, 2.0),))]
        cols = moments(stack(rows))
        col = cols.int_db2
        assert isinstance(col, np.ndarray) and col.shape == (2,)
        assert [x.hex() for x in col.tolist()] == [(0.0).hex()] * 2
        assert [moments(r).int_db2.hex() for r in rows] == [(0.0).hex()] * 2
        for flow_type in FlowType:
            if flow_type is FlowType.AREA_PRESERVING and a0 == 0.0:
                continue
            block = flows._rows([0.0, 1.0], stack(rows), flow_type, 64)[0]
            assert [x.hex() for x in block[:, [E1, E2]].ravel().tolist()] \
                == [(0.0).hex()] * 4
        # derivative keeps a Columns without modes, and its zero a0 column
        # gives a +0.0 int (beta')^2 column
        dcols = derivative(cols.beta)
        assert dcols.k.size == 0 and dcols.a0.tolist() == [0.0, 0.0]
        assert [x.hex() for x in l2_quantities(dcols)["int_dp2"].tolist()] \
            == [(0.0).hex()] * 2

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
        assert m.beta == beta_of(p)
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
