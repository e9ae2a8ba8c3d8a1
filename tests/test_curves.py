import hashlib
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
import hypothesis.strategies as st

from legendreflow import (CurveKind, FlowState, FlowType, InputError,
                          SupportFourier,
                          algebraic_area, algebraic_length, beta_of, classify,
                          derivative, sample_points, singular_angles,
                          step_exact_modal, steiner_point, analyze,
                          synthesize, uniform_grid)
from legendreflow import curves, flows, inequalities
from legendreflow.cli import write_curve_svg
from conftest import (area_quadrature, coeff, length_quadrature,
                      rand_support, rows_on_modes, supports)
from helpers import ell_convex_residuals, reference_singular_angles, with_mode

TWO_PI = 2.0 * math.pi

P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))        # 2 + sin 2theta
P_FIG_B = SupportFourier(math.sqrt(1.5), ((2, 0.0, 1.0),))
P_FIG_C = SupportFourier(0.5, ((2, 0.0, 1.0),))
P_NEG = SupportFourier(0.0, ((1, 2.0, 1.0), (2, 2.0, 1.0)))
# beta = 0.999 - cos 2(theta - pi/64): two root pairs, each pair 0.045 apart
# and straddling no point of a 16- or 64-point grid
P_CLOSE_PAIRS = SupportFourier(
    0.999, ((2, math.cos(math.pi / 32) / 3, math.sin(math.pi / 32) / 3),))

class TestSupportFourier:
    def test_rejects_duplicate_modes(self):
        with pytest.raises(ValueError):
            SupportFourier(0.0, ((2, 1.0, 0.0), (2, 0.0, 1.0)))

    def test_rejects_mode_zero(self):
        with pytest.raises(ValueError):
            SupportFourier(0.0, ((0, 1.0, 0.0),))
        with pytest.raises(ValueError, match="order must be >= 0"):
            P_FIG_A.evaluate(0.3, order=-1)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            SupportFourier(math.nan)

    def test_modes_sorted(self):
        p = SupportFourier(1.0, ((3, 1.0, 0.0), (1, 0.0, 1.0)))
        assert [k for k, _, _ in p.modes] == [1, 3]
        assert p.K == 3


def evaluate_reference(p: SupportFourier, theta, order: int = 0):
    """SupportFourier.evaluate without the cached tables: one np.cos(k*theta)
    and np.sin(k*theta) per mode, summed mode by mode."""
    th = np.asarray(theta, dtype=float)
    out = np.full(th.shape, p.a0 if order == 0 else 0.0)
    for k, a, b in p.modes:
        for _ in range(order):
            a, b = k * b, -k * a
        out = out + a * np.cos(k * th) + b * np.sin(k * th)
    return out if th.ndim else float(out)


GRID_SIZES = (1, 7, 64, 100, 256, 512, 1024)


@st.composite
def sparse_supports(draw):
    """K from 0 to 48 with a random subset of the modes, at one scale."""
    K = draw(st.integers(0, 48))
    ks = sorted(draw(st.sets(st.integers(1, K), max_size=K))) if K else []
    if K and K not in ks:
        ks.append(K)
    scale = 10.0 ** draw(st.floats(-12, 3))
    unit = st.floats(-1, 1, allow_nan=False)
    return SupportFourier(scale * draw(unit),
                          tuple((k, scale * draw(unit), scale * draw(unit))
                                for k in ks))


@st.composite
def angles(draw):
    """The uniform grid (shared or rebuilt), random angles, a scalar, or a
    linspace that includes its endpoint."""
    kind = draw(st.sampled_from(["grid", "rebuilt", "random", "scalar",
                                 "endpoint"]))
    n = draw(st.sampled_from(GRID_SIZES))
    if kind == "grid":
        return uniform_grid(n)
    if kind == "rebuilt":
        return np.linspace(0.0, TWO_PI, n, endpoint=False)
    if kind == "endpoint":
        return np.linspace(0.0, TWO_PI, n)
    angle = st.floats(-10.0, 10.0, allow_nan=False)
    if kind == "scalar":
        return draw(angle)
    return np.array(draw(st.lists(angle, min_size=1, max_size=64)))


class TestEvaluateTables:
    """evaluate reads cos(k*theta), sin(k*theta) from cached tables on the
    uniform grid; every result must match the per-mode loop bit for bit."""

    @given(sparse_supports(), angles(), st.integers(0, 2), st.data())
    @settings(max_examples=400, deadline=None)
    def test_matches_loop_bit_for_bit(self, p, theta, order, data):
        got = p.evaluate(theta, order)
        want = evaluate_reference(p, theta, order)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        # on Columns, row i is the series of column i, bit for bit
        rows = data.draw(rows_on_modes(p, 10.0 ** data.draw(st.floats(-12, 3))))
        block = SupportFourier.evaluate(curves.stack(rows), theta, order)
        assert block.shape == (len(rows),) + np.shape(theta)
        for row, got in zip(rows, block):
            want = evaluate_reference(row, theta, order)
            assert got.tobytes() == np.asarray(want).tobytes()

    def test_cached_arrays_are_read_only(self):
        theta = uniform_grid(64)
        assert uniform_grid(64) is theta
        cos_kt, sin_kt = curves._trig_table(64, 4)
        for arr in (theta, cos_kt, sin_kt):
            with pytest.raises(ValueError):
                arr[0] = 1.0

    @pytest.mark.parametrize("p", [P_FIG_A, SupportFourier(2.0)],
                             ids=["fig_a", "constant"])
    def test_written_result_leaves_next_call_unchanged(self, p):
        theta = uniform_grid(256)
        for order in (0, 1):
            first = p.evaluate(theta, order)
            first += 5.0
            first[0] = np.nan
            again = p.evaluate(theta, order)
            assert again.tobytes() == evaluate_reference(p, theta, order).tobytes()

    def test_negative_zero_is_not_the_grid(self):
        # sin(k * -0.0) = -0.0, which turns a sum of zeros negative
        p = SupportFourier(-0.0, ((1, -0.0, 1.0),))
        theta = uniform_grid(8).copy()
        theta[0] = -0.0
        assert np.signbit(p.evaluate(theta)[0])
        assert p.evaluate(theta).tobytes() == evaluate_reference(p, theta).tobytes()

    def test_one_table_per_power_of_two(self):
        theta = uniform_grid(512)
        curves._trig_table.cache_clear()
        for K in (17, 20, 32):
            SupportFourier(1.0, ((K, 0.5, 0.25),)).evaluate(theta)
        assert curves._trig_table.cache_info().misses == 1
        SupportFourier(1.0, ((33, 0.5, 0.25),)).evaluate(theta)
        assert curves._trig_table.cache_info().misses == 2

    def test_oversized_table_is_not_built(self):
        theta = uniform_grid(512)
        p = SupportFourier(1.0, ((5000, 0.5, 0.25),))
        misses = curves._trig_table.cache_info().misses
        assert p.evaluate(theta).tobytes() == evaluate_reference(p, theta).tobytes()
        assert curves._trig_table.cache_info().misses == misses


class TestEvalPoint:
    """Curve points gamma(theta), evaluated with sample_points."""

    def test_unit_circle(self):
        assert tuple(sample_points(SupportFourier(1.0), 0.0)) == (1.0, 0.0)

    def test_fig_a_at_zero_with_fd_oracle(self):
        # p(0) = 2, p'(0) by central difference
        h = 1e-6
        dp = (P_FIG_A.evaluate(h) - P_FIG_A.evaluate(-h)) / (2 * h)
        x, y = sample_points(P_FIG_A, 0.0)
        assert x == pytest.approx(P_FIG_A.evaluate(0.0), abs=1e-12)
        assert y == pytest.approx(dp, abs=1e-8)
        assert (x, y) == pytest.approx((2.0, 2.0), abs=1e-12)

    def test_pure_mode_one_is_a_point(self):
        p = SupportFourier(0.0, ((1, 3.0, -1.5),))
        pts = sample_points(p, np.linspace(0, TWO_PI, 17))
        assert np.max(np.abs(pts - (3.0, -1.5))) < 1e-12

    def test_periodic(self):
        th = np.array([0.3, 1.7, 5.0])
        a = sample_points(P_FIG_A, th)
        b = sample_points(P_FIG_A, th + TWO_PI)
        assert np.max(np.abs(a - b)) < 1e-12

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
        q = curves.column(analyze(synthesize(p, 64).values[None], 8), 0)
        assert steiner_point(q) == pytest.approx(steiner_point(p), abs=1e-12)


class TestSingularAngles:
    def test_circle_empty(self):
        assert singular_angles(SupportFourier(1.0)) == []

    def test_mode_bound_counts_modes_of_beta(self):
        top = curves.MAX_ROOT_MODE + 1
        with pytest.raises(InputError, match=f"beta has mode {top} > "):
            singular_angles(SupportFourier(2.0, ((top, 1e-3, 0.0),)))
        # beta drops mode 1, and K counts only modes with a nonzero
        # coefficient, so these locate no roots at all
        assert singular_angles(SupportFourier(2.0, ((1, 0.5, 0.0),
                                                    (top, 0.0, 0.0)))) == []
        # nor does a listed zero mode above the bound, which beta_of and
        # derivative keep, change figure1a's roots or class: min p and min
        # beta are sampled on the grid of figure1a's degree 2
        listed = SupportFourier(2.0, ((2, 0.0, 1.0), (600, 0.0, 0.0)))
        assert beta_of(listed).K == derivative(listed).K == 600 > top
        assert singular_angles(listed) == singular_angles(P_FIG_A)
        assert classify(listed) == classify(P_FIG_A)

    def test_degree_is_the_highest_nonzero_mode(self):
        assert curves._degree(SupportFourier(2.0)) == 0
        assert curves._degree(SupportFourier(2.0, ((1, 0.0, -0.0),))) == 0
        assert curves._degree(SupportFourier(0.0, (
            (1, 0.5, 0.0), (3, 0.0, 5e-324), (5, -0.0, 0.0),
            (10 ** 8, 0.0, 0.0)))) == 3

    def test_sin2theta(self):
        roots = singular_angles(SupportFourier(0.0, ((2, 0.0, 1.0),)))
        expected = [0.0, math.pi / 2, math.pi, 3 * math.pi / 2]
        assert len(roots) == 4
        assert roots == pytest.approx(expected, abs=1e-9)

    def test_fig_a_analytic_roots(self):
        # beta = 2 - 3 sin 2theta: four roots of sin 2theta = 2/3
        roots = singular_angles(P_FIG_A)
        phi = math.asin(2 / 3)
        expected = sorted([phi / 2, (math.pi - phi) / 2,
                           phi / 2 + math.pi, (math.pi - phi) / 2 + math.pi])
        assert roots == pytest.approx(expected, abs=1e-10)
        beta = beta_of(P_FIG_A)
        assert all(abs(beta.evaluate(r)) < 1e-10 for r in roots)

    def test_close_pairs_between_grid_points(self):
        roots = singular_angles(P_CLOSE_PAIRS)
        h = math.acos(0.999) / 2
        expected = sorted(math.pi / 64 + s + m * math.pi
                          for s in (-h, h) for m in (0, 1))
        assert roots == pytest.approx(expected, abs=1e-12)

    def test_near_miss_minimum_reports_no_stray_angle(self):
        # beta = (1 + 1e-12) - cos 2(theta - 0.01): its complex roots lie
        # 7e-7 off the real axis, where a free Newton step would jump away
        p = SupportFourier(1.0 + 1e-12, ((2, math.cos(0.02) / 3,
                                          math.sin(0.02) / 3),))
        beta = beta_of(p)
        assert all(abs(beta.evaluate(r)) < 1e-11 for r in singular_angles(p))

    @pytest.mark.parametrize("m, count", [
        (0.0, 2), (1e-16, 2), (1e-15, 2), (-1e-15, 2),   # tangent: once each
        (-1e-12, 4), (-1e-10, 4),                        # two resolved pairs
        (1e-11, 0),                                      # no zero
    ])
    def test_tangency_counted_once(self, m, count):
        # beta = (1 + m) - cos 2(theta - phi) touches 0 at theta = phi and
        # phi + pi when m = 0; round-off splits each double zero in two
        for phi in np.linspace(0.0, math.pi, 13):
            p = SupportFourier(1.0 + m, ((2, math.cos(2 * phi) / 3,
                                          math.sin(2 * phi) / 3),))
            assert len(singular_angles(p)) == count, phi

    def test_negligible_top_mode(self):
        # a top mode far below round-off must not spoil the companion matrix
        p = SupportFourier(0.0, ((2, 0.0, 1.0), (3, 1e-70, 0.0)))
        assert singular_angles(p) == pytest.approx(
            [0.0, math.pi / 2, math.pi, 3 * math.pi / 2], abs=1e-12)

    @pytest.mark.parametrize("a0, b2", [(0.0, 1e-310), (1e-320, 1e-320)])
    def test_subnormal_beta(self, a0, b2):
        # beta = a0 - 3 b2 sin 2theta with subnormal coefficients: np.roots
        # divides by the leading one, so they are scaled by 2^e first
        phi = math.asin(a0 / (3 * b2))
        expected = sorted([phi / 2, (math.pi - phi) / 2,
                           phi / 2 + math.pi, (math.pi - phi) / 2 + math.pi])
        roots = singular_angles(SupportFourier(a0, ((2, 0.0, b2),)))
        assert roots == pytest.approx(expected, abs=1e-9)

    def test_constant_beta_has_no_roots(self):
        assert singular_angles(SupportFourier(-2.0, ((1, 1.0, 3.0),))) == []
        # beta = 0: the curve is one point, and no angle is singled out
        assert singular_angles(SupportFourier(0.0, ((1, 1.0, 1.0),))) == []

    @pytest.mark.parametrize("flow_type, before, after", [
        (FlowType.AREA_PRESERVING, 0.1831, 0.1832),     # t* = ln(3)/6
        (FlowType.LENGTH_PRESERVING, 0.1351, 0.1352),   # t* = ln(1.5)/3
    ])
    def test_fig_a_cusps_merge_at_t_star(self, flow_type, before, after):
        # beta(theta, t) = a0(t) - 3 exp(-3t) sin 2theta: the two cusp pairs
        # merge at the t* where 3 exp(-3t) falls to a0(t)
        def cusps(t):
            return len(singular_angles(
                step_exact_modal(FlowState(0.0, P_FIG_A), t, flow_type).p))
        assert (cusps(before), cusps(after)) == (4, 0)

    @given(st.integers(2, 32), st.floats(-0.3, 0.3),
           st.lists(st.floats(-1, 1), min_size=64, max_size=64))
    @settings(max_examples=40, deadline=None)
    def test_root_count_matches_sign_change_oracle(self, K, a0, coeffs):
        p = SupportFourier(a0, tuple(
            (k, coeffs[2 * k - 2] * (k + 1) ** -1.5,
             coeffs[2 * k - 1] * (k + 1) ** -1.5) for k in range(1, K + 1)))
        beta = beta_of(p)
        n = 2 ** 18                     # beta on n points, by inverse FFT
        spectrum = np.zeros(n // 2 + 1, dtype=complex)
        spectrum[0] = n * beta.a0
        for k, a, b in beta.modes:
            spectrum[k] = n / 2 * complex(a, -b)
        v = np.fft.irfft(spectrum, n)
        assume(np.min(v) < 0)
        roots = singular_angles(p)
        if roots:
            # The grid oracle sees only sign changes: it cannot count two
            # roots in one cell, nor a tangential zero.
            gaps = np.diff(roots + [roots[0] + TWO_PI])
            assume(np.min(gaps) > 2 * TWO_PI / n)
            assume(np.min(np.abs(beta.evaluate(np.array(roots), order=1)))
                   > 1e-6)
        positive = v > 0
        assert len(roots) == np.count_nonzero(positive != np.roll(positive, 1))

    def test_matches_mpmath(self, rng):
        for K in (8, 32):
            p = rand_support(rng, K=K, amp=0.2)
            beta = beta_of(p)
            roots = singular_angles(p)
            assert roots

            def f(th):
                return beta.a0 + sum(a * mpmath.cos(k * th) + b * mpmath.sin(k * th)
                                     for k, a, b in beta.modes)
            with mpmath.workdps(40):
                for r in roots:
                    assert abs(float(mpmath.findroot(f, r)) - r) < 1e-12


#: Coefficients that are often signed zeros, or far below round-off of 1.
ROOT_UNIT = st.sampled_from([0.0, -0.0, 1e-17, -3e-20]) \
    | st.floats(-1, 1, allow_nan=False)


@st.composite
def cusp_rows(draw):
    """1-5 series on one list of modes (mode 2 and up to five more of
    1..16, and at times a zero mode 600): each generic or a tangency
    (1 + m) - cos 2(theta - phi), with zero coefficients above its own
    degree, and scaled by 1 or by a subnormal-making factor."""
    ks = sorted(set(draw(st.lists(st.integers(1, 16), max_size=5))) | {2})
    ks += [600] * draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        scale = draw(st.sampled_from([1.0, 1.0, 1e-300, 2.0 ** -1040]))
        if draw(st.booleans()):
            phi = draw(st.floats(0.0, math.pi))
            m = draw(st.sampled_from([0.0, 1e-16, -1e-15, -1e-12, 1e-11]))
            rows.append(SupportFourier(scale * (1.0 + m), tuple(
                (k, scale * math.cos(2 * phi) / 3, scale * math.sin(2 * phi) / 3)
                if k == 2 else (k, 0.0, 0.0) for k in ks)))
            continue
        top = draw(st.integers(0, 16))
        rows.append(SupportFourier(scale * draw(ROOT_UNIT), tuple(
            (k, scale * draw(ROOT_UNIT), scale * draw(ROOT_UNIT))
            if k <= top else (k, 0.0, 0.0) for k in ks)))
    return rows


class TestSingularAnglesOfColumns:
    @given(cusp_rows())
    @settings(max_examples=300, deadline=None)
    def test_each_row_is_the_per_curve_oracle_bit_for_bit(self, rows):
        got = singular_angles(curves.stack(rows))
        assert len(got) == len(rows)
        for p, angles in zip(rows, got):
            want = [x.hex() for x in reference_singular_angles(p)]
            assert [x.hex() for x in angles] == want
            assert [x.hex() for x in singular_angles(p)] == want

    def test_flow_rows_match_the_oracle(self):
        # figure1a's cusps merge at t* = ln(3)/6: rows on both sides, from
        # one closed-form chunk
        t = np.linspace(0.0, 0.4, 41).tolist()
        c = flows._closed_form(P_FIG_A, t, FlowType.AREA_PRESERVING)
        got = singular_angles(c)
        assert [len(a) for a in got] == [4] * 19 + [0] * 22
        for i, angles in enumerate(got):
            assert angles == reference_singular_angles(curves.column(c, i))

    def test_degree_bound_is_the_largest_over_the_rows(self):
        top = curves.MAX_ROOT_MODE + 1
        rows = [SupportFourier(2.0, ((2, 0.0, 1.0), (top, 0.0, 0.0))),
                SupportFourier(2.0, ((2, 0.0, 1.0), (top, 1e-3, 0.0)))]
        with pytest.raises(InputError, match=f"beta has mode {top} > "):
            singular_angles(curves.stack(rows))
        assert singular_angles(curves.stack(rows[:1])) \
            == [singular_angles(P_FIG_A)]

    def test_stack_needs_one_list_of_modes(self):
        with pytest.raises(InputError, match="the same modes"):
            curves.stack([P_FIG_A, SupportFourier(2.0)])
        c = curves.stack([P_FIG_A, P_FIG_B])
        assert [curves.column(c, i) for i in range(2)] == [P_FIG_A, P_FIG_B]


def _svg_digests(c, tmp_path, name) -> list[str]:
    paths = [tmp_path / f"{name}_{i}.svg" for i in range(c.a0.size)]
    write_curve_svg(c, paths)
    return [hashlib.sha256(p.read_bytes()).hexdigest()[:16] for p in paths]


def _sup_devs(c) -> list[str]:
    beta = curves.beta_of(c)
    center = curves.algebraic_length(c) / TWO_PI
    return [x.hex() for x in flows._sup_dev(beta, center, 256).tolist()]


class TestColumnsLayout:
    def test_mode_numbers_are_int64_and_their_squares_floats(self):
        with pytest.raises(InputError, match=r"< 2\*\*63"):
            SupportFourier(1.0, ((2 ** 63, 0.0, 0.0),))
        # 4e9^2 leaves int64; Python's (1 - k*k) * a is the reference
        k = 4_000_000_000
        p = SupportFourier(2.0, ((2, 0.0, 1.0), (k, 1e-20, -0.0)))
        assert beta_of(p).modes[-1][1:] == ((1.0 - k * k) * 1e-20,
                                            (1.0 - k * k) * -0.0)
        assert algebraic_area(p).hex() == (
            math.pi * 4.0 + 0.5 * math.pi * -3.0 * 1.0
            + 0.5 * math.pi * (1.0 - k * k) * (1e-20 * 1e-20)).hex()

    @given(supports().flatmap(rows_on_modes))
    @example([SupportFourier(-0.0)])
    @example([SupportFourier(1.0), SupportFourier(-0.0, ())])
    @example([SupportFourier(0.5, ((3, -0.0, 0.0), (7, 0.25, -1.0)))])
    @settings(max_examples=100, deadline=None)
    def test_block_round_trip_is_byte_identical(self, rows):
        c = curves.stack(rows)
        assert c.ab.shape == (c.k.size, 2, len(rows))
        again = curves.stack([curves.column(c, i) for i in range(len(rows))])
        for x, y in zip(c, again):
            assert (x.dtype, x.shape, x.tobytes()) \
                == (y.dtype, y.shape, y.tobytes())

    def test_producers_hand_over_their_block(self):
        # the ensemble's coefficient rows a0, a_1, b_1, ... are the block
        # (K, 2, curves) without a copy; the closed form broadcasts p's
        # (K, 2, 1) block against its (K, 1, times) decay
        raw = np.arange(7.0 * 5).reshape(7, 5)
        c = inequalities._columns(raw)
        assert np.shares_memory(c.ab, raw) and c.k.tolist() == [1, 2, 3]
        assert c.ab[2, 1].tolist() == raw[6].tolist()
        c = flows._closed_form(P_FIG_A, [0.0, 0.5], FlowType.AREA_PRESERVING)
        assert c.k.tolist() == [2] and c.ab.shape == (1, 2, 2)

    def test_edge_layouts_keep_their_results(self, tmp_path):
        # no modes: beta is the constant a0 (a point for a0 = -0.0)
        k0 = curves.stack([SupportFourier(1.0), SupportFourier(-0.0),
                           SupportFourier(2.5)])
        assert _sup_devs(k0) == [(0.0).hex()] * 3
        assert singular_angles(k0) == [[], [], []]
        # the point's SVG has write_curve_svg's floor span 2.5e-4
        assert _svg_digests(k0, tmp_path, "k0") == [
            "eec9ed4da5626cc2", "7293c7a77e7a5204", "1446ca3b39deaaf9"]
        # figure1a at three times; a chunk of one time is its last row, and
        # a listed zero mode 600 (zero600.curve) changes nothing
        area = FlowType.AREA_PRESERVING
        fig = flows._closed_form(P_FIG_A, [0.0, 0.05, 0.1], area)
        assert _sup_devs(fig)[0] == (3.0).hex()    # max |3 sin 2 theta|
        want = singular_angles(fig)
        assert [len(a) for a in want] == [4, 4, 4]
        assert want[2] == reference_singular_angles(curves.column(fig, 2))
        assert _svg_digests(fig, tmp_path, "fig") == [
            "d3761230438ceb3e", "dafe2e0456201a4a", "933ad8354af69026"]
        one = flows._closed_form(P_FIG_A, [0.1], area)
        zero600 = flows._closed_form(SupportFourier(2.0, (
            (2, 0.0, 1.0), (600, 0.0, 0.0))), [0.0, 0.05, 0.1], area)
        assert zero600.k.tolist() == [2, 600]
        for c, rows in ((one, slice(2, 3)), (zero600, slice(None))):
            assert _sup_devs(c) == _sup_devs(fig)[rows]
            assert singular_angles(c) == want[rows]
            assert _svg_digests(c, tmp_path, "c") \
                == _svg_digests(fig, tmp_path, "fig")[rows]


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

    @pytest.mark.parametrize("scale", [1.0, 1e-13, 1e-15, 1e-300])
    def test_scaled_figure1a_is_not_a_point(self, scale):
        # beta = 0 is the point; any scale of figure1a keeps its four cusps
        p = SupportFourier(2.0 * scale, ((2, 0.0, scale),))
        assert classify(p).kind is CurveKind.ELL_CONVEX_NONCONVEX
        assert len(singular_angles(p)) == 4

    def test_mode_one_at_any_size_is_a_point(self):
        cls = classify(SupportFourier(0.0, ((1, 1e300, -1e-300),)))
        assert cls.kind is CurveKind.DEGENERATE_POINT

    def test_close_pairs_are_nonconvex(self):
        # beta > 0 at every point of the 64-point grid, yet it has four roots
        cls = classify(P_CLOSE_PAIRS)
        assert cls.min_beta > 0
        assert cls.kind is CurveKind.ELL_CONVEX_NONCONVEX


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
        q = with_mode(p, 1, a1 + da, b1 + db)
        assert algebraic_length(q) == algebraic_length(p)
        assert algebraic_area(q) == algebraic_area(p)
        assert beta_of(q) == beta_of(p)
        assert classify(q).kind == classify(p).kind or \
            classify(p).kind is CurveKind.DEGENERATE_POINT

    @given(supports(), coeff, coeff, st.floats(0, TWO_PI))
    @settings(max_examples=60, deadline=None)
    def test_eval_point_translates(self, p, da, db, th):
        a1, b1 = p.coeff(1)
        q = with_mode(p, 1, a1 + da, b1 + db)
        dx, dy = sample_points(q, th) - sample_points(p, th)
        assert dx == pytest.approx(da, abs=1e-9)
        assert dy == pytest.approx(db, abs=1e-9)
