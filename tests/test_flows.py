import copy
import functools
import math
from dataclasses import replace
from unittest import mock

import hypothesis.strategies as st
import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings

from legendreflow import (Constraint, CurveEnsembleSpec, DegenerateLengthError,
                          FlowConfig, FlowState, FlowType, GridFunction,
                          InputError, Scheme, StabilityError, SupportFourier,
                          algebraic_area, algebraic_length, analyze, beta_of,
                          default_grid_size, derivative, diagnostics,
                          grid_stability_bound, lambda_area, moments,
                          random_curve, run, sample_points, step_exact_modal,
                          step_grid_rk4, steiner_point, synthesize,
                          uniform_grid)
from legendreflow import flows, inequalities
from legendreflow.curves import Columns, _degree, column, stack
from legendreflow.flows import DiagnosticsRow, GridFlowState
from helpers import (count_builds, ell_convex_residuals, fit_decay_rate,
                     full_sup_dev, periodic_quadrature, reference_closed_form,
                     reference_rows, reference_run)

TWO_PI = 2.0 * math.pi
AREA, LENGTH = FlowType.AREA_PRESERVING, FlowType.LENGTH_PRESERVING
E2, SUP_DEV = map(DiagnosticsRow._fields.index, ("E2", "sup_dev"))
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
        # a column's rows below the floor are NaN, and _rows cuts a chunk at
        # the first of them with its error
        L = np.array([4.0, 1e-10, 0.0])
        lam = lambda_area(L, np.ones(3), [0.125, 0.25, 0.5])
        assert lam[0] == 0.25 and np.isnan(lam[1:]).all()
        assert lambda_area(L[:1], np.ones(1), [0.125]).tolist() == [0.25]
        rows, error = flows._rows([0.125, 0.25, 0.5], stack(
            [SupportFourier(x) for x in (L / TWO_PI).tolist()]),
                                  AREA, 64)
        assert rows.shape == (1, 11) and rows[0, 0] == 0.125
        with pytest.raises(DegenerateLengthError,
                           match=r"^\|L\| = 1.000e-10 .* at t = 0.25$"):
            raise error


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

    @given(st.integers(0, 2**32 - 1), st.integers(1, 32),
           st.sampled_from(list(Constraint)))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_within_its_operation_count(self, seed, K,
                                                    constraint):
        # each coefficient against a 50-digit closed form at 8 times from
        # 1e-3 to 10, at the doubles t.  A mode c exp(f t), f = 1 - k^2, is
        # c * exp(fl(f t)): the rounded argument costs |f t| u, exp's 1 ulp
        # 2u, the product u (u = eps/2); in the subnormal range exp's ulp
        # and the product's half-ulp add (|c| + 1/2) 2^-1074, one step for
        # |c| <= 1/2.  a0^2 = a0(0)^2 + (1/2) sum w_k (-expm1(2 f t)), w_k =
        # f (a_k^2 + b_k^2), over n modes k >= 2, takes m = n + 8 roundings
        # on its longest path: 4 in w_k, 3 in -expm1 (1 from its argument,
        # whose e^x |x| <= |expm1 x| for x <= 0, and 2 for its 1 ulp), 1 in
        # the product, n - 1 in sum's additions and 1 in the last addition.
        # So a0^2 is within gamma_m (a0(0)^2 + S), S = (1/2) sum |f| (a_k^2
        # + b_k^2), and sqrt's rounding adds (2u + u^2) a0^2; max(., 0) can
        # only bring a0^2 closer
        spec = CurveEnsembleSpec(seed, 1, K, constraint=constraint)
        p = random_curve(spec, 0)
        ts = sorted(10.0 ** np.random.default_rng(seed).uniform(-3, 1, 6))
        ts = [1e-3, *ts, 10.0]
        u = 2.0 ** -53
        n = sum(k >= 2 for k, _, _ in p.modes)
        gamma = (n + 8) * u / (1 - (n + 8) * u)
        for ft in FlowType:
            c = flows._closed_form(p, ts, ft)
            with mpmath.workdps(50):
                mpf = mpmath.mpf
                for i, t in enumerate(ts):
                    for (k, a, b), (ga, gb) in zip(p.modes, c.ab):
                        f = 1 - k * k
                        for x, got in ((a, ga[i]), (b, gb[i])):
                            want = mpf(x) * mpmath.exp(f * mpf(t))
                            assert abs(mpf(float(got)) - want) <= \
                                (abs(f * t) + 3) * u * (1 + 1e-9) \
                                * abs(want) + (abs(x) + 0.5) * 2.0 ** -1074
                    got = float(c.a0[i])
                    if ft is FlowType.LENGTH_PRESERVING:
                        assert got == p.a0
                        continue
                    w = [(1 - k * k, (1 - k * k) * (mpf(a)**2 + mpf(b)**2))
                         for k, a, b in p.modes if k >= 2]
                    want = mpf(p.a0) ** 2 + sum(
                        wk * -mpmath.expm1(2 * f * mpf(t)) for f, wk in w) / 2
                    S = -sum(wk for _, wk in w) / 2
                    assert math.copysign(1.0, got) == math.copysign(1.0, p.a0)
                    assert abs(mpf(got) ** 2 - max(want, 0)) <= \
                        gamma * (mpf(p.a0) ** 2 + S) \
                        + (2 * u + u * u) * mpf(got) ** 2

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
        with pytest.raises(DegenerateLengthError, match=(
                r"^\|L\| = 0\.000e\+00 below floor 1e-09 at t = 0\.1$")):
            step_exact_modal(start, 0.1, AREA)

    @pytest.mark.parametrize("flow_type", list(FlowType))
    def test_negative_dt_refused(self, flow_type):
        with pytest.raises(InputError, match="^dt must be >= 0$"):
            step_exact_modal(FlowState(0.0, P_FIG_A), -1e-3, flow_type)

    @pytest.mark.parametrize("dt", [0.0305, 0.1, 1.0, 30.0, 1e6])
    def test_area_flow_past_collapse_reads_zero_length(self, dt):
        # past T = ln(1.2)/6 figure1c's a0^2 is negative: the closed form
        # reads it as a0 = +0.0, never NaN, so lambda_area names the floor
        # rather than a non-finite field
        c = flows._closed_form(P_FIG_C, [dt], AREA)
        assert c.a0.tobytes() == bytes(8)
        with pytest.raises(DegenerateLengthError, match=(
                r"^\|L\| = 0\.000e\+00 below floor 1e-09 at t = ")):
            step_exact_modal(FlowState(0.0, P_FIG_C), dt, AREA)


def reference_grid_rhs(v: np.ndarray, flow_type: FlowType, k_cut: int,
                       t: float) -> np.ndarray:
    """The grid right-hand side in three FFTs: p and p'' band-limited to
    k_cut, added back together, and L from the band-limited p."""
    n = v.shape[0]
    vh = np.fft.rfft(v)
    vh[k_cut + 1:] = 0.0
    vf = np.fft.irfft(vh, n)
    k = np.arange(vh.shape[0])
    pdd = np.fft.irfft(-(k * k) * vh, n)
    L = TWO_PI / n * float(np.sum(vf))
    if flow_type is FlowType.LENGTH_PRESERVING:
        lam = L / TWO_PI
    else:
        beta = vf + pdd
        lam = lambda_area(L, TWO_PI / n * float(np.sum(beta * beta)), t)
    return pdd + vf - lam


def reference_grid_step(state: GridFlowState, dt: float,
                        flow_type: FlowType) -> GridFlowState:
    """One RK4 step on reference_grid_rhs."""
    v, t, k_cut = state.grid.values, state.t, state.k_cut
    f1 = reference_grid_rhs(v, flow_type, k_cut, t)
    f2 = reference_grid_rhs(v + 0.5 * dt * f1, flow_type, k_cut, t)
    f3 = reference_grid_rhs(v + 0.5 * dt * f2, flow_type, k_cut, t)
    f4 = reference_grid_rhs(v + dt * f3, flow_type, k_cut, t)
    vn = v + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return GridFlowState(t + dt, GridFunction(vn), k_cut)


def smooth_support(seed: int, K: int, decay: float = 2.0) -> SupportFourier:
    """|a0| in [0.5, 3] and modes 1..K of size up to (k+1)^-decay: a step
    at the stability bound then changes p by about max|p|, so that a
    tolerance relative to max|p| measures rounding alone."""
    rng = np.random.default_rng(seed)
    a0 = rng.uniform(0.5, 3.0) * rng.choice([-1.0, 1.0])
    return SupportFourier(a0, tuple(
        (k, *(rng.uniform(-1.0, 1.0, 2) * (k + 1.0) ** -decay))
        for k in range(1, K + 1)))


def sparse_k16(seed: int) -> SupportFourier:
    """The benchmark generator's sparse_k16 curve: modes 1..16 of size up to
    (k+1)^-1.5 from default_rng([seed, 16]), a0 lifted until beta >= 0.1 on
    4096 points."""
    rng = np.random.default_rng([seed, 16])
    k = np.arange(1, 17)
    bound = (k + 1.0) ** -1.5
    a0 = float(rng.uniform(-1.0, 1.0))
    a = rng.uniform(-1.0, 1.0, 16) * bound
    b = rng.uniform(-1.0, 1.0, 16) * bound
    kt = np.outer(k, np.linspace(0.0, TWO_PI, 4096, endpoint=False))
    beta_modes = np.sum((1.0 - k * k)[:, None] * (
        a[:, None] * np.cos(kt) + b[:, None] * np.sin(kt)), axis=0)
    while (shortfall := 0.1 - float(np.min(a0 + beta_modes))) > 0.0:
        a0 += shortfall + 1e-9
    return SupportFourier(a0, tuple(zip(k.tolist(), a.tolist(), b.tolist())))


# The benchmark generator's seed-7 sparse_k16 curve: under the length flow
# on 256 points at dt = 1e-3, the increment of u = Re U_0 stays nonzero for
# 500 steps and is exactly 0.0 from step 500 on
P_SPARSE_SEED7 = sparse_k16(7)


def length_stages_without_exit(state: GridFlowState, dt: float, steps: int):
    """step_grid_rk4's length flow as a plain stage loop that runs every
    step: (d0, t, samples, the first step whose increment is 0.0)."""
    v, t, n = state.grid.values, state.t, state.grid.n
    table = flows._rk4_modes(n, state.k_cut, dt)
    V = np.fft.rfft(v)[:table.shape[1] + 1]
    h, half, sixth = TWO_PI / n, 0.5 * dt, dt / 6.0
    u = u0 = float(V[0].real)
    d0, first_zero = 0.0, None
    for j in range(steps):
        f1 = u - n * (h * u / TWO_PI)
        f2 = (x := u + half * f1) - n * (h * x / TWO_PI)
        f3 = (x := u + half * f2) - n * (h * x / TWO_PI)
        f4 = (x := u + dt * f3) - n * (h * x / TWO_PI)
        inc = sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
        if inc == 0.0 and first_zero is None:
            first_zero = j
        d0 += inc
        u, t = u0 + d0, t + dt
    D = np.concatenate(([d0], (table[0] ** steps - 1.0) * V[1:]))
    return d0, t, v + np.fft.irfft(D, n), first_zero


def rk4_replica(V, n: int, K: int, dt: float, steps: int, flow_type):
    """step_grid_rk4's recurrence on the rfft modes V in 50-digit mpmath:
    modes 1..K by exact powers of RK4's factor R, from z = (1 - k^2) dt,
    and u = Re V_0 through the four stages with the Parseval lambda, whose
    E[j, s] = sum_k w_k (1 - k^2)^2 g_s^2 R^2j |V_k|^2 are exact.  Returns
    a0 = u / n after `steps` steps, its change, and the largest n lambda / n
    = (|x| + E / |x|) / n over the stages."""
    mp = mpmath.mp
    with mpmath.workdps(50):
        u0, dt, d0 = mp.mpf(float(V[0].real)), mp.mpf(dt), mp.mpf(0)
        if flow_type is FlowType.LENGTH_PRESERVING:   # n lambda = x: f = 0
            return u0 / n, d0, abs(u0) / n
        cols, rho = [[] for _ in range(4)], []
        for k in range(1, K + 1):
            z, g = (1 - k * k) * dt, [mp.mpf(1)]
            for c in (0.5, 0.5, 1):
                g.append(1 + c * z * g[-1])
            rho.append((1 + z / 6 * (g[0] + 2 * g[1] + 2 * g[2] + g[3])) ** 2)
            energy = (1 if 2 * k % n == 0 else 2) * (1 - k * k) ** 2 * (
                mp.mpf(float(V[k].real)) ** 2 + mp.mpf(float(V[k].imag)) ** 2)
            for col, gs in zip(cols, g):
                col.append(energy * gs * gs)
        h, w, power, u, lam_max = 2 * mp.pi / n, 2 * mp.pi / n ** 2, \
            [mp.mpf(1)] * K, u0, mp.mpf(0)

        def f(x, e):
            nonlocal lam_max
            lam_max = max(lam_max, abs(x) + e / abs(x))
            return x - n * (w * (x * x + e)) / (h * x)
        for _ in range(steps):
            e = [mp.fdot(col, power) for col in cols]
            f1 = f(u, e[0])
            f2 = f(u + dt / 2 * f1, e[1])
            f3 = f(u + dt / 2 * f2, e[2])
            f4 = f(u + dt * f3, e[3])
            d0 += dt / 6 * (f1 + 2 * f2 + 2 * f3 + f4)
            u, power = u0 + d0, [p * r for p, r in zip(power, rho)]
        return u / n, d0 / n, lam_max / n


class TestStepGridRK4:
    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_a0_matches_an_exact_arithmetic_replica(self, seed):
        # the same recurrence in exact arithmetic, within a bound counted
        # from step_grid_rk4's floating-point operations (unit roundoff u,
        # gamma_m = m u / (1 - m u), Higham, Accuracy and Stability, 3.1):
        # - each stage's n lambda = n w (x^2 + E) / (h x) takes 5 roundings,
        #   gamma_5 n lambda (n w / h = 1 exactly, n a power of two), and
        #   the weights dt/6 (1, 2, 2, 1) sum them to gamma_5 lam_max per
        #   unit of time;
        # - d0 += increment rounds by u |d0| at each step;
        # - the table's R is within u + gamma_9 |z| of RK4's factor, and
        #   R >= 1 + z, so R^2j is within 2 j delta_R + u (pow) relatively;
        #   with gamma_12 for the table's weights times |V_k|^2 and gamma_K
        #   for the sum of K positive terms, that is E's relative error, and
        #   it scales a0's change, a sum of E / x terms of one sign;
        # - the final irfft and rfft: the DC sums of the input and of the
        #   output samples over log2 n levels each, and the irfft's samples
        #   within gamma_(2 log2 n) of (|D_0| + 2 sum |D_k|) / n, |D_k| <=
        #   |V_k|, summed with the samples in one more rounding;
        # doubled for the second-order terms
        p, n, dt, steps = sparse_k16(seed), 256, 1e-3, 1000
        K, u, log_n = 16, np.finfo(float).eps / 2, n.bit_length() - 1

        def gamma(m):
            return m * u / (1 - m * u)
        state = GridFlowState(0.0, synthesize(p, n), K)
        V = np.fft.rfft(state.grid.values)
        z = (1 - K * K) * dt
        delta_R = (u + gamma(9) * abs(z)) / (1 + z)
        for flow_type in FlowType:
            end = step_grid_rk4(state, dt, flow_type, steps)
            got = analyze(end.grid.values[None], K).a0[0]
            a0, change, lam_max = rk4_replica(V, n, K, dt, steps, flow_type)
            M = np.max(np.abs(state.grid.values)) + abs(change) \
                + 2 * np.sum(np.abs(V[1:K + 1])) / n
            bound = 2 * (gamma(5) * steps * dt * lam_max
                         + (steps * (u + 2 * delta_R) + u + gamma(K + 12))
                         * abs(change) + gamma(4 * log_n + 1) * M)
            assert abs(got - a0) <= bound, (flow_type, float(got - a0), bound)
            if flow_type is AREA:   # RK4's truncation is far past the bound
                exact = flows._closed_form(p, [1.0], AREA).a0[0]
                assert abs(a0 - exact) > 1e5 * bound

    @pytest.mark.parametrize("grid, k_cut, first_zero", [
        (synthesize(P_SPARSE_SEED7, 256), 16, 500),
        (synthesize(P_FIG_A, 256), 2, 0),
        # u0 = -0.0 turns +0.0 at step 0, then stays
        (GridFunction(np.full(64, -0.0)), 2, 0)])
    @pytest.mark.parametrize("steps", [1, 499, 500, 501, 1200])
    def test_length_flow_stops_at_its_fixed_point_bit_for_bit(
            self, grid, k_cut, first_zero, steps):
        state = GridFlowState(0.25, grid, k_cut)
        d0, t, samples, zero_at = length_stages_without_exit(state, 1e-3,
                                                             steps)
        assert zero_at == (first_zero if first_zero < steps else None)
        with mock.patch.object(np.fft, "irfft", wraps=np.fft.irfft) as spy:
            got = step_grid_rk4(state, 1e-3, FlowType.LENGTH_PRESERVING,
                                steps)
        assert spy.call_args.args[0][0].real.hex() == d0.hex()
        assert got.t.hex() == t.hex()
        assert got.grid.values.tobytes() == samples.tobytes()

    @pytest.mark.parametrize("seed", [1, 3, 5, 7])
    def test_area_flow_a0_is_fourth_order(self, seed):
        # halving dt divides the a0 error at t = 1 by about 2^4 (2^4.11 at
        # each of these seeds; 1.371e-7 -> 7.96e-9 at seed 1)
        p = sparse_k16(seed)
        exact = flows._closed_form(p, [1.0], AREA).a0[0]
        err = [abs(run(FlowConfig(AREA, p, t_final=1.0, dt=dt,
                                  scheme=Scheme.GRID_RK4,
                                  record_every=round(1 / dt))
                       ).final_state.p.a0 - exact) for dt in (1e-3, 5e-4)]
        assert 3.8 <= math.log2(err[0] / err[1]) <= 4.3

    def test_circle_fixed_point(self):
        g = GridFlowState(0.0, synthesize(SupportFourier(1.5), 64), 1)
        for ft in FlowType:
            s = step_grid_rk4(g, 1e-2, ft)
            assert np.max(np.abs(s.grid.values - 1.5)) < 1e-13

    def test_mode3_decay_rate(self):
        p = SupportFourier(1.0, ((3, 0.1, 0.0),))
        cfg = FlowConfig(FlowType.LENGTH_PRESERVING, p, t_final=0.5, dt=1e-3,
                         scheme=Scheme.GRID_RK4, record_every=500)
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

    @pytest.mark.parametrize("dt", [-1.0, -5e-324, math.nan])
    def test_negative_or_nan_dt_raises(self, dt):
        # a negative dt runs the backward heat equation, whose samples reach
        # 1.6e24 by t = -10 here; nan must fail before it reaches the grid
        p = SupportFourier(1.0, ((3, 0.1, 0.0),))
        g = GridFlowState(0.0, synthesize(p, 64), 3)
        with pytest.raises(InputError, match="dt must be >= 0"):
            step_grid_rk4(g, dt, AREA, 10)

    def test_negative_zero_dt_is_accepted(self):
        p = SupportFourier(1.0, ((3, 0.1, 0.0),))
        g = GridFlowState(0.0, synthesize(p, 64), 3)
        s = step_grid_rk4(g, -0.0, AREA, 10)
        assert s.t == 0.0
        assert s.grid.values.tobytes() == g.grid.values.tobytes()

    def test_cross_scheme_agreement(self):
        theta = np.linspace(0, TWO_PI, 256, endpoint=False)
        for ft in FlowType:
            tm = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3,
                                record_every=1000))
            tg = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3,
                                scheme=Scheme.GRID_RK4, record_every=1000))
            dp = np.abs(tm.final_state.p.evaluate(theta)
                        - tg.final_state.p.evaluate(theta))
            assert np.max(dp) < 1e-8

    @given(st.integers(3, 10), st.data(), st.sampled_from(list(FlowType)))
    @settings(max_examples=150, deadline=None)
    def test_matches_three_fft_reference(self, log_n, data, ft):
        n = 2 ** log_n
        k_cut = data.draw(st.integers(0, n), label="k_cut")
        p = smooth_support(data.draw(st.integers(0, 2**32 - 1), label="seed"),
                           data.draw(st.integers(0, n // 2 - 1), label="K"),
                           data.draw(st.sampled_from([1.5, 2.0, 3.0]),
                                     label="decay"))
        dt = grid_stability_bound(k_cut) * data.draw(
            st.sampled_from([1.0, 0.5, 1e-2]), label="dt / bound")
        state = GridFlowState(0.5, synthesize(p, n), k_cut)
        got, want = (step(state, dt, ft).grid.values
                     for step in (step_grid_rk4, reference_grid_step))
        assert np.max(np.abs(got - want)) \
            <= 1e-13 * np.max(np.abs(state.grid.values))

    @pytest.mark.parametrize("n", [8, 64])
    def test_k_cut_up_to_and_past_nyquist(self, n):
        # a k_cut at or past the Nyquist mode n/2 truncates nothing
        v = synthesize(smooth_support(n, n // 2 - 1), n).values \
            + 0.01 * np.cos(n // 2 * uniform_grid(n))
        for k_cut in (0, n // 2 - 1, n // 2, n):
            state = GridFlowState(0.0, GridFunction(v), k_cut)
            dt = grid_stability_bound(k_cut)
            for ft in FlowType:
                got = step_grid_rk4(state, dt, ft).grid.values
                want = reference_grid_step(state, dt, ft).grid.values
                assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(v))

    def test_trajectory_matches_three_fft_reference(self):
        # the shape of the benchmark's grid runs: K = 16, 1000 steps of 1e-3
        p = random_curve(CurveEnsembleSpec(3, 1, 16,
                                           constraint=Constraint.CONVEX), 0)
        for ft in FlowType:
            got = want = GridFlowState(0.0, synthesize(p, 256), 16)
            for _ in range(1000):
                got = step_grid_rk4(got, 1e-3, ft)
                want = reference_grid_step(want, 1e-3, ft)
                assert np.max(np.abs(got.grid.values - want.grid.values)) \
                    <= 1e-12

    @pytest.mark.parametrize("ft", list(FlowType))
    def test_large_k_trajectory_matches_three_fft_reference(self, ft):
        # K = 128 on its 2048-point grid, 400 steps at half the stability bound
        # and one call of 400 steps against the 400 single steps
        p = smooth_support(128, 128, 1.5)
        assert default_grid_size(p.K) == 2048
        dt = 0.5 * grid_stability_bound(128)
        start = got = want = GridFlowState(0.0, synthesize(p, 2048), 128)
        scale = np.max(np.abs(got.grid.values))
        for _ in range(400):
            got = step_grid_rk4(got, dt, ft)
            want = reference_grid_step(want, dt, ft)
            assert np.max(np.abs(got.grid.values - want.grid.values)) \
                <= 1e-12 * scale
        interval = step_grid_rk4(start, dt, ft, 400)
        assert interval.t == got.t
        assert np.max(np.abs(interval.grid.values - got.grid.values)) \
            <= 1e-12 * scale

    @given(st.integers(3, 10), st.data(), st.sampled_from(list(FlowType)))
    @settings(max_examples=100, deadline=None)
    def test_steps_match_single_steps(self, log_n, data, ft):
        # steps = m carries the increments in the modes, m single steps put
        # them on the samples after each step, and m steps of the three-FFT
        # reference run every stage on the grid; blocks of 64 power entries
        # split a call into up to 200 blocks.  Only smooth curves, with
        # A > 0 under the area flow: for A <= 0, L heads to 0 there and the
        # rounding of either path grows without bound
        n = 2 ** log_n
        k_cut = data.draw(st.integers(0, n), label="k_cut")
        p = smooth_support(data.draw(st.integers(0, 2**32 - 1), label="seed"),
                           data.draw(st.integers(0, n // 2 - 1), label="K"),
                           data.draw(st.sampled_from([1.5, 2.0, 3.0]),
                                     label="decay"))
        assume(ft is not AREA or algebraic_area(p) > 0.0)
        steps = data.draw(st.integers(1, 200), label="steps")
        dt = grid_stability_bound(k_cut) * data.draw(
            st.sampled_from([1.0, 0.5, 1e-2]), label="dt / bound")
        entries = data.draw(st.sampled_from([flows.CHUNK_ENTRIES, 64]),
                            label="CHUNK_ENTRIES")
        start = want = ref = GridFlowState(0.5, synthesize(p, n), k_cut)
        for _ in range(steps):
            want = step_grid_rk4(want, dt, ft)
            ref = reference_grid_step(ref, dt, ft)
        with mock.patch.object(flows, "CHUNK_ENTRIES", entries):
            got = step_grid_rk4(start, dt, ft, steps)
        assert got.t == want.t == ref.t and got.k_cut == k_cut
        for other in (want, ref):
            assert np.max(np.abs(got.grid.values - other.grid.values)) \
                <= 1e-12 * np.max(np.abs(start.grid.values))

    @pytest.mark.parametrize("steps", [0, -3, 2.0, "2", None])
    def test_steps_must_be_an_int_of_at_least_one(self, steps):
        g = GridFlowState(0.0, synthesize(P_FIG_A, 64), 2)
        with pytest.raises(InputError, match="steps must be an int >= 1"):
            step_grid_rk4(g, 1e-2, FlowType.LENGTH_PRESERVING, steps)

    def test_length_floor_mid_interval_keeps_the_t_label(self):
        # A = 1.6e-27 > 0, so |L| falls below the floor near t = 3: a call
        # of 400 steps fails in its middle with the label of single steps
        p = SupportFourier(1.2247448713915892e-06, ((2, 0.0, 1e-6),))
        start = state = GridFlowState(0.0, synthesize(p, 256), 2)
        with pytest.raises(DegenerateLengthError) as single:
            for _ in range(400):
                state = step_grid_rk4(state, 1e-2, AREA)
        with pytest.raises(DegenerateLengthError) as interval:
            step_grid_rk4(start, 1e-2, AREA, 400)
        assert 2.0 < state.t < 3.5
        assert str(interval.value) == str(single.value)
        assert str(single.value).endswith(f"at t = {state.t}")

    def test_non_finite_stage_raises_at_the_end_of_the_interval(self):
        # lambda is inf at the first stage of the second of three steps; the
        # stages after it run on inf and nan without a numpy warning (the
        # test settings make one an error), and the samples are checked once,
        # at the end
        g = GridFlowState(0.0, synthesize(P_FIG_A, 64), 2)
        ts = []

        def inf_at_fifth_call(L, int_b2, t):
            ts.append(t)
            return math.inf if len(ts) == 5 else lambda_area(L, int_b2, t)
        with mock.patch.object(flows, "lambda_area", inf_at_fifth_call), \
                pytest.raises(InputError, match="non-finite grid values"):
            step_grid_rk4(g, 1e-2, AREA, 3)
        assert ts == [0.0] * 4 + [0.01] * 4 + [0.01 + 0.01] * 4

    def test_run_steps_once_per_record_interval(self):
        # no call for the row at step 0, then one per record interval
        config = FlowConfig(AREA, P_FIG_A, t_final=1.0, dt=1e-2,
                            scheme=Scheme.GRID_RK4, record_every=30)
        with mock.patch.object(flows, "step_grid_rk4",
                               wraps=step_grid_rk4) as spy:
            trace = run(config)
        assert [c.args[3] for c in spy.call_args_list] == [30, 30, 30, 10]
        assert [r.t for r in trace.rows] == [0.0, 0.3, 0.6, 0.9, 1.0]

    @pytest.mark.parametrize("n", [8, 64])
    def test_stage_parseval_matches_quadrature(self, n):
        # each stage's L and int beta^2, as lambda_area receives them, against
        # the periodic quadrature of the irfft samples of the reference
        # stage's input and its beta; the Nyquist mode n/2 is nonzero, so a
        # k_cut at or past it checks the weight 1 of that mode
        v = synthesize(smooth_support(n + 1, n // 2 - 1), n).values \
            + 0.05 * np.cos(n // 2 * uniform_grid(n))

        def quadrature(u, k_cut):
            uh = np.fft.rfft(u)
            uh[k_cut + 1:] = 0.0
            k = np.arange(uh.size)
            beta = np.fft.irfft((1.0 - k * k) * uh, n)
            return (periodic_quadrature(GridFunction(np.fft.irfft(uh, n))),
                    periodic_quadrature(GridFunction(beta * beta)))
        for k_cut in (1, n // 2 - 1, n // 2, n):
            state = GridFlowState(0.25, GridFunction(v), k_cut)
            dt = 0.5 * grid_stability_bound(k_cut)
            u2 = v + 0.5 * dt * reference_grid_rhs(v, AREA, k_cut, 0.25)
            u3 = v + 0.5 * dt * reference_grid_rhs(u2, AREA, k_cut, 0.25)
            u4 = v + dt * reference_grid_rhs(u3, AREA, k_cut, 0.25)
            with mock.patch.object(flows, "lambda_area",
                                   wraps=lambda_area) as spy:
                step_grid_rk4(state, dt, AREA)
            assert len(spy.call_args_list) == 4
            for call, u in zip(spy.call_args_list, (v, u2, u3, u4)):
                L, int_b2, t = call.args
                want_L, want_b2 = quadrature(u, k_cut)
                assert t == 0.25
                assert L == pytest.approx(want_L, rel=1e-13, abs=0)
                assert int_b2 == pytest.approx(want_b2, rel=1e-13, abs=0)

    @given(st.integers(0, 2**32 - 1), st.integers(1, 16),
           st.sampled_from(list(FlowType)))
    @example(seed=0, K=16, ft=FlowType.LENGTH_PRESERVING)
    @example(seed=0, K=16, ft=FlowType.AREA_PRESERVING)
    @settings(max_examples=16, deadline=None)
    def test_closed_form_matches_grid_on_convex_curves(self, seed, K, ft):
        # RK4 is stable for dt <= 1/(K^2 + 1), 1/257 at K = 16, but its error
        # on mode 16 at dt = 1e-3 reaches 1.6e-7; at dt = 2.5e-4 it is 6e-10
        dt = 2.5e-4
        assert dt <= grid_stability_bound(K)
        spec = CurveEnsembleSpec(seed, 1, K, constraint=Constraint.CONVEX)
        p = random_curve(spec, 0)
        modal, grid = (run(FlowConfig(ft, p, t_final=0.2, dt=dt, scheme=s,
                                      record_every=800)).final_state.p
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
                    dict(dt=math.nan), dict(t_final=1e300, dt=1e-300),
                    dict(t_final=1e308, dt=1e-10),
                    dict(stop_sup_dev=math.inf), dict(stop_sup_dev=math.nan),
                    dict(stop_sup_dev=-1.0)):
            with pytest.raises(InputError):
                FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, **bad)
        with pytest.raises(DegenerateLengthError):
            FlowConfig(FlowType.AREA_PRESERVING, P_ZERO_L)
        with pytest.raises(InputError, match="^record_every must be >= 1$"):
            FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, record_every=0)

    def test_record_count_cap(self):
        # constructed only: a run at the cap would keep MAX_RECORDS rows
        cap = flows.MAX_RECORDS
        for t_final, every in ((cap - 1, 1), (2 * (cap - 1), 2),
                               (2 * cap - 3, 2)):
            FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                       t_final=float(t_final), dt=1.0, record_every=every)
        for t_final, every, records in (
                (cap, 1, cap + 1), (2 * cap - 1, 2, cap + 1),
                (2 * cap, 2, cap + 1), (1e12, 1, 10 ** 12 + 1),
                (1e15, 1, 10 ** 15 + 1), (1e16, 1, 10 ** 16 + 1),
                (1e16, 10, 10 ** 15 + 1)):
            with pytest.raises(InputError, match=(
                    f"^{records} records exceed MAX_RECORDS = {cap}; "
                    f"raise dt or record_every$")):
                FlowConfig(FlowType.AREA_PRESERVING, P_FIG_A,
                           t_final=float(t_final), dt=1.0, record_every=every)

    @pytest.mark.parametrize("flow_type", list(FlowType))
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_listed_zero_modes_do_not_size_the_grid(self, flow_type, scheme):
        # a listed zero mode 600 neither grows the grid nor tightens the
        # grid oracle's stability bound (dt = 1e-2 > 1/(600^2 + 1)): the
        # rows are those of figure1a, bit for bit
        listed = SupportFourier(2.0, ((2, 0.0, 1.0), (600, 0.0, 0.0)))
        traces = [run(FlowConfig(flow_type, p, t_final=0.1, dt=1e-2,
                                 scheme=scheme, record_every=3))
                  for p in (listed, P_FIG_A)]
        assert [row_bits(r) for r in traces[0].rows] \
            == [row_bits(r) for r in traces[1].rows]
        assert traces[0].final_state.p.K == (
            600 if scheme is Scheme.EXACT_MODAL else 2)

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
                            dt=1e-3, scheme=Scheme.GRID_RK4,
                            record_every=1000))
        assert tg.final_state.p.coeff(1) == pytest.approx((0.7, -0.3),
                                                          abs=1e-10)

    def test_conservation_grid_scheme(self):
        tg = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=1.0,
                            dt=1e-3, scheme=Scheme.GRID_RK4,
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
            for d in (derivative(beta), derivative(derivative(beta))):
                rc, rs = ell_convex_residuals(synthesize(d, 64))
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


# the benchmark's three modal curves at seed 5: a dense K = 32 series lifted
# to a0 = 4, sparse_k16 and figure1a
MODAL_CURVES = {
    "dense_k32": SupportFourier(4.0, smooth_support(5, 32, 1.5).modes),
    "sparse_k16": sparse_k16(5), "figure1a": P_FIG_A}


class TestModalFinalState:
    # run's final state, step_exact_modal from the initial curve to the last
    # row's t, is the state its last on_record call was handed, bit for bit
    @pytest.mark.parametrize("name", list(MODAL_CURVES))
    @pytest.mark.parametrize("flow_type", list(FlowType))
    @pytest.mark.parametrize("t_final, dt, record_every, stop", [
        (1.0, 1e-2, 1, 0.0), (0.3, 1e-3, 7, 0.0), (6.0, 1e-2, 3, 1e-3)])
    def test_final_state_is_last_hooked_state(self, name, flow_type, t_final,
                                              dt, record_every, stop):
        config = FlowConfig(flow_type, MODAL_CURVES[name], t_final=t_final,
                            dt=dt, record_every=record_every,
                            stop_sup_dev=stop)
        hooked = []
        trace = run(config, lambda i, s: hooked.append((i, bits(s))))
        assert hooked[-1] == (len(trace.rows) - 1, bits(trace.final_state))
        assert trace.converged == (stop > 0)    # each stops by t = 2.67


class TestLazyRecordState:
    # run hands on_record a FlowState whose p, column(c, i) of its chunk's
    # block, is built when first read; 31 records in chunks of 4
    CONFIGS = [FlowConfig(flow_type, p, t_final=0.06, dt=2e-3, scheme=scheme)
               for flow_type in FlowType for scheme in Scheme
               for p in (P_FIG_A, MODAL_CURVES["sparse_k16"])]

    @staticmethod
    def blocks(config, on_record):
        """run(config, on_record) in chunks of 4 rows on 256 points, and the
        Columns of its chunks."""
        real, blocks = flows._columns, []

        def captured(*args):
            for ts, c in real(*args):
                blocks.append(c)
                yield ts, c

        with mock.patch.object(flows, "CHUNK_ENTRIES", 1024), \
                mock.patch.object(flows, "_columns", captured):
            run(config, on_record)
        return blocks

    @pytest.mark.parametrize("config", CONFIGS)
    def test_unread_states_build_nothing(self, config):
        with mock.patch.object(flows, "CHUNK_ENTRIES", 1024):
            bare = count_builds(lambda: run(config))
            assert count_builds(lambda: run(config, lambda i, s: None)) \
                == bare
            assert count_builds(lambda: run(config, lambda i, s: s.p)) \
                == bare + 31

    @pytest.mark.parametrize("config", CONFIGS)
    def test_p_is_its_column_whenever_read(self, config):
        now, states, late, stored = [], [], [], []
        blocks = self.blocks(config, lambda i, s: now.append(bits(s)))
        assert len(blocks) == 8
        want = [bits(FlowState(t, column(c, i)))
                for t, (c, i) in zip(
                    [float.fromhex(b[0]) for b in now],
                    [(c, i) for c in blocks for i in range(len(c.a0))])]
        assert now == want

        def hook(i, state):    # each p read two chunks or more later
            states.append(state)
            if i >= 9:
                late.append(bits(states[i - 9]))

        self.blocks(config, hook)
        assert late == want[:-9]
        self.blocks(config, lambda i, s: stored.append(s))
        assert [bits(s) for s in stored] == want    # read after run returns

    @pytest.mark.parametrize("config", CONFIGS)
    def test_only_p_is_built_on_read(self, config):
        # any other missing name is an AttributeError, before and after p
        # is first read, and a copy of an unread state builds its own p
        missing, copies = [], []

        def hook(i, state):
            missing.append(not hasattr(state, "q"))
            with pytest.raises(AttributeError, match="^q$"):
                getattr(state, "q")
            copies.append(copy.copy(state))
            state.p
            missing.append(not hasattr(state, "q"))
            with pytest.raises(AttributeError, match="^q$"):
                getattr(state, "q")

        blocks = self.blocks(config, hook)
        want = [bits(FlowState(s.t, column(c, i))) for s, (c, i) in zip(
            copies, [(c, i) for c in blocks for i in range(len(c.a0))])]
        assert all(missing) and len(missing) == 62
        assert [bits(s) for s in copies] == want

    @pytest.mark.parametrize("config", CONFIGS)
    def test_state_equals_its_eager_twin(self, config):
        states = []
        self.blocks(config, lambda i, s: states.append(s))
        for state in states:
            assert type(state) is FlowState
            builds = count_builds(lambda: state.p)
            twin = FlowState(state.t, state.p)
            assert state == twin and hash(state) == hash(twin)
            assert builds == 1 and state.p is twin.p
            assert count_builds(lambda: state.p) == 0


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

    def test_limit_radii_over_positive_area_ensemble(self):
        # the same limits on every curve of the positive-area K = 8 ensemble
        # at seed 5, by the closed form at t = 30: |a0| = sqrt(A0/pi) under
        # the area flow; a0 kept bit for bit, |a0| = |L0|/(2 pi), under the
        # length flow.  994 of the 2000 curves have a0 < 0, L0 < 0: the area
        # flow takes them to a0 -> -sqrt(A0/pi), the circle traced reversed
        spec = CurveEnsembleSpec(seed=5, count=2000, K=8,
                                 constraint=Constraint.POSITIVE_AREA)
        c = inequalities._columns(inequalities._chunk(spec, 0, spec.count))
        A0, L0 = algebraic_area(c), algebraic_length(c)
        assert np.sum(c.a0 < 0) == 994 and np.all(A0 > 0.01)
        a0 = np.array([[flows._closed_form(column(c, i), [30.0], flow).a0[0]
                        for i in range(spec.count)] for flow in FlowType])
        radius = {AREA: np.sqrt(A0 / math.pi), LENGTH: np.abs(L0) / TWO_PI}
        for flow, got in zip(FlowType, a0):
            assert np.all(np.sign(got) == np.sign(c.a0))
            assert np.max(np.abs(np.abs(got) - radius[flow])
                          / radius[flow]) <= 1e-12
        assert a0[list(FlowType).index(LENGTH)].tobytes() == c.a0.tobytes()


# --- run's chunked rows against one state and one diagnostics call per row ---

def one_step_reference(p: SupportFourier, dt: float,
                       flow_type: FlowType) -> SupportFourier:
    """The closed form from p after dt, one mode at a time in Python floats,
    with an a0^2 that rounds below 0 read as a0 = +-0.0."""
    modes = tuple(
        (k, a, b) if k == 1 else
        (k, a * math.exp((1 - k * k) * dt), b * math.exp((1 - k * k) * dt))
        for k, a, b in p.modes)
    a0 = p.a0
    if flow_type is AREA:
        a0_sq = p.a0 * p.a0 + 0.5 * sum(
            (1 - k * k) * (a * a + b * b) * -math.expm1(2 * (1 - k * k) * dt)
            for k, a, b in p.modes if k >= 2)
        a0 = math.copysign(math.sqrt(max(a0_sq, 0.0)), p.a0)
    return SupportFourier(a0, modes)


def bits(state: FlowState) -> tuple:
    return (state.t.hex(), state.p.a0.hex(),
            tuple((k, a.hex(), b.hex()) for k, a, b in state.p.modes))


def row_bits(row) -> list[str]:
    return [x.hex() for x in row]


def per_row_states(config: FlowConfig):
    """The state of every record step, built on its own."""
    dt, n_steps = config.dt, round(config.t_final / config.dt)
    steps = list(range(0, n_steps + 1, config.record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    if config.scheme is Scheme.EXACT_MODAL:
        start = FlowState(0.0, config.initial)
        for step in steps:
            state = FlowState(step * dt, one_step_reference(
                config.initial, step * dt, config.flow_type))
            assert bits(step_exact_modal(start, step * dt,
                                         config.flow_type)) == bits(state)
            yield state
        return
    k_cut = max(_degree(config.initial), 1)
    g = GridFlowState(0.0, synthesize(
        config.initial, default_grid_size(_degree(config.initial))), k_cut)
    done = 0
    for step in steps:
        if step > done:
            g = step_grid_rk4(g, dt, config.flow_type, step - done)
        done = step
        yield FlowState(step * dt,
                        column(analyze(g.grid.values[None], k_cut), 0))


def outcome(config: FlowConfig, per_row: bool) -> tuple:
    """The bits of the rows, of the states passed to on_record and of the
    final state of run(config), or of the same run made one state at a time;
    the states passed and the message if DegenerateLengthError is raised."""
    rows, hooked = [], []
    try:
        if not per_row:
            trace = run(config, lambda i, s: hooked.append((i, bits(s))))
            return ([row_bits(r) for r in trace.rows], hooked,
                    bits(trace.final_state), trace.converged)
        grid_n = default_grid_size(_degree(config.initial))
        for i, state in enumerate(per_row_states(config)):
            rows.append(diagnostics(state, config.flow_type, grid_n))
            hooked.append((i, bits(state)))
            if i > 0 and 0 < config.stop_sup_dev and \
                    rows[-1].sup_dev < config.stop_sup_dev:
                break
        converged = i > 0 and 0 < config.stop_sup_dev and \
            rows[-1].sup_dev < config.stop_sup_dev
        return [row_bits(r) for r in rows], hooked, bits(state), converged
    except DegenerateLengthError as exc:
        return hooked, str(exc)


def nan_sup_dev_at(record: int | None):
    """flows._sup_dev with NaN in the row of run's record `record` (None:
    nowhere), counting the rows of its calls on Columns in order."""
    real, seen = flows._sup_dev, [0]

    def patched(beta, center, grid_n):
        dev = real(beta, center, grid_n)
        if np.ndim(dev):
            if record is not None and 0 <= record - seen[0] < dev.size:
                dev[record - seen[0]] = np.nan
            seen[0] += dev.size
        return dev
    return patched


coefficient = st.one_of(st.just(0.0), st.floats(-1.0, 1.0))


@st.composite
def flow_configs(draw):
    scheme = draw(st.sampled_from(list(Scheme)))
    flow_type = draw(st.sampled_from(list(FlowType)))
    max_k = 48 if scheme is Scheme.EXACT_MODAL else 6
    ks = draw(st.one_of(
        st.sets(st.integers(1, max_k), max_size=6),
        st.integers(0, max_k).map(lambda K: set(range(1, K + 1)))))
    scale = draw(st.sampled_from([1.0, 1e-6]))
    modes = tuple((k, scale * draw(coefficient), scale * draw(coefficient))
                  for k in sorted(ks))
    a0 = draw(st.one_of(st.just(0.0), st.just(1e-11), st.floats(-3.0, 3.0)))
    if flow_type is AREA:
        # a0 solved for A = pi * a0_drawn^2
        s = 0.5 * sum((k * k - 1) * (a * a + b * b) for k, a, b in modes)
        a0 = math.copysign(math.sqrt(a0 * a0 + s), a0)
        if not algebraic_area(SupportFourier(a0, modes)) > 0.0:
            a0 = 1.0 + math.sqrt(s)
    dt = draw(st.sampled_from([1e-3, 1e-2] if scheme is Scheme.GRID_RK4
                              else [1e-3, 1e-2, 0.05, 0.25]))
    return FlowConfig(flow_type, SupportFourier(a0, modes),
                      t_final=draw(st.integers(0, 40)) * dt, dt=dt,
                      scheme=scheme, record_every=draw(st.integers(1, 12)),
                      stop_sup_dev=draw(st.sampled_from(
                          [0.0, 1e-12, 1e-4, 1e-2, 1.0])))


# mode 129 puts grid_n * 256 table rows over TABLE_MAX_ENTRIES
OVER_TABLE = SupportFourier(3.0, ((1, 0.5, 0.25), (2, 0.1, 0.2),
                                  (129, 1e-3, -1e-3)))


class TestChunkedRows:
    @given(flow_configs(), st.sampled_from([None, 1, 300, 1024, 3000]))
    @example(FlowConfig(FlowType.LENGTH_PRESERVING, OVER_TABLE, t_final=0.1,
                        dt=1e-2, record_every=3), 5000)
    @example(FlowConfig(AREA, OVER_TABLE, t_final=0.1, dt=1e-2), None)
    @example(FlowConfig(FlowType.LENGTH_PRESERVING, P_ZERO_L, t_final=1.0,
                        dt=0.05, record_every=7), 1024)
    @example(FlowConfig(AREA, SupportFourier(1.9364916731037085, (
        (1, 0.0, 0.0), (2, 0.0, 1.0), (3, 0.0, 0.75), (4, 0.0, 0.0))),
        t_final=0.002, dt=0.001, scheme=Scheme.GRID_RK4, record_every=2), 1)
    # A = 1.6e-27: the grid run fails stepping to its record 299, in the
    # middle of the chunk of records 240-359
    @example(FlowConfig(AREA, SupportFourier(1.2247448713915892e-06, (
        (2, 0.0, 1e-6),)), t_final=3.5, dt=1e-2, scheme=Scheme.GRID_RK4),
        120 * 256)
    @settings(max_examples=150, deadline=None)
    def test_rows_match_per_row_path_bit_for_bit(self, config, chunk):
        with mock.patch.object(flows, "CHUNK_ENTRIES",
                               chunk or flows.CHUNK_ENTRIES):
            got = outcome(config, per_row=False)
        assert got == outcome(config, per_row=True)

    @pytest.mark.parametrize("chunk_rows", [None, 1, 267, 268, 299, 300])
    def test_floor_and_early_stop(self, chunk_rows):
        # A = 1.6e-27 > 0, so |L| = 2 sqrt(pi A) at the limit is below the
        # floor: lambda_area fails at t = 2.99, after 299 rows; with
        # stop_sup_dev the run converges at its 268th row and never fails
        p = SupportFourier(1.2247448713915892e-06, ((2, 0.0, 1e-6),))
        assert 0.0 < algebraic_area(p) < 2e-27
        config = FlowConfig(AREA, p, t_final=3.0, dt=1e-2)
        entries = chunk_rows and chunk_rows * default_grid_size(p.K)
        with mock.patch.object(flows, "CHUNK_ENTRIES",
                               entries or flows.CHUNK_ENTRIES):
            hooked = []
            with pytest.raises(DegenerateLengthError, match=(
                    r"^\|L\| = 9\.786e-10 below floor 1e-09 at t = 2\.99$")):
                run(config, lambda i, s: hooked.append(i))
            assert hooked == list(range(299))
            trace = run(replace(config, stop_sup_dev=1e-9),
                        lambda i, s: hooked.append(i))
        assert trace.converged and len(trace.rows) == 268
        assert hooked[299:] == list(range(268))
        assert trace.rows[-1].sup_dev < 1e-9 <= trace.rows[-2].sup_dev
        assert outcome(replace(config, stop_sup_dev=1e-9), per_row=True) \
            == outcome(replace(config, stop_sup_dev=1e-9), per_row=False)
        # a non-finite field before the floor's record is raised instead; at
        # the same record DegenerateLengthError comes first
        floor = r"\|L\| = 9\.786e-10 below floor 1e-09 at t = 2\.99"
        for nan_at, rows, message in (
                (298, 298, r"non-finite sup_dev = nan at t = 2\.98"),
                (299, 299, floor), (300, 299, floor)):
            hooked = []
            with mock.patch.object(flows, "CHUNK_ENTRIES",
                                   entries or flows.CHUNK_ENTRIES), \
                    mock.patch.object(flows, "_sup_dev",
                                      nan_sup_dev_at(nan_at)), \
                    pytest.raises((InputError, DegenerateLengthError),
                                  match=f"^{message}$"):
                run(config, lambda i, s: hooked.append(i))
            assert hooked == list(range(rows))

    def test_grid_error_mid_chunk_comes_after_the_rows_stepped(self):
        # the fifth call, to record 5, fails: records 0-4 reach on_record;
        # record 5 is never computed, so a non-finite field there does not
        # show, and one at record 4 is raised after records 0-3
        config = FlowConfig(AREA, P_FIG_A, t_final=0.1, dt=1e-2,
                            scheme=Scheme.GRID_RK4)
        for nan_at, rows, message in (
                (None, 5, "injected"), (5, 5, "injected"),
                (4, 4, r"non-finite sup_dev = nan at t = 0\.04")):
            calls, hooked = [], []

            def fail_fifth(*args):
                calls.append(args)
                if len(calls) == 5:
                    raise InputError("injected")
                return step_grid_rk4(*args)
            with mock.patch.object(flows, "step_grid_rk4", fail_fifth), \
                    mock.patch.object(flows, "_sup_dev",
                                      nan_sup_dev_at(nan_at)), \
                    pytest.raises(InputError, match=f"^{message}$"):
                run(config, lambda i, s: hooked.append(i))
            assert hooked == list(range(rows))

    def test_non_finite_series_mid_chunk_comes_after_the_records_before_it(
            self):
        # the third call returns samples of 1e307, whose sum overflows:
        # record 3's series is not finite, so records 0-2 reach on_record,
        # though the chunk steps on and fails again at its next call
        config = FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=0.1,
                            dt=1e-2, scheme=Scheme.GRID_RK4)
        calls, hooked = [], []

        def huge_third(state, *args):
            calls.append(args)
            if len(calls) == 3:
                return GridFlowState(state.t, GridFunction(
                    np.full(state.grid.n, 1e307)), state.k_cut)
            return step_grid_rk4(state, *args)
        with mock.patch.object(flows, "step_grid_rk4", huge_third), \
                pytest.raises(InputError, match="^non-finite coefficient$"):
            run(config, lambda i, s: hooked.append(i))
        assert hooked == [0, 1, 2] and len(calls) == 4
        with pytest.raises(InputError, match="^non-finite coefficient$"):
            column(analyze(np.full((1, 256), 1e307), 2), 0)

    def test_non_finite_field_mid_chunk_comes_after_the_rows_before_it(self):
        # sup_dev is NaN at record 5 of the one chunk: records 0-4 reach
        # on_record, then its InputError is raised
        config = FlowConfig(AREA, P_FIG_A, t_final=0.2, dt=1e-2)
        hooked = []
        with mock.patch.object(flows, "_sup_dev", nan_sup_dev_at(5)), \
                pytest.raises(InputError, match=(
                    r"^non-finite sup_dev = nan at t = 0\.05$")):
            run(config, lambda i, s: hooked.append(i))
        assert hooked == [0, 1, 2, 3, 4]

    def test_final_row_check(self):
        # diagnostics is _rows' one-row case on a float t: only the chunk's
        # column calls flip E2's last bit
        config = FlowConfig(AREA, P_FIG_A, t_final=0.1, dt=1e-2)
        real = flows._rows

        def off_by_one_bit(t, c, flow_type, grid_n):
            rows = real(t, c, flow_type, grid_n)[0].copy()
            if np.ndim(t) == 1:
                rows[-1, E2] = math.nextafter(rows[-1, E2], math.inf)
            return rows, None
        with mock.patch.object(flows, "_rows", off_by_one_bit), \
                pytest.raises(RuntimeError, match="final row"):
            run(config)

    @pytest.mark.parametrize("flow_type", list(FlowType))
    def test_diagnostics_names_a_non_finite_field(self, flow_type):
        # every coefficient is finite, but pi a0^2 is not: the one-row case
        # raises the InputError of the row kernel
        state = FlowState(0.0, SupportFourier(1e300, ((2, 0.0, 1.0),)))
        with pytest.raises(InputError,
                           match=r"^non-finite A = inf at t = 0\.0$"):
            diagnostics(state, flow_type, 256)


def cut_outcome(run_fn, config: FlowConfig) -> tuple:
    """The bits of the rows, of the (index, state) pairs passed to on_record
    and of the final state of run_fn(config), and whether it converged; or
    the pairs passed and the error raised."""
    hooked = []
    try:
        trace = run_fn(config, lambda i, s: hooked.append((i, bits(s))))
    except (InputError, DegenerateLengthError) as exc:
        return hooked, repr(exc)
    assert trace.table.dtype == np.float64 and trace.table.shape[1] == 11
    return ([row_bits(r) for r in trace.rows], hooked,
            bits(trace.final_state), trace.converged)


@functools.lru_cache(maxsize=None)
def figure1a_sup_dev(scheme: Scheme, flow_type: FlowType) -> np.ndarray:
    """sup_dev of figure1a's 31 rows over t in [0, 0.3], dt = 0.01."""
    sup = run(FlowConfig(flow_type, P_FIG_A, t_final=0.3, dt=1e-2,
                         scheme=scheme)).table[:, SUP_DEV]
    assert sup.shape == (31,) and np.all(np.diff(sup) < 0)
    return sup


class TestChunkCut:
    """run cuts a chunk after its first converged row, and calls on_record
    only on the rows it keeps; reference_run walks the same rows one at a
    time, as run did before its rows became one block."""

    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("flow_type", list(FlowType))
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4])
    @pytest.mark.parametrize("place", [
        "first of a chunk", "last of a chunk", "in a later chunk",
        "row 1, row 0 below too", "never"])
    def test_stop_matches_per_row_loop(self, scheme, flow_type, chunk_rows,
                                       place):
        # sup_dev falls strictly, so a stop just above row r's sup_dev
        # converges at row r; row 0 never converges, so a stop above every
        # row's converges at row 1
        sup = figure1a_sup_dev(scheme, flow_type)
        r = {"first of a chunk": chunk_rows,
             "last of a chunk": 2 * chunk_rows - 1,
             "in a later chunk": 5 * chunk_rows + chunk_rows // 2,
             "row 1, row 0 below too": 1, "never": None}[place]
        stop = float(sup.min()) / 2 if r is None else 1e300 \
            if place.startswith("row 1") \
            else math.nextafter(float(sup[r]), math.inf)
        config = FlowConfig(flow_type, P_FIG_A, t_final=0.3, dt=1e-2,
                            scheme=scheme, stop_sup_dev=stop)
        with mock.patch.object(flows, "CHUNK_ENTRIES", chunk_rows * 256):
            got = cut_outcome(run, config)
            assert got == cut_outcome(reference_run, config)
        rows, hooked, _, converged = got
        assert converged is (r is not None)
        assert len(rows) == (31 if r is None else r + 1)
        assert [i for i, _ in hooked] == list(range(len(rows)))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_converges_and_fails_in_one_chunk(self, scheme):
        # A = 1.6e-27: the modal run fails on record 299's row (lambda_area's
        # floor), the grid run stepping to it; in chunks of 4 rows either
        # failure shares the chunk of records 296-299 with record 297, and
        # converging there drops the chunk's error
        p = SupportFourier(1.2247448713915892e-06, ((2, 0.0, 1e-6),))
        config = FlowConfig(AREA, p, t_final=3.0, dt=1e-2, scheme=scheme)
        sup = run(replace(config, t_final=2.97)).table[:, SUP_DEV]
        assert sup.shape == (298,) and np.all(np.diff(sup[290:]) < 0)
        stopped = replace(config, stop_sup_dev=math.nextafter(
            float(sup[297]), math.inf))
        with mock.patch.object(flows, "CHUNK_ENTRIES",
                               4 * default_grid_size(p.K)):
            failed = cut_outcome(run, config)
            got = cut_outcome(run, stopped)
            assert failed == cut_outcome(reference_run, config)
            assert got == cut_outcome(reference_run, stopped)
        hooked, error = failed
        assert "DegenerateLengthError" in error
        assert [i for i, _ in hooked] == list(range(299))
        assert got[3] and len(got[0]) == len(got[1]) == 298


# --- the row kernel against its fields in Python floats ---------------------

@st.composite
def listed_blocks(draw):
    """Columns over 1 to 130 rows, so that a run's chunks of 64 or 128 rows
    and their remainders are covered, with up to 64 listed modes, some
    exactly zero in every row, signed zero coefficients, and a0 = +-0.0 in
    some rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    K = draw(st.sampled_from([0, 1, 2, 3, 8, 32, 64]))
    ks = np.flatnonzero(rng.random(K) < draw(st.sampled_from([0.5, 1.0]))) + 1
    rows = draw(st.sampled_from([1, 2, 127, 128, 129, 130])
                | st.integers(1, 130))
    ab = rng.uniform(-1.0, 1.0, (ks.size, 2, rows)) \
        / ks[:, None, None] ** draw(st.sampled_from([0.0, 1.5]))
    ab[rng.random(ks.size) < 0.3] = 0.0
    signed = rng.choice([0.0, -0.0], ab.shape)
    ab = np.where(rng.random(ab.shape) < 0.1, signed, ab)
    a0 = rng.uniform(-3.0, 3.0, rows)
    zero = rng.random(rows) < draw(st.sampled_from([0.0, 0.1]))
    return Columns(np.where(zero, rng.choice([0.0, -0.0], rows), a0), ks, ab)


ROW_FIELDS = ("L", "A", "deficit", "Q", "lam", "E1", "E2", "a0",
              "max_abs_mode")


class TestRowsAgainstReference:
    @given(listed_blocks(), st.sampled_from(list(FlowType)))
    @example(Columns(np.array([0.0, -0.0]), np.zeros(0, dtype=int),
                     np.zeros((0, 2, 2))), FlowType.LENGTH_PRESERVING)
    @example(stack([SupportFourier(-0.0, ((1, 0.5, 0.0), (5, 0.0, 0.0)))]),
             FlowType.LENGTH_PRESERVING)
    @settings(max_examples=150, deadline=None)
    def test_rows_and_moments_match_reference_bit_for_bit(self, c, flow_type):
        want = reference_rows(c, flow_type)
        m = moments(c)
        for name, col in (("L", m.L), ("A", m.A), ("int_b2", m.int_b2),
                          ("E1", m.int_db2)):
            assert [x.hex() for x in col.tolist()] \
                == [r[name].hex() for r in want], name
        # rows up to the first whose lambda the area flow leaves undefined
        cut = next((i for i, r in enumerate(want) if r["lam"] is None),
                   len(want))
        grid_n = default_grid_size(int(c.k[-1]) if c.k.size else 0)
        block, error = flows._rows((np.arange(c.a0.size) / 8).tolist(), c,
                                   flow_type, grid_n)
        assert block.shape == (cut, 11) and block.dtype == np.float64
        rows = list(map(DiagnosticsRow._make, block.tolist()))
        assert isinstance(error, DegenerateLengthError) if cut < len(want) \
            else error is None
        for row, ref in zip(rows, want):
            assert [getattr(row, f).hex() for f in ROW_FIELDS] \
                == [ref[f].hex() for f in ROW_FIELDS]
        # a SupportFourier goes through as its one-row block
        for i in {0, c.a0.size - 1}:
            mi = moments(column(c, i))
            assert [x.hex() for x in (mi.L, mi.A, mi.int_b2, mi.int_db2)] \
                == [want[i][f].hex() for f in ("L", "A", "int_b2", "E1")]

    @given(listed_blocks(), st.sampled_from(list(FlowType)),
           st.lists(st.sampled_from([0.0, 1e-3, 0.0625, 0.3, 2.0, 40.0])
                    | st.floats(0.0, 50.0), min_size=1, max_size=130),
           st.sampled_from([None, 1e-3, 1e-9]))
    @example(stack([SupportFourier(-0.0, ((1, 0.5, -0.0), (5, 0.0, 0.0)))]),
             FlowType.AREA_PRESERVING, [0.0, 1.0], None)
    @settings(max_examples=150, deadline=None)
    def test_closed_form_matches_reference_bit_for_bit(self, c, flow_type, ts,
                                                       margin):
        # row 0 of the block as the initial curve, at up to 130 times; with
        # a margin, a0^2 exceeds (1/2) sum (k^2 - 1) c_k^2 by that fraction,
        # so a0(t)^2 -> A/pi is small and shows its sum's last bits
        p = column(c, 0)
        if margin is not None:
            s = sum((k * k - 1.0) * (a * a + b * b) for k, a, b in p.modes)
            p = SupportFourier(math.sqrt(0.5 * s * (1.0 + margin)), p.modes)
        want = reference_closed_form(p, ts, flow_type)
        got = flows._closed_form(p, ts, flow_type)
        assert got.ab.shape == (len(p.modes), 2, len(ts))
        for i, (a0, modes) in enumerate(want):
            assert [x.hex() for x in column(got, i).modes for x in x[1:]] \
                == [x.hex() for m in modes for x in m[1:]]
            assert float(got.a0[i]).hex() == a0.hex()


# --- _sup_dev's screen against the full-grid evaluate -----------------------

@st.composite
def screened_columns(draw):
    """Columns p whose rows are flat, k-fold symmetric, far from the origin,
    full of signed zeros or not finite, with K up to past the largest
    cached trig table (K = 128 on 2048 points)."""
    K = draw(st.sampled_from([1, 2, 3, 8, 32, 64, 128, 129, 200]))
    kind = draw(st.sampled_from(
        ["generic", "flat", "ties", "far", "zeros", "nonfinite"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = draw(st.integers(1, 6))
    ks = np.arange(1, K + 1)
    ab = rng.normal(size=(2, K, rows)) / ks[:, None] ** draw(
        st.sampled_from([0.0, 1.0, 2.0]))
    a0 = rng.uniform(-3.0, 3.0, rows)
    if kind == "flat":
        ab *= 1e-17 * np.abs(a0)
    elif kind == "ties":
        fold = draw(st.sampled_from([2, 4, 8]))
        ab[:, ks % fold != 0] = 0.0
    elif kind == "far":
        a0 = np.copysign(10.0 ** rng.uniform(0, 8, rows), a0)
    elif kind == "zeros":
        signed = rng.choice([0.0, -0.0], size=ab.shape)
        ab = np.where(rng.random(ab.shape) < 0.5, signed, ab)
        a0 = np.where(rng.random(rows) < 0.5, rng.choice([0.0, -0.0]), a0)
    elif kind == "nonfinite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        if draw(st.booleans()):
            a0[draw(st.integers(0, rows - 1))] = bad
        else:
            ab[draw(st.integers(0, 1)), draw(st.integers(0, K - 1)),
               draw(st.integers(0, rows - 1))] = bad
    return Columns(a0, ks, ab.transpose(1, 0, 2))


class TestScreenedSupDev:
    @given(screened_columns())
    @example(stack([SupportFourier(2.0, ((2, 0.0, 1.0),))] * 3))
    @settings(max_examples=200, deadline=None)
    def test_matches_full_grid_bit_for_bit(self, c):
        n = default_grid_size(int(c.k[-1]))
        with np.errstate(all="ignore"):
            m = moments(c)
            center = m.L / TWO_PI
            want = full_sup_dev(m.beta, center, n)
            assert flows._sup_dev(m.beta, center, n).tobytes() \
                == want.tobytes()
        for i in np.flatnonzero(np.isfinite(c.a0)
                                & np.all(np.isfinite(c.ab), axis=(0, 1))):
            # one row as a SupportFourier
            beta = beta_of(column(c, i))
            got = flows._sup_dev(beta, float(m.L[i] / TWO_PI), n)
            assert np.reshape(got, -1).tobytes() == want[i:i + 1].tobytes()

    def test_screen_skips_the_full_grid_until_rows_are_flat(self):
        # figure1a keeps its 4 symmetric maxima on the screened points; at
        # round-off every point is a candidate and evaluate sums them all
        for t, full in ((np.linspace(0.0, 0.3, 64), False),
                        (np.array([15.0, 15.5]), True)):
            m = moments(flows._closed_form(P_FIG_A, t.tolist(), AREA))
            with mock.patch.object(SupportFourier, "evaluate",
                                   wraps=SupportFourier.evaluate) as spy:
                got = flows._sup_dev(m.beta, m.L / TWO_PI, 256)
            assert spy.called == full
            assert got.tobytes() == full_sup_dev(
                m.beta, m.L / TWO_PI, 256).tobytes()

    def test_one_row_sums_the_whole_grid(self):
        # a screen has nothing to share on one row, as a SupportFourier (a
        # grid-scheme row) or as one-row Columns (a modal chunk of one time)
        c = flows._closed_form(P_FIG_A, [0.1], AREA)
        for p in (c, column(c, 0)):
            m = moments(p)
            with mock.patch.object(SupportFourier, "evaluate",
                                   wraps=SupportFourier.evaluate) as spy:
                got = flows._sup_dev(m.beta, m.L / TWO_PI, 256)
            assert spy.call_count == 1
            assert spy.call_args.args[1] is uniform_grid(256)
            assert np.reshape(got, -1).tobytes() == np.reshape(full_sup_dev(
                m.beta, m.L / TWO_PI, 256), -1).tobytes()

    def test_modes_zero_in_every_row_are_left_out(self):
        # figure1a with mode 600 = 0 0 listed: the screen and the redo read
        # the degree-2 table, and every max keeps the bits it has without
        # the listed mode, also on flat late rows and on one row, which
        # evaluate sums on the whole grid
        listed = SupportFourier(2.0, ((2, 0.0, 1.0), (600, 0.0, 0.0)))
        for t, tables in ((np.linspace(0.0, 0.3, 64), [2]),
                          (np.array([15.0, 15.5]), [2]),
                          (np.array([0.1]), [])):
            got = {}
            for p in (P_FIG_A, listed):
                m = moments(flows._closed_form(p, t.tolist(), AREA))
                with mock.patch.object(flows, "_grid_table",
                                       wraps=flows._grid_table) as spy:
                    got[p] = flows._sup_dev(m.beta, m.L / TWO_PI, 256)
                assert [c.args[1] for c in spy.call_args_list] == tables
            assert got[listed].tobytes() == got[P_FIG_A].tobytes()
