import math
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
import hypothesis.strategies as st

from legendreflow import (Constraint, CurveEnsembleSpec, CurveKind,
                          FlowConfig, FlowType, GridFunction, InputError,
                          NotZeroLengthError, RejectionExhaustedError,
                          SupportFourier, algebraic_area, algebraic_length,
                          beta_of, check_beta2_family, check_beta2_zero_length,
                          check_grad_family, check_grad_zero_length,
                          check_isoperimetric, classify,
                          green_osher_quadratic, inequality_table, moments,
                          random_curve, run, run_ensemble, synthesize,
                          uniform_grid)
from legendreflow import inequalities
from legendreflow.inequalities import SLACK_TOL
from conftest import rand_support
from helpers import (ModeNotExcludedError, equality_family,
                     periodic_quadrature, wirtinger_gap, with_mode)

P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))
P_NEG = SupportFourier(0.0, ((1, 2.0, 1.0), (2, 2.0, 1.0)))


def quad_int_beta2(p, n=512):
    b = synthesize(beta_of(p), n).values
    return periodic_quadrature(GridFunction(b * b))


class TestIsoperimetric:
    def test_circle_equality(self):
        assert check_isoperimetric(moments(SupportFourier(1.7))) == \
            pytest.approx(0.0, abs=1e-12)

    def test_fig_a(self):
        assert check_isoperimetric(moments(P_FIG_A)) == pytest.approx(
            6 * math.pi ** 2, abs=1e-10)

    def test_negative_area_curve(self):
        assert check_isoperimetric(moments(P_NEG)) == pytest.approx(
            30 * math.pi ** 2, abs=1e-10)


class TestBeta2Family:
    def test_sharp_at_tau8_for_mode012(self):
        p = equality_family(2.0, 0.0, 0.0, 0.3, 0.0)
        slack = check_beta2_family(moments(p), 8.0)
        assert abs(slack) <= 1e-10 and slack >= -SLACK_TOL

    def test_tau0_is_basic_inequality(self, rng):
        for _ in range(50):
            p = rand_support(rng, K=6)
            slack = check_beta2_family(moments(p), 0.0)
            assert slack >= -1e-9
            # slack at tau = 0 is int beta^2 - 2A, cross-checked by quadrature
            oracle = quad_int_beta2(p) - 2 * algebraic_area(p)
            assert slack == pytest.approx(oracle, abs=1e-9)

    def test_mode3_breaks_sharpness(self):
        p = SupportFourier(1.0, ((3, 0.1, 0.0),))
        assert check_beta2_family(moments(p), 8.0) > 1e-3

    def test_tau_monotone_and_expected_violable(self, rng):
        p = rand_support(rng, K=4)
        if check_isoperimetric(moments(p)) > 0:
            assert check_beta2_family(moments(p), 8.0) <= \
                check_beta2_family(moments(p), 4.0) + 1e-12
        rows = {r.ineq_id: r for r in inequality_table([8.0, 9.0], [], False)}
        assert rows["beta2_family(tau=9)"].expected_violable
        assert not rows["beta2_family(tau=8)"].expected_violable

    @pytest.mark.parametrize("taus, xis", [
        ([math.nan], []), ([], [math.inf]), ([8.0, -math.inf], [24.0]),
        ([8.0], [24.0, math.nan])])
    @pytest.mark.parametrize("zero_length", [False, True])
    def test_table_refuses_non_finite_parameters(self, taus, xis,
                                                 zero_length):
        with pytest.raises(InputError, match="^tau and xi must be finite$"):
            inequality_table(taus, xis, zero_length)


class TestBeta2ZeroLength:
    def test_sharp_mode2(self):
        p = SupportFourier(0.0, ((2, 0.7, 0.0),))
        # int beta^2 = 9 pi a2^2, A = -(3 pi / 2) a2^2
        assert abs(check_beta2_zero_length(moments(p), 6.0)) <= 1e-10

    def test_mode3_strict(self):
        p = SupportFourier(0.0, ((3, 0.4, 0.0),))
        assert check_beta2_zero_length(moments(p), 6.0) > 0

    def test_point_equality(self):
        p = SupportFourier(0.0, ((1, 1.0, -2.0),))
        assert check_beta2_zero_length(moments(p), 6.0) == pytest.approx(0.0)

    def test_rejects_nonzero_length(self):
        with pytest.raises(NotZeroLengthError):
            check_beta2_zero_length(moments(P_FIG_A), 6.0)


class TestGradFamily:
    def test_sharp_at_xi24(self):
        p = equality_family(2.0, 0.5, -0.3, 0.3, 0.1)
        assert abs(check_grad_family(moments(p), 24.0)) <= 1e-10

    def test_circle_trivial(self):
        slack = check_grad_family(moments(SupportFourier(1.0)), 24.0)
        assert slack == pytest.approx(0.0, abs=1e-12)

    def test_scaled_form(self, rng):
        # (1/12) int beta'^2 - 2(L^2/4pi - A) = slack(xi = 24) / 12
        p = rand_support(rng, K=5)
        slack = check_grad_family(moments(p), 24.0)
        from legendreflow import l2_quantities
        int_db2 = l2_quantities(beta_of(p))["int_dp2"]
        L = algebraic_length(p)
        A = algebraic_area(p)
        lhs = int_db2 / 12 - 2 * (L * L / (4 * math.pi) - A)
        assert lhs == pytest.approx(slack / 12, abs=1e-10)
        assert lhs >= -1e-9

    def test_zero_length_branch(self):
        p = SupportFourier(0.0, ((2, 0.7, 0.2),))
        assert abs(check_grad_zero_length(moments(p), 24.0)) <= 1e-10
        with pytest.raises(NotZeroLengthError):
            check_grad_zero_length(moments(P_FIG_A), 24.0)


class TestGreenOsher:
    def test_circle(self):
        assert green_osher_quadratic(moments(SupportFourier(2.0))) == \
            pytest.approx(0.0, abs=1e-12)

    def test_fig_a(self):
        assert green_osher_quadratic(moments(P_FIG_A)) == \
            pytest.approx(6 * math.pi, abs=1e-10)

    def test_random_ensemble_nonnegative(self, rng):
        for _ in range(100):
            p = rand_support(rng, K=8)
            assert green_osher_quadratic(moments(p)) >= -1e-9


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


class TestSpecBound:
    # a spec whose one curve needs more than CHUNK_ENTRIES entries is
    # refused when it is made: these specs are only constructed, never run
    @pytest.mark.parametrize("K, constraint", [
        (32768, Constraint.NONE), (32768, Constraint.POSITIVE_AREA),
        (32768, Constraint.ZERO_LENGTH), (65536, Constraint.CONVEX),
        (10 ** 30, Constraint.NONE)])
    def test_refused_above_chunk_entries(self, K, constraint):
        with pytest.raises(InputError, match=re.escape(
                f"more than CHUNK_ENTRIES = {inequalities.CHUNK_ENTRIES}")):
            CurveEnsembleSpec(seed=1, count=1, K=K, constraint=constraint)

    @pytest.mark.parametrize("K, constraint", [
        (32767, Constraint.NONE), (32767, Constraint.POSITIVE_AREA),
        (32767, Constraint.ZERO_LENGTH), (65535, Constraint.CONVEX)])
    def test_accepted_at_chunk_entries(self, K, constraint):
        spec = CurveEnsembleSpec(seed=1, count=1, K=K, constraint=constraint)
        assert inequalities._entries_per_curve(spec) \
            <= inequalities.CHUNK_ENTRIES


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
        for rep in run_ensemble(spec, inequality_table([8.0], [24.0], False)):
            assert rep.holds and rep.n_violations == 0
            assert rep.n_checked == 200
            assert rep.witness is not None

    def test_tau_above_8_finds_violation(self):
        # slack(tau) = pi sum (k^2-1)(k^2 - tau/2) c_k^2: any mode-2 mass
        # goes negative for tau > 8
        spec = CurveEnsembleSpec(seed=42, count=50, K=2)
        reports = run_ensemble(spec, inequality_table([8.5], [], False))
        rep = reports[2]
        assert rep.ineq_id == "beta2_family(tau=8.5)"
        assert rep.n_violations >= 1
        assert not rep.holds
        assert rep.expected_violable


def reference_reduction(spec, taus, xis):
    """(id, parameter, expected_violable, min slack, witness, violations)
    per inequality, from a plain loop over the checkers and the curves
    drawn one at a time by oracle_curve."""
    zero = spec.constraint is Constraint.ZERO_LENGTH
    checks = ([("isoperimetric", None, False, check_isoperimetric),
               ("green_osher_quadratic", None, False, green_osher_quadratic)]
              + [(f"beta2_family(tau={t:g})", t, t > 8,
                  lambda m, t=t: check_beta2_family(m, t)) for t in taus]
              + [(f"grad_family(xi={x:g})", x, x > 24,
                  lambda m, x=x: check_grad_family(m, x)) for x in xis])
    if zero:
        checks += [("beta2_zero_length(tau=6)", 6.0, False,
                    lambda m: check_beta2_zero_length(m, 6.0)),
                   ("grad_zero_length(xi=24)", 24.0, False,
                    lambda m: check_grad_zero_length(m, 24.0))]
    curves = [oracle_curve(spec, i) for i in range(spec.count)]
    out = []
    for ineq_id, parameter, violable, check in checks:
        slacks = [check(moments(p)) for p in curves]
        best = min(range(spec.count), key=slacks.__getitem__)
        out.append((ineq_id, parameter, violable, slacks[best].hex(),
                    curves[best], sum(not s >= -SLACK_TOL for s in slacks)))
    return out


@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 6),
       st.sampled_from(list(Constraint)))
@example(seed=5, count=7, K=1, constraint=Constraint.ZERO_LENGTH)
@settings(max_examples=40, deadline=None)
def test_run_ensemble_matches_reference_reduction(seed, count, K, constraint):
    # K = 1 zero-length curves have every slack exactly 0, so ties occur
    spec = CurveEnsembleSpec(seed, count, K, constraint=constraint)
    taus, xis = [0.0, 4.0, 8.0, 9.0], [0.0, 12.0, 24.0, 25.0]
    rows = inequality_table(taus, xis, constraint is Constraint.ZERO_LENGTH)
    got = [(r.ineq_id, r.parameter, r.expected_violable, r.slack.hex(),
            r.witness, r.n_violations) for r in run_ensemble(spec, rows)]
    assert got == reference_reduction(spec, taus, xis)
    for rep in run_ensemble(spec, rows):
        assert rep.n_checked == count and rep.holds == (rep.n_violations == 0)


# --- the array ensemble against a per-curve oracle ----------------------------

_MASK64 = (1 << 64) - 1


def oracle_splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def oracle_unit(*key: int) -> float:
    """splitmix64 folded over (seed, index, mode, slot, attempt), over 2^64,
    in Python integers."""
    h = 0
    for part in key:
        h = oracle_splitmix64(h ^ (part & _MASK64))
    return h / 2.0 ** 64


def oracle_curve(spec, index):
    """Curve `index` drawn one coefficient at a time in Python integers,
    with the constraint applied to that one curve."""
    s = spec.amplitude_decay
    for attempt in range(10_000):
        def draw(mode, slot):
            bound = (mode + 1.0) ** (-s)
            return (2.0 * oracle_unit(spec.seed, index, mode, slot, attempt)
                    - 1.0) * bound

        a0 = draw(0, 0)
        modes = tuple((k, draw(k, 0), draw(k, 1))
                      for k in range(1, spec.K + 1))
        if spec.constraint is Constraint.ZERO_LENGTH:
            return SupportFourier(0.0, modes)
        if spec.constraint is Constraint.CONVEX:
            rest = SupportFourier(0.0, modes)
            theta = uniform_grid(max(4 * (spec.K + 1), 256))
            min_p = float(np.min(rest.evaluate(theta)))
            min_b = float(np.min(beta_of(rest).evaluate(theta)))
            lift = max(0.1 - min_p, 0.1 - min_b, 0.0) + 1e-9
            return SupportFourier(max(a0, 0.0) + lift, modes)
        p = SupportFourier(a0, modes)
        if (spec.constraint is not Constraint.POSITIVE_AREA
                or algebraic_area(p) > 0.01):
            return p
    raise AssertionError("oracle rejection budget exhausted")


def oracle_reports(spec, rows):
    """(id, min slack as hex, witness, violations) per row from one loop
    over the curves: the first index wins ties."""
    low, witness, violations = [None] * len(rows), [None] * len(rows), \
        [0] * len(rows)
    for index in range(spec.count):
        m = moments(p := oracle_curve(spec, index))
        for j, row in enumerate(rows):
            slack = row(m)
            violations[j] += not slack >= -SLACK_TOL
            if low[j] is None or slack < low[j]:
                low[j], witness[j] = slack, p
    return [(row.ineq_id, slack.hex(), p, v)
            for row, slack, p, v in zip(rows, low, witness, violations)]


def ensemble_reports(spec, rows):
    return [(r.ineq_id, r.slack.hex(), r.witness, r.n_violations)
            for r in run_ensemble(spec, rows)]


ALL_TAUS, ALL_XIS = [0.0, 4.0, 8.0, 9.0], [0.0, 12.0, 24.0, 25.0]


@pytest.mark.parametrize("constraint", list(Constraint))
def test_first_10k_indices_match_per_curve_oracle(constraint, monkeypatch):
    # with 2^16 entries a chunk, 10^4 curves at K = 8 span several chunks
    # under every constraint: 256 curves each for convex, 963 for the rest
    monkeypatch.setattr(inequalities, "CHUNK_ENTRIES", 1 << 16)
    spec = CurveEnsembleSpec(42, 10_000, 8, constraint=constraint)
    assert spec.count > 2 * (inequalities.CHUNK_ENTRIES
                             // inequalities._entries_per_curve(spec))
    rows = inequality_table(ALL_TAUS, ALL_XIS,
                            constraint is Constraint.ZERO_LENGTH)
    assert ensemble_reports(spec, rows) == oracle_reports(spec, rows)


@st.composite
def ensemble_specs(draw, counts):
    """Seeds below 0 and at or above 2^63 included; below decay 1.5 a K = 32
    curve almost never has A > 0.01, so positive-area draws from 1.5 up."""
    constraint = draw(st.sampled_from(list(Constraint)))
    low = 1.5 if constraint is Constraint.POSITIVE_AREA else 0.0
    seed = draw(st.one_of(st.integers(-2**70, -1), st.integers(0, 2**32),
                          st.integers(2**63, 2**70)))
    return CurveEnsembleSpec(seed, draw(counts), draw(st.integers(1, 32)),
                             draw(st.floats(low, 3.0)), constraint)


def chunked_reports(spec, rows, per_chunk):
    """run_ensemble with chunks of per_chunk curves."""
    entries = per_chunk * inequalities._entries_per_curve(spec)
    with mock.patch.object(inequalities, "CHUNK_ENTRIES", entries):
        return ensemble_reports(spec, rows)


@given(ensemble_specs(st.integers(2, 24)), st.data())
@settings(max_examples=60, deadline=None)
def test_chunked_ensemble_matches_per_curve_oracle(spec, data):
    per_chunk = data.draw(st.integers(1, spec.count - 1))   # >= 2 chunks
    rows = inequality_table(ALL_TAUS, ALL_XIS,
                            spec.constraint is Constraint.ZERO_LENGTH)
    assert chunked_reports(spec, rows, per_chunk) == \
        oracle_reports(spec, rows)


def test_hundreds_of_rejection_rounds_match_per_curve_oracle():
    # at K = 3 with no amplitude decay about one draw in a hundred has
    # A > 0.01: the last of these 40 curves is accepted at attempt 430
    spec = CurveEnsembleSpec(7, 40, 3, 0.0, Constraint.POSITIVE_AREA)
    rows = inequality_table(ALL_TAUS, ALL_XIS, False)
    assert chunked_reports(spec, rows, 16) == oracle_reports(spec, rows)


def test_ties_go_to_the_first_index():
    # K = 1 zero-length curves are points: every slack is exactly 0
    spec = CurveEnsembleSpec(5, 9, 1, constraint=Constraint.ZERO_LENGTH)
    rows = inequality_table(ALL_TAUS, ALL_XIS, True)
    got = chunked_reports(spec, rows, 4)
    assert got == oracle_reports(spec, rows)
    assert {(slack, p) for _, slack, p, _ in got} == \
        {((0.0).hex(), random_curve(spec, 0))}


@given(ensemble_specs(st.just(1)), st.integers(0, 2**40))
@settings(max_examples=60, deadline=None)
def test_random_curve_matches_per_curve_oracle(spec, index):
    spec = CurveEnsembleSpec(spec.seed, index + 1, spec.K,
                             spec.amplitude_decay, spec.constraint)
    assert random_curve(spec, index) == oracle_curve(spec, index)


def test_witness_is_checked_against_its_column(monkeypatch):
    spec = CurveEnsembleSpec(3, 20, 4)
    monkeypatch.setattr(inequalities, "random_curve",
                        lambda spec, i: SupportFourier(1.0))
    with pytest.raises(RuntimeError, match="isoperimetric: curve"):
        run_ensemble(spec, inequality_table([], [], False))


def test_rejection_exhausted_names_the_first_index():
    # with no amplitude decay, modes up to 16 leave A > 0.01 out of reach
    spec = CurveEnsembleSpec(1, 3, 16, 0.0, Constraint.POSITIVE_AREA)
    message = "after 10000 resamples (seed 1, index 0)"
    with pytest.raises(RejectionExhaustedError, match=re.escape(message)):
        run_ensemble(spec, inequality_table([], [], False))


@pytest.mark.parametrize("start", [1, 2])
def test_rejection_exhausted_names_the_global_index(start):
    # the array rounds of a chunk starting at `start` name its first curve
    spec = CurveEnsembleSpec(1, 3, 16, 0.0, Constraint.POSITIVE_AREA)
    message = f"after 10000 resamples (seed 1, index {start})"
    with pytest.raises(RejectionExhaustedError, match=re.escape(message)):
        inequalities._chunk(spec, start, 3)


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
            ws.append(check_beta2_family(moments(s.p), 8.0))
            vs.append(check_grad_family(moments(s.p), 24.0))
            s = step_exact_modal(s, 1e-2, FlowType.LENGTH_PRESERVING)
        assert all(b - a <= 1e-12 for a, b in zip(ws, ws[1:]))
        assert all(b - a <= 1e-12 for a, b in zip(vs, vs[1:]))


@given(st.floats(-2, 2, allow_nan=False), st.floats(-2, 2, allow_nan=False))
@settings(max_examples=40, deadline=None)
def test_translation_invariance_of_slacks(da, db):
    p = SupportFourier(2.0, ((1, 0.2, -0.4), (2, 0.3, 1.0), (3, 0.1, 0.0)))
    a1, b1 = p.coeff(1)
    q = with_mode(p, 1, a1 + da, b1 + db)
    assert check_beta2_family(moments(q), 8.0) == \
        check_beta2_family(moments(p), 8.0)
    assert check_grad_family(moments(q), 24.0) == \
        check_grad_family(moments(p), 24.0)
    assert green_osher_quadratic(moments(q)) == \
        green_osher_quadratic(moments(p))
    assert check_isoperimetric(moments(q)) == check_isoperimetric(moments(p))


def test_sharpness_characterization(rng):
    # slack(tau=8) < 1e-10 iff no mass above mode 2
    spec = CurveEnsembleSpec(seed=9, count=100, K=8)
    for i in range(100):
        p = random_curve(spec, i)
        slack = check_beta2_family(moments(p), 8.0)
        high = max((max(abs(a), abs(b)) for k, a, b in p.modes if k >= 3),
                   default=0.0)
        if slack < 1e-10:
            assert high < 1e-6
        if high >= 1e-3:
            assert slack > 1e-10
