"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import math
import time

import numpy as np
import pytest

from legendreflow import (Constraint, CurveEnsembleSpec, FlowConfig, FlowType,
                          Scheme, SupportFourier, algebraic_area,
                          algebraic_length, beta_of, check_beta2_family,
                          check_beta2_zero_length, check_grad_family,
                          check_isoperimetric, derivative,
                          ell_convex_residuals, equality_family,
                          fit_decay_rate, green_osher_quadratic, moments,
                          random_curve, run,
                          run_ensemble, sample_points, steiner_point,
                          step_exact_modal, synthesize, wirtinger_gap)
from legendreflow.flows import FlowState

TWO_PI = 2.0 * math.pi
P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))


def _report(num: int, desc: str, ok: bool) -> None:
    print(f"\nACCEPTANCE {num} ({desc}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({desc}) failed"


def test_criterion_1_figure_areas():
    cases = [
        (SupportFourier(2.0, ((2, 0.0, 1.0),)), 5 * math.pi / 2),
        (SupportFourier(math.sqrt(1.5), ((2, 0.0, 1.0),)), 0.0),
        (SupportFourier(0.5, ((2, 0.0, 1.0),)), -5 * math.pi / 4),
    ]
    algebraic_area(cases[0][0])  # warm-up
    ok = True
    for p, want in cases:
        t0 = time.perf_counter()
        a = algebraic_area(p)
        elapsed = time.perf_counter() - t0
        ok &= abs(a - want) <= 1e-10 and elapsed < 1e-3
    _report(1, "figure-1 areas, 1e-10, <1 ms", ok)


def test_criterion_2_length_preserving_desk_scale():
    t0 = time.perf_counter()
    tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A,
                        t_final=6.0, dt=1e-2))
    elapsed = time.perf_counter() - t0
    ok = all(abs(r.L - 4 * math.pi) <= 1e-12 for r in tr.rows)
    As = [r.A for r in tr.rows]
    ok &= all(b - a >= -1e-12 for a, b in zip(As, As[1:]))
    ok &= tr.final_state.p.a0 == 2.0
    ok &= tr.rows[-1].max_abs_mode <= math.exp(-18) * (1 + 1e-10)
    fit = fit_decay_rate(tr, "sup_dev", (0.5, 4.0))
    ok &= 2.99 <= fit["alpha"] <= 3.01
    ok &= elapsed < 1.0
    _report(2, "length-preserving benchmark run, decay rate 3", ok)


def test_criterion_3_area_preserving_desk_scale():
    a_init = 5 * math.pi / 2
    t0 = time.perf_counter()
    tr = run(FlowConfig(FlowType.AREA_PRESERVING, P_FIG_A,
                        t_final=6.0, dt=1e-3))
    elapsed = time.perf_counter() - t0
    ok = all(abs(r.A - a_init) / a_init <= 1e-8 for r in tr.rows)
    Ls = [r.L for r in tr.rows]
    ok &= all(b - a <= 1e-12 for a, b in zip(Ls, Ls[1:]))
    ok &= abs(tr.final_state.p.a0 - math.sqrt(2.5)) <= 1e-6
    fit = fit_decay_rate(tr, "absQ", (0.5, 4.0))
    ok &= 5.9 <= fit["alpha"] <= 6.1
    ok &= elapsed < 5.0
    _report(3, "area-preserving benchmark run, decay rate 6", ok)


def test_criterion_4_zero_length_collapse():
    p0 = SupportFourier(0.0, ((1, 2.0, 1.0), (2, 2.0, 1.0)))
    assert algebraic_length(p0) == 0.0
    assert algebraic_area(p0) == pytest.approx(-15 * math.pi / 2)
    tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, p0, t_final=6.0, dt=1e-2,
                        record_every=10))
    theta = np.linspace(0, TWO_PI, 1024, endpoint=False)
    pts = sample_points(tr.final_state.p, theta)
    dev = float(np.max(np.hypot(pts[:, 0] - 2.0, pts[:, 1] - 1.0)))
    ok = dev <= 1e-6 and steiner_point(tr.final_state.p) == (2.0, 1.0)
    _report(4, "zero-length collapse to the point (2, 1)", ok)


def test_criterion_5_scheme_oracle_equivalence():
    theta = np.linspace(0, TWO_PI, 256, endpoint=False)
    t0 = time.perf_counter()
    ok = True
    for ft in (FlowType.LENGTH_PRESERVING, FlowType.AREA_PRESERVING):
        tm = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3,
                            record_every=1000))
        tg = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3,
                            scheme=Scheme.GRID_RK4, grid_n=256,
                            record_every=1000))
        dp = np.abs(tm.final_state.p.evaluate(theta)
                    - tg.final_state.p.evaluate(theta))
        ok &= float(np.max(dp)) <= 1e-8
    ok &= (time.perf_counter() - t0) < 10.0
    _report(5, "ExactModal vs GridRK4 agreement 1e-8", ok)


def test_criterion_6_inequality_ensembles():
    t0 = time.perf_counter()
    spec = CurveEnsembleSpec(seed=42, count=1000, K=8, amplitude_decay=1.5)
    checkers = [
        ("isoperimetric", check_isoperimetric),
        ("beta2_tau0", lambda m: check_beta2_family(m, 0.0)),
        ("beta2_tau4", lambda m: check_beta2_family(m, 4.0)),
        ("beta2_tau8", lambda m: check_beta2_family(m, 8.0)),
        ("grad_xi0", lambda m: check_grad_family(m, 0.0)),
        ("grad_xi12", lambda m: check_grad_family(m, 12.0)),
        ("grad_xi24", lambda m: check_grad_family(m, 24.0)),
        ("green_osher", green_osher_quadratic),
    ]
    reports = run_ensemble(spec, checkers)
    ok = all(r.holds and r.n_violations == 0 for r in reports)

    zspec = CurveEnsembleSpec(seed=42, count=1000, K=8, amplitude_decay=1.5,
                              constraint=Constraint.ZERO_LENGTH)
    zcheckers = [
        ("beta2_zero_tau6", lambda m: check_beta2_zero_length(m, 6.0)),
        ("grad_zero_xi24",
         lambda m: check_grad_family(m, 24.0, zero_length=True)),
    ]
    zreports = run_ensemble(zspec, zcheckers)
    ok &= all(r.holds and r.n_violations == 0 for r in zreports)
    ok &= (time.perf_counter() - t0) < 10.0
    _report(6, "2000-curve inequality ensembles, zero violations", ok)


def test_criterion_7_sharpness():
    p = equality_family(2.0, 0.5, -0.3, 0.3, 0.1)
    ok = abs(check_beta2_family(moments(p), 8.0).slack) <= 1e-10
    ok &= abs(check_grad_family(moments(p), 24.0).slack) <= 1e-10
    q = p.with_mode(3, 0.1, 0.0)
    ok &= check_beta2_family(moments(q), 8.0).slack >= 1e-3
    ok &= check_grad_family(moments(q), 24.0).slack >= 1e-3
    _report(7, "tau=8 / xi=24 equality family sharpness", ok)


def test_criterion_8_structural_invariants():
    spec = CurveEnsembleSpec(seed=1234, count=200, K=6, amplitude_decay=1.0)
    ok = True
    for i in range(spec.count):
        p = random_curve(spec, i)

        # mode-1-blindness of L, A and slacks
        a1, b1 = p.coeff(1)
        q = p.with_mode(1, a1 + 0.7, b1 - 1.3)
        ok &= algebraic_length(q) == algebraic_length(p)
        ok &= algebraic_area(q) == algebraic_area(p)
        ok &= check_beta2_family(moments(q), 8.0).slack == \
            check_beta2_family(moments(p), 8.0).slack
        ok &= check_grad_family(moments(q), 24.0).slack == \
            check_grad_family(moments(p), 24.0).slack

        # Steiner-point constancy and beta mode-1 nullity along a short flow
        s = FlowState(0.0, p)
        for _ in range(5):
            s = step_exact_modal(s, 0.02, FlowType.LENGTH_PRESERVING)
            ok &= s.p.coeff(1) == (a1, b1)
            ok &= beta_of(s.p).coeff(1) == (0.0, 0.0)

        # derivative orthogonality at the evolved state
        beta = beta_of(s.p)
        rc, rs = ell_convex_residuals(synthesize(derivative(beta), 64))
        ok &= abs(rc) < 1e-10 and abs(rs) < 1e-10

        # Wirtinger gap equality on the pure mode-2 component
        a2, b2 = p.coeff(2)
        if (a2, b2) != (0.0, 0.0):
            lhs, rhs = wirtinger_gap(SupportFourier(0.0, ((2, a2, b2),)))
            ok &= abs(lhs - rhs) < 1e-12 * max(1.0, lhs)
    _report(8, "structural invariants on 200 random curves", ok)


def test_criterion_9_evolution_equation_consistency():
    ok = True
    for ft in (FlowType.LENGTH_PRESERVING, FlowType.AREA_PRESERVING):
        tr = run(FlowConfig(ft, P_FIG_A, t_final=1.0, dt=1e-3))
        rows = tr.rows
        dt = rows[1].t - rows[0].t
        for i in range(1, len(rows) - 1):
            r = rows[i]
            int_b2 = r.L * r.L / TWO_PI - r.Q
            int_f = r.L - TWO_PI * r.lam           # exact dL/dt
            int_bf = int_b2 - r.lam * r.L          # exact dA/dt
            dL = (rows[i + 1].L - rows[i - 1].L) / (2 * dt)
            dA = (rows[i + 1].A - rows[i - 1].A) / (2 * dt)
            for fd, exact in ((dL, int_f), (dA, int_bf)):
                if abs(exact) > 1e-10:
                    ok &= abs(fd - exact) / abs(exact) <= 1e-4
                else:
                    ok &= abs(fd - exact) <= 1e-8
    _report(9, "dL/dt and dA/dt match the nonlocal-speed integrals", ok)
