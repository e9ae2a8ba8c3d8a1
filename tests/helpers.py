"""Oracles and measurements that only the tests use: trapezoid-rule
integrals independent of the package's Parseval sums, the Wirtinger gap, the
equality family, a decay-rate fit, a series with one mode replaced, the
per-curve cusp finder, sup_dev from the whole grid, and the trace fields of
Columns and the modal closed form in Python floats."""

import math

import numpy as np

from legendreflow import (FlowTrace, FlowType, InputError, SupportFourier,
                          beta_of, l2_quantities)
from legendreflow.curves import (MAX_ROOT_MODE, NEWTON_STEPS, TWO_PI,
                                 UNIT_CIRCLE_TOL, _degree, uniform_grid)
from legendreflow.flows import LAMBDA_FLOOR


def periodic_quadrature(g) -> float:
    """(2*pi/N) * sum of the samples of the GridFunction g (trapezoid rule)."""
    return float(TWO_PI / g.n * np.sum(g.values))


def ell_convex_residuals(beta_values) -> tuple[float, float]:
    """(integral of beta*cos, integral of beta*sin) by periodic quadrature.

    Both vanish for the beta of any Legendre-consistent support function
    (mode 1 is annihilated by p -> p + p''); a nonzero value flags grid data
    that is not the beta of any such curve.
    """
    v = np.asarray(getattr(beta_values, "values", beta_values), dtype=float)
    n = v.shape[0]
    if n < 8:
        raise InputError("grid size must be >= 8")
    theta = uniform_grid(n)
    w = TWO_PI / n
    return (float(w * np.sum(v * np.cos(theta))),
            float(w * np.sum(v * np.sin(theta))))


def with_mode(p: SupportFourier, k: int, a: float,
              b: float) -> SupportFourier:
    """Copy of p with mode k replaced (dropped when a = b = 0)."""
    rest = tuple(m for m in p.modes if m[0] != k)
    if a == 0.0 and b == 0.0:
        return SupportFourier(p.a0, rest)
    return SupportFourier(p.a0, rest + ((k, a, b),))


class ModeNotExcludedError(InputError):
    """Series carries mass on a mode the Wirtinger comparison excludes."""


def wirtinger_gap(series: SupportFourier) -> tuple[float, float]:
    """(int (series')^2, 4 * int series^2) for a series with no mass on
    modes 0 and 1; lhs >= rhs, with equality exactly on pure mode 2."""
    for m, mass in ((0, abs(series.a0)), (1, max(map(abs, series.coeff(1))))):
        if mass > 1e-12:
            raise ModeNotExcludedError(f"mode {m} carries mass {mass:.3e}")
    q = l2_quantities(series)
    return q["int_dp2"], 4.0 * q["int_p2"]


def equality_family(a0: float, a1: float, b1: float,
                    a2: float, b2: float) -> SupportFourier:
    """The 5-parameter mode-{0,1,2} family saturating the tau = 8 and
    xi = 24 inequalities (parallel curves of astroids centered at (a1, b1))."""
    return SupportFourier(a0, tuple((k, a, b) for k, a, b in (
        (1, a1, b1), (2, a2, b2)) if a != 0.0 or b != 0.0))


class WindowTooNoisyError(RuntimeError):
    """Log-linear decay fit rejected (r^2 < 0.99)."""


_FIT_FIELDS = ("sup_dev", "absQ")


def fit_decay_rate(trace: FlowTrace, fit_field: str,
                   window: tuple[float, float]) -> dict[str, float]:
    """Least-squares slope of log(field) vs t over the window.

    Returns {"alpha": -slope, "r2": ...}; raises WindowTooNoisyError when
    r^2 < 0.99.  Field values must stay above 1e-13 in the window so the log
    never probes the round-off floor.
    """
    if fit_field not in _FIT_FIELDS:
        raise InputError(f"unknown field {fit_field!r}, expected one of {_FIT_FIELDS}")
    t_lo, t_hi = window
    rows = [r for r in trace.rows if t_lo <= r.t <= t_hi]
    if len(rows) < 3:
        raise InputError("window contains fewer than 3 rows")
    vals = np.array([r.sup_dev if fit_field == "sup_dev" else abs(r.Q)
                     for r in rows])
    if np.any(vals <= 1e-13):
        raise InputError("field values reach the 1e-13 noise floor in window")
    ts = np.array([r.t for r in rows])
    logv = np.log(vals)
    slope, intercept = np.polyfit(ts, logv, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.99:
        raise WindowTooNoisyError(f"r^2 = {r2:.4f} < 0.99")
    return {"alpha": -float(slope), "r2": r2}


def reference_singular_angles(p: SupportFourier) -> list[float]:
    """The cusps of one curve by np.roots on its own companion matrix, and
    Newton steps through SupportFourier.evaluate: the oracle that each row
    of curves.singular_angles must equal bit for bit."""
    beta = beta_of(p)
    K = _degree(beta)
    if K == 0:
        return []
    if K > MAX_ROOT_MODE:
        raise InputError(f"beta has mode {K} > MAX_ROOT_MODE = {MAX_ROOT_MODE}")
    c = np.zeros(2 * K + 1, dtype=complex)
    c[K] = beta.a0
    for k, a, b in beta.modes:
        if a or b:      # zero modes above K have no place in c
            c[K + k] = complex(a, -b) / 2
            c[K - k] = complex(a, b) / 2
    mag = np.abs(c)
    lo = np.flatnonzero(mag > np.finfo(float).eps * mag.max())[0]
    c = np.ldexp(c.view(float), -np.frexp(mag.max())[1]).view(complex)
    z = np.roots(c[lo:c.size - lo][::-1])
    theta = np.angle(z[np.abs(np.abs(z) - 1.0) < UNIT_CIRCLE_TOL])
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            dx = beta.evaluate(theta) / beta.evaluate(theta, order=1)
            theta = np.where(abs(dx) < UNIT_CIRCLE_TOL, theta - dx, theta)
    theta = np.mod(theta, TWO_PI)
    theta[theta == TWO_PI] = 0.0
    theta = np.sort(theta)
    keep = np.diff(theta, append=theta[:1] + TWO_PI) >= UNIT_CIRCLE_TOL
    return theta[keep].tolist()


def reference_rows(c, flow_type: FlowType) -> list[dict]:
    """For each row of the Columns c, its trace fields other than t and
    sup_dev, and int beta^2, in Python floats, one mode (k, a, b) at a time
    in mode order: the formulas of the inequalities module docstring, with
    beta's modes (1 - k^2)(a, b) and beta''s (k b_beta, -k a_beta) squared
    and summed as the package associates them.  lam is None where the area
    flow's |L| is below LAMBDA_FLOOR: the row kernel cuts its rows there."""
    out = []
    for a0, ab in zip(c.a0.tolist(), np.moveaxis(c.ab, 2, 0).tolist()):
        L, A, int_b2 = TWO_PI * a0, math.pi * a0 * a0, TWO_PI * a0 * a0
        E1 = E2 = max_abs = 0.0
        for k, (a, b) in zip(c.k.tolist(), ab):
            if k < 2:
                continue
            A += 0.5 * math.pi * (1.0 - k * k) * (a * a + b * b)
            ba, bb = (1.0 - k * k) * a, (1.0 - k * k) * b
            e = ba * ba + bb * bb
            int_b2 += math.pi * e
            E1 += math.pi * k * k * e
            E2 += math.pi * k * k * ((k * bb) * (k * bb) + (k * ba) * (k * ba))
            max_abs = max(max_abs, abs(a), abs(b))
        if flow_type is FlowType.LENGTH_PRESERVING:
            lam = a0
        else:
            lam = int_b2 / L if abs(L) >= LAMBDA_FLOOR else None
        out.append({"L": L, "A": A, "deficit": L * L - 4.0 * math.pi * A,
                    "Q": L * L / TWO_PI - int_b2, "lam": lam, "E1": E1,
                    "E2": E2, "a0": a0, "max_abs_mode": max_abs,
                    "int_b2": int_b2})
    return out


def full_sup_dev(beta, center, n: int):
    """max_j |beta(theta_j) - center| from evaluate on the whole grid."""
    dev = SupportFourier.evaluate(beta, uniform_grid(n))
    return np.max(np.abs(dev - np.expand_dims(center, -1)), axis=-1)


def reference_closed_form(p: SupportFourier, ts, flow_type: FlowType):
    """The exact solution from p after each duration t in ts, as (a0, [(k,
    a, b), ...]) pairs in Python floats, one mode at a time in mode order:
    (a, b) e^{(1-k^2) t} and, under the area flow, a0^2 = a0(0)^2 + (1/2)
    sum_{k>=2} ((1-k^2) c_k^2) (-expm1(2 (1-k^2) t)) with a0's sign, as
    the package associates them."""
    out = []
    for t in ts:
        modes = [(k, a * math.exp((1.0 - k * k) * t),
                  b * math.exp((1.0 - k * k) * t)) for k, a, b in p.modes]
        a0 = p.a0
        if flow_type is FlowType.AREA_PRESERVING:
            s = 0.0
            for k, a, b in p.modes:
                if k >= 2:
                    f = 1.0 - k * k
                    s += (f * (a * a + b * b)) * -math.expm1(2.0 * f * t)
            a0 = math.copysign(math.sqrt(max(p.a0 * p.a0 + 0.5 * s, 0.0)),
                               p.a0)
        out.append((a0, modes))
    return out
