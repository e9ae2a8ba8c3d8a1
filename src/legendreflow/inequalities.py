"""Geometric inequalities for l-convex Legendre curves, checked on
deterministic random ensembles.

With L = 2*pi*a0, A = pi*a0^2 + (pi/2) sum (1-k^2) c_k^2 (c_k^2 = a_k^2+b_k^2)
and int beta^2 = 2*pi*a0^2 + pi*sum (1-k^2)^2 c_k^2, every slack below is an
exact modal expression:

    isoperimetric        L^2 - 4*pi*A >= 0
    beta2 family         int beta^2 - 2A - tau*(L^2/4pi - A) >= 0   (tau <= 8)
    beta2, L = 0         int beta^2 + tau*A >= 0                    (tau <= 6)
    gradient family      int beta'^2 - xi*(L^2/4pi - A) >= 0        (xi <= 24)
    gradient, L = 0      int beta'^2 + xi*A >= 0                    (xi <= 24)
    Green-Osher (F=x^2)  int beta^2 - (L^2 - 2*pi*A)/pi >= 0

The tau = 8 and xi = 24 cases are saturated exactly by support functions with
modes {0, 1, 2} only (parallel curves of astroids).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .curves import (TWO_PI, InputError, SupportFourier, algebraic_area,
                     algebraic_length, beta_of, isoperimetric_deficit,
                     uniform_grid)
from .spectral import l2_quantities

SLACK_TOL = 1e-9


class NotZeroLengthError(InputError):
    """A zero-length-only inequality was applied to a curve with L != 0."""


class ModeNotExcludedError(InputError):
    """Series carries mass on a mode the Wirtinger comparison excludes."""


class RejectionExhaustedError(RuntimeError):
    """Constraint resampling gave up after the retry budget."""


class Constraint(enum.Enum):
    NONE = "none"
    POSITIVE_AREA = "positive-area"
    ZERO_LENGTH = "zero-length"
    CONVEX = "convex"


@dataclass(frozen=True)
class CurveEnsembleSpec:
    seed: int
    count: int
    K: int
    amplitude_decay: float = 1.5   # mode-k amplitude bound (k+1)^-s
    constraint: Constraint = Constraint.NONE

    def __post_init__(self) -> None:
        if self.count < 1 or self.K < 1 \
                or not 0 <= self.amplitude_decay < math.inf:
            raise InputError("need count >= 1, K >= 1, "
                             "0 <= amplitude_decay < inf")


@dataclass(frozen=True)
class InequalityReport:
    ineq_id: str
    parameter: float | None
    slack: float
    holds: bool
    witness: SupportFourier
    expected_violable: bool = False
    n_checked: int = 1
    n_violations: int = 0


def _report(ineq_id: str, parameter: float | None, slack: float,
            p: SupportFourier, expected_violable: bool = False) -> InequalityReport:
    return InequalityReport(ineq_id=ineq_id, parameter=parameter, slack=slack,
                            holds=slack >= -SLACK_TOL, witness=p,
                            expected_violable=expected_violable,
                            n_violations=0 if slack >= -SLACK_TOL else 1)


def _beta_integrals(p: SupportFourier) -> tuple[float, float]:
    """(int beta^2, int beta'^2) via the modal Parseval formulas."""
    beta = beta_of(p)
    q = l2_quantities(beta)
    return q["int_p2"], q["int_dp2"]


def check_isoperimetric(p: SupportFourier) -> InequalityReport:
    return _report("isoperimetric", None, isoperimetric_deficit(p), p)


def check_beta2_family(p: SupportFourier, tau: float) -> InequalityReport:
    """int beta^2 - 2A - tau*(L^2/4pi - A); holds for tau <= 8, saturated at
    tau = 8 by mode-{0,1,2} curves."""
    int_b2, _ = _beta_integrals(p)
    L = algebraic_length(p)
    A = algebraic_area(p)
    slack = int_b2 - 2.0 * A - tau * (L * L / (4.0 * math.pi) - A)
    return _report("beta2_family", tau, slack, p, expected_violable=tau > 8)


def _require_zero_length(p: SupportFourier) -> None:
    L = algebraic_length(p)
    if abs(L) > 1e-12:
        raise NotZeroLengthError(f"|L| = {abs(L):.3e} > 1e-12")


def check_beta2_zero_length(p: SupportFourier, tau: float) -> InequalityReport:
    """int beta^2 + tau*A for L = 0 curves; holds for tau <= 6."""
    _require_zero_length(p)
    int_b2, _ = _beta_integrals(p)
    slack = int_b2 + tau * algebraic_area(p)
    return _report("beta2_zero_length", tau, slack, p, expected_violable=tau > 6)


def check_grad_family(p: SupportFourier, xi: float,
                      zero_length: bool = False) -> InequalityReport:
    """int beta'^2 - xi*(L^2/4pi - A), or int beta'^2 + xi*A on the L = 0
    branch; both hold for xi <= 24, saturated at 24 by mode-{0,1,2} curves."""
    _, int_db2 = _beta_integrals(p)
    A = algebraic_area(p)
    if zero_length:
        _require_zero_length(p)
        slack = int_db2 + xi * A
        ineq_id = "grad_zero_length"
    else:
        L = algebraic_length(p)
        slack = int_db2 - xi * (L * L / (4.0 * math.pi) - A)
        ineq_id = "grad_family"
    return _report(ineq_id, xi, slack, p, expected_violable=xi > 24)


def green_osher_quadratic(p: SupportFourier) -> InequalityReport:
    """int beta^2 >= (L^2 - 2*pi*A)/pi (the F(x) = x^2 Green-Osher case)."""
    int_b2, _ = _beta_integrals(p)
    L = algebraic_length(p)
    A = algebraic_area(p)
    slack = int_b2 - (L * L - TWO_PI * A) / math.pi
    return _report("green_osher_quadratic", None, slack, p)


def wirtinger_gap(series: SupportFourier) -> tuple[float, float]:
    """(int (series')^2, 4 * int series^2) for a series with no mass on
    modes 0 and 1; lhs >= rhs, with equality exactly on pure mode 2."""
    for m, mass in ((0, abs(series.a0)), (1, max(map(abs, series.coeff(1))))):
        if mass > 1e-12:
            raise ModeNotExcludedError(f"mode {m} carries mass {mass:.3e}")
    q = l2_quantities(series)
    return q["int_dp2"], 4.0 * q["int_p2"]


# --- deterministic ensembles -------------------------------------------------

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _unit(*key: int) -> float:
    """Counter-based uniform in [0, 1): splitmix64 folded over the key
    (seed, index, mode, slot, attempt).  Platform-independent by construction."""
    h = 0
    for part in key:
        h = _splitmix64(h ^ (part & _MASK64))
    return h / 2.0 ** 64


def random_curve(spec: CurveEnsembleSpec, index: int) -> SupportFourier:
    """Deterministic curve number `index` of the ensemble.

    Coefficients are uniform in [-(k+1)^-s, (k+1)^-s]; the constraint is then
    enforced (rejection resampling for PositiveArea, a0 = 0 for ZeroLength,
    a0 lifted until min p and min beta exceed 0.1 for Convex).
    """
    if not 0 <= index < spec.count:
        raise InputError(f"index {index} outside [0, {spec.count})")
    s = spec.amplitude_decay
    for attempt in range(10_000):
        def draw(mode: int, slot: int) -> float:
            bound = (mode + 1.0) ** (-s)
            return (2.0 * _unit(spec.seed, index, mode, slot, attempt) - 1.0) * bound

        a0 = draw(0, 0)
        modes = tuple((k, draw(k, 0), draw(k, 1)) for k in range(1, spec.K + 1))
        p = SupportFourier(a0, modes)

        if spec.constraint is Constraint.ZERO_LENGTH:
            return SupportFourier(0.0, modes)
        if spec.constraint is Constraint.CONVEX:
            rest = SupportFourier(0.0, modes)
            theta = uniform_grid(max(4 * (spec.K + 1), 256))
            min_p = float(np.min(rest.evaluate(theta)))
            min_b = float(np.min(beta_of(rest).evaluate(theta)))
            lift = max(0.1 - min_p, 0.1 - min_b, 0.0) + 1e-9
            return SupportFourier(max(a0, 0.0) + lift, modes)
        if spec.constraint is Constraint.POSITIVE_AREA:
            if algebraic_area(p) > 0.01:
                return p
            continue
        return p
    raise RejectionExhaustedError(
        f"no curve satisfying {spec.constraint.value} after 10000 resamples "
        f"(seed {spec.seed}, index {index})")


def equality_family(a0: float, a1: float, b1: float,
                    a2: float, b2: float) -> SupportFourier:
    """The 5-parameter mode-{0,1,2} family saturating the tau = 8 and
    xi = 24 inequalities (parallel curves of astroids centered at (a1, b1))."""
    modes = []
    if a1 != 0.0 or b1 != 0.0:
        modes.append((1, a1, b1))
    if a2 != 0.0 or b2 != 0.0:
        modes.append((2, a2, b2))
    return SupportFourier(a0, tuple(modes))


def run_ensemble(spec: CurveEnsembleSpec,
                 checkers: list[tuple[str, "object"]]) -> list[InequalityReport]:
    """Apply each (name, curve -> InequalityReport) checker to every curve of
    the ensemble; aggregate per checker the minimum slack and its witness.

    The reduce is order-independent with a stable tie-break on curve index,
    so parallel evaluation over indices would give identical reports.
    """
    best: dict[str, InequalityReport] = {}
    counts: dict[str, tuple[int, int]] = {}
    for index in range(spec.count):
        p = random_curve(spec, index)
        for name, fn in checkers:
            rep = fn(p)
            checked, viol = counts.get(name, (0, 0))
            counts[name] = (checked + 1, viol + rep.n_violations)
            if name not in best or rep.slack < best[name].slack:
                best[name] = rep
    out = []
    for name, _ in checkers:
        rep = best[name]
        checked, viol = counts[name]
        out.append(InequalityReport(
            ineq_id=name, parameter=rep.parameter, slack=rep.slack,
            holds=viol == 0, witness=rep.witness,
            expected_violable=rep.expected_violable,
            n_checked=checked, n_violations=viol))
    return out
