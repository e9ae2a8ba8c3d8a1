"""Geometric inequalities for l-convex Legendre curves, checked on
deterministic random ensembles.

Each checker takes a curve's `Moments` and returns its slack, written in the
four numbers L = 2*pi*a0, A = pi*a0^2 + (pi/2) sum (1-k^2) c_k^2,
int beta^2 = 2*pi*a0^2 + pi*sum (1-k^2)^2 c_k^2 and
int beta'^2 = pi*sum k^2 (1-k^2)^2 c_k^2 (c_k^2 = a_k^2+b_k^2), so every slack
is an exact modal expression; slack >= 0 up to the sharp bound:

    inequality           slack                                  sharp bound
    isoperimetric        L^2 - 4*pi*A                           -
    beta2 family         int beta^2 - 2A - tau*(L^2/4pi - A)    tau <= 8
    beta2, L = 0         int beta^2 + tau*A                     tau <= 6
    gradient family      int beta'^2 - xi*(L^2/4pi - A)         xi <= 24
    gradient, L = 0      int beta'^2 + xi*A                     xi <= 24
    Green-Osher (F=x^2)  int beta^2 - (L^2 - 2*pi*A)/pi         -

The tau = 8 and xi = 24 cases are saturated exactly by support functions with
modes {0, 1, 2} only (parallel curves of astroids).
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .curves import (TWO_PI, InputError, SupportFourier, algebraic_area,
                     beta_of, isoperimetric_deficit, uniform_grid)
from .spectral import Moments, l2_quantities, moments

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
    expected_violable: bool
    n_checked: int
    n_violations: int


def check_isoperimetric(m: Moments) -> float:
    return isoperimetric_deficit(m.p)


def check_beta2_family(m: Moments, tau: float) -> float:
    """int beta^2 - 2A - tau*(L^2/4pi - A), the beta2 family at tau."""
    return m.int_b2 - 2.0 * m.A - tau * (m.L * m.L / (4.0 * math.pi) - m.A)


def _require_zero_length(m: Moments) -> None:
    if abs(m.L) > 1e-12:
        raise NotZeroLengthError(f"|L| = {abs(m.L):.3e} > 1e-12")


def check_beta2_zero_length(m: Moments, tau: float) -> float:
    """int beta^2 + tau*A; NotZeroLengthError unless |L| <= 1e-12."""
    _require_zero_length(m)
    return m.int_b2 + tau * m.A


def check_grad_family(m: Moments, xi: float) -> float:
    """int beta'^2 - xi*(L^2/4pi - A), the gradient family at xi."""
    return m.int_db2 - xi * (m.L * m.L / (4.0 * math.pi) - m.A)


def check_grad_zero_length(m: Moments, xi: float) -> float:
    """int beta'^2 + xi*A; NotZeroLengthError unless |L| <= 1e-12."""
    _require_zero_length(m)
    return m.int_db2 + xi * m.A


def green_osher_quadratic(m: Moments) -> float:
    """int beta^2 - (L^2 - 2*pi*A)/pi, the F(x) = x^2 Green-Osher case."""
    return m.int_b2 - (m.L * m.L - TWO_PI * m.A) / math.pi


@dataclass(frozen=True)
class Inequality:
    """One row of the slack table: row(m) is the checker's slack at the row's
    parameter; past its sharp bound the inequality may fail."""
    ineq_id: str
    slack: Callable[..., float]
    parameter: float | None = None
    sharp: float | None = None

    @property
    def expected_violable(self) -> bool:
        return self.sharp is not None and self.parameter > self.sharp

    def __call__(self, m: Moments) -> float:
        return self.slack(m) if self.parameter is None \
            else self.slack(m, self.parameter)


def inequality_table(taus: Sequence[float], xis: Sequence[float],
                     zero_length: bool) -> list[Inequality]:
    """The isoperimetric and Green-Osher rows, the beta2 family at each tau,
    the gradient family at each xi and, for zero-length ensembles, the two
    L = 0 inequalities at their sharp parameters."""
    rows = [Inequality("isoperimetric", check_isoperimetric),
            Inequality("green_osher_quadratic", green_osher_quadratic)]
    rows += [Inequality(f"beta2_family(tau={tau:g})", check_beta2_family,
                        tau, 8.0) for tau in taus]
    rows += [Inequality(f"grad_family(xi={xi:g})", check_grad_family, xi, 24.0)
             for xi in xis]
    if zero_length:
        rows += [Inequality("beta2_zero_length(tau=6)",
                            check_beta2_zero_length, 6.0, 6.0),
                 Inequality("grad_zero_length(xi=24)",
                            check_grad_zero_length, 24.0, 24.0)]
    return rows


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
                 rows: Sequence[Inequality]) -> list[InequalityReport]:
    """One report per row: the minimum slack over the moments of every curve
    of the ensemble, its witness, and the number of curves whose slack is
    not >= -SLACK_TOL.

    Ties go to the lowest curve index, so evaluating the indices in parallel
    and reducing in index order would give identical reports.
    """
    low = [0.0] * len(rows)
    witness: list[SupportFourier | None] = [None] * len(rows)
    violations = [0] * len(rows)
    for index in range(spec.count):
        m = moments(random_curve(spec, index))
        for j, row in enumerate(rows):
            slack = row(m)
            if not slack >= -SLACK_TOL:
                violations[j] += 1
            if index == 0 or slack < low[j]:
                low[j], witness[j] = slack, m.p
    return [InequalityReport(
        ineq_id=row.ineq_id, parameter=row.parameter, slack=slack,
        holds=viol == 0, witness=p, expected_violable=row.expected_violable,
        n_checked=spec.count, n_violations=viol)
        for row, slack, p, viol in zip(rows, low, witness, violations)]
