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
modes {0, 1, 2} only (parallel curves of astroids).  check_isoperimetric is
the one definition of the deficit U: the flows' trace rows and `analyze`
read it too.

run_ensemble draws its curves a chunk of indices at a time, as arrays, up to
10 000 attempts each: splitmix64 over the key (seed, index, mode, slot,
attempt) in numpy uint64, so a curve has the same bits in any chunk, and
random_curve(spec, i) is the one-index chunk of curve i.  Each slack above is
one expression for floats and arrays alike, evaluated as a column and reduced
by argmin; the lowest index wins ties.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .curves import (TWO_PI, Columns, InputError, SupportFourier,
                     algebraic_area, beta_of, column, stack, uniform_grid)
from .spectral import Moments, moments

SLACK_TOL = 1e-9


class NotZeroLengthError(InputError):
    """A zero-length-only inequality was applied to a curve with L != 0."""


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
        if self.constraint is Constraint.CONVEX and self.K > MAX_CONVEX_K:
            raise InputError(f"convex K = {self.K} above MAX_CONVEX_K = "
                             f"{MAX_CONVEX_K}")
        if (n := _entries_per_curve(self)) > CHUNK_ENTRIES:
            raise InputError(f"K = {self.K} needs {n} entries per curve, "
                             f"more than CHUNK_ENTRIES = {CHUNK_ENTRIES}")


@dataclass(frozen=True)
class InequalityReport:
    """One row's result; its field order is the --json key order."""
    ineq_id: str
    parameter: float | None
    slack: float
    holds: bool
    expected_violable: bool
    n_checked: int
    n_violations: int
    witness: SupportFourier


def check_isoperimetric(m: Moments) -> float:
    """U = L^2 - 4*pi*A, the isoperimetric deficit: 0 exactly on circles."""
    return m.L * m.L - 4.0 * math.pi * m.A


def check_beta2_family(m: Moments, tau: float) -> float:
    """int beta^2 - 2A - tau*(L^2/4pi - A), the beta2 family at tau."""
    return m.int_b2 - 2.0 * m.A - tau * (m.L * m.L / (4.0 * math.pi) - m.A)


def _require_zero_length(m: Moments) -> None:
    if np.any(np.abs(m.L) > 1e-12):
        raise NotZeroLengthError(f"|L| = {np.max(np.abs(m.L)):.3e} > 1e-12")


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
    the gradient family at each xi (InputError unless all are finite) and,
    for zero-length ensembles, the L = 0 pair at their sharp parameters."""
    if not all(map(math.isfinite, [*taus, *xis])):
        raise InputError("tau and xi must be finite")
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


# --- deterministic ensembles -------------------------------------------------

#: The largest K of a convex ensemble: its lift costs O(K^2) a curve, and
#: one curve took 0.031 s at K = 255, 0.57 s at 1024 and 8.5 s at 4096.
MAX_CONVEX_K = 1024
#: run_ensemble draws CHUNK_ENTRIES // _entries_per_curve(spec) >= 1 curves
#: at a time, so that the arrays a chunk keeps alive stay near 2 MiB in all.
CHUNK_ENTRIES = 1 << 18
_GOLDEN, _MIX1, _MIX2, _S27, _S30, _S31, _S32, _LOW32, _EXP84, _EXP52 = map(
    np.uint64, (0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB,
                27, 30, 31, 32, 0xFFFFFFFF, 0x4530 << 48, 0x4330 << 48))


def _fold(h: np.ndarray, part) -> np.ndarray:
    """splitmix64(h ^ part) elementwise, in wrapping uint64, in two buffers."""
    x = (h ^ part) + _GOLDEN
    for shift, mix in ((_S30, _MIX1), (_S27, _MIX2)):
        x ^= x >> shift
        x *= mix
    x ^= x >> _S31
    return x


def _keys(spec: CurveEnsembleSpec, index: np.ndarray) -> np.ndarray:
    """The (seed, index, mode, slot) part of every key folded by splitmix64:
    rows a0, a_1, b_1, ..., a_K, b_K, one column per index."""
    row = np.arange(2 * spec.K + 1, dtype=np.uint64)[:, None]
    h = _fold(_fold(np.zeros(1, np.uint64), np.uint64(spec.seed % 2**64)),
              index.astype(np.uint64))
    return _fold(_fold(h, (row + 1) // 2), (row > 0) & (row % 2 == 0))


def _unit(x: np.ndarray) -> np.ndarray:
    """x * 2.0**-63 - 1.0 of the uint64 array x, bit for bit, but without
    numpy's slow uint64 cast: x's halves as the low bits of 2^84's and 2^52's
    mantissas are exact doubles, and their sum rounds once.  Overwrites x."""
    u = x >> _S32
    u |= _EXP84
    u = u.view(float)
    u -= 2.0 ** 84 + 2.0 ** 52
    x &= _LOW32
    x |= _EXP52
    u += x.view(float)
    u *= 2.0 ** -63
    u -= 1.0
    return u


def _draw(keys: np.ndarray, attempt: int, amplitude: np.ndarray) -> np.ndarray:
    """Coefficients in _keys' layout: (2u - 1) * amplitude, with u the key
    (seed, index, mode, slot, attempt) folded by splitmix64, over 2^64.
    Counter-based: an index draws alone what it draws in a chunk, with the
    same bits on every platform."""
    u = _unit(_fold(keys, np.uint64(attempt)))
    u *= amplitude
    return u


def random_curve(spec: CurveEnsembleSpec, index: int) -> SupportFourier:
    """Deterministic curve number `index` of the ensemble: curve 0 of the
    one-index chunk _chunk(spec, index, index + 1), with every mode 1..K."""
    if not 0 <= index < spec.count:
        raise InputError(f"index {index} outside [0, {spec.count})")
    return column(_columns(_chunk(spec, index, index + 1)), 0)


def _columns(c: np.ndarray) -> Columns:
    """Rows a0, a_1, b_1, ..., a_K, b_K as Columns over the curves, a view
    of c."""
    return Columns(c[0], np.arange(1, len(c) // 2 + 1),
                   c[1:].reshape(-1, 2, c.shape[1]))


def _entries_per_curve(spec: CurveEnsembleSpec) -> int:
    """The convex lift's grid, or the four (2K+1)-row arrays of a rejection
    round: keys, coefficients, the draw and _fold's buffer."""
    convex = spec.constraint is Constraint.CONVEX
    return max(4 * (spec.K + 1), 256) if convex else 4 * (2 * spec.K + 1)


def _chunk(spec: CurveEnsembleSpec, start: int, stop: int) -> np.ndarray:
    """Coefficient rows (_keys' layout) of curves start..stop-1: uniform in
    [-(k+1)^-s, (k+1)^-s], then constrained.  PositiveArea redraws curves
    with A <= 0.01 at the next attempt, up to 10 000 attempts, then raises
    for the lowest index still rejected; ZeroLength sets a0 = 0; Convex
    lifts a0 until min p and min beta on the lift's grid exceed 0.1."""
    keys = _keys(spec, np.arange(start, stop))
    amplitude = np.array([((j + 1) // 2 + 1.0) ** (-spec.amplitude_decay)
                          for j in range(len(keys))])[:, None]
    c = _draw(keys, 0, amplitude)
    if spec.constraint is Constraint.POSITIVE_AREA:
        todo, attempt = np.flatnonzero(~(algebraic_area(_columns(c)) > 0.01)), 0
        while todo.size:
            if (attempt := attempt + 1) == 10_000:
                raise RejectionExhaustedError(
                    f"no curve satisfying {spec.constraint.value} after "
                    f"10000 resamples (seed {spec.seed}, index "
                    f"{start + int(todo[0])})")
            d = _draw(keys[:, todo], attempt, amplitude)
            ok = algebraic_area(_columns(d)) > 0.01
            c[:, todo[ok]] = d[:, ok]
            todo = todo[~ok]
    if spec.constraint is Constraint.ZERO_LENGTH:
        c[0] = 0.0
    elif spec.constraint is Constraint.CONVEX:
        theta = uniform_grid(_entries_per_curve(spec))
        rest = _columns(c)._replace(a0=np.zeros(c.shape[1]))
        p, beta = (SupportFourier.evaluate(x, theta)
                   for x in (rest, beta_of(rest)))
        c[0] = np.maximum(c[0], 0.0) + (np.maximum(np.maximum(
            0.1 - p.min(1), 0.1 - beta.min(1)), 0.0) + 1e-9)
    return c


def run_ensemble(spec: CurveEnsembleSpec,
                 rows: Sequence[Inequality]) -> list[InequalityReport]:
    """One report per row: the minimum slack over the moments of every curve
    of the ensemble, its witness, and the number of curves whose slack is
    not >= -SLACK_TOL.  Each slack is a column over a chunk of curves; ties
    go to the lowest index.  The witnesses are rebuilt by random_curve and
    stacked, and each one's slack must equal the column minimum bit for bit:
    the draw of a curve does not depend on where it sits in a chunk, nor a
    row's bits on the other rows."""
    low, best, violations = [0.0] * len(rows), [0] * len(rows), [0] * len(rows)
    size = CHUNK_ENTRIES // _entries_per_curve(spec)
    for start in range(0, spec.count, size):
        m = moments(_columns(_chunk(spec, start,
                                    min(start + size, spec.count))))
        for j, row in enumerate(rows):
            col = row(m)
            i = int(np.argmin(col))
            violations[j] += int(np.count_nonzero(~(col >= -SLACK_TOL)))
            if start == 0 or col[i] < low[j]:
                low[j], best[j] = float(col[i]), start + i
        del m   # this chunk's arrays go before the next chunk is drawn
    ids = sorted(set(best))
    witness = [random_curve(spec, i) for i in ids]
    m = moments(stack(witness))
    for row, slack, i in zip(rows, low, best):
        if (got := float(row(m)[ids.index(i)])).hex() != slack.hex():
            raise RuntimeError(f"{row.ineq_id}: curve {i} has slack "
                               f"{got!r}, its column {slack!r}")
    return [InequalityReport(
        ineq_id=row.ineq_id, parameter=row.parameter, slack=slack,
        holds=viol == 0, witness=witness[ids.index(i)],
        expected_violable=row.expected_violable, n_checked=spec.count,
        n_violations=viol)
        for row, slack, i, viol in zip(rows, low, best, violations)]
