"""Modal <-> grid conversions, spectral differentiation, periodic quadrature.

The numerical substrate for oracles, diagnostics and the `moments` of a curve.
All integrals over the circle use the uniform trapezoid rule, exact for
trigonometric polynomials of degree < N; the DFT is one O(N*K) product of
the samples with the K x N cos (sin) rows, each row summed pairwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import (TABLE_MAX_ENTRIES, TWO_PI, Columns, InputError,
                     SupportFourier, _grid_table, algebraic_area,
                     algebraic_length, beta_of, uniform_grid)


class AliasError(InputError):
    """Grid too coarse to represent (or recover) the requested modes."""


def default_grid_size(K: int) -> int:
    """max(256, 8*(K+1)), rounded up to a power of two."""
    n = max(256, 8 * (K + 1))
    return 1 << (n - 1).bit_length()


@dataclass(frozen=True)
class GridFunction:
    """N uniform samples of a periodic function at theta_j = 2*pi*j/N."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.shape[0] < 8 or v.shape[0] & (v.shape[0] - 1):
            raise InputError("values must be 1-D with N a power of two >= 8")
        if not np.all(np.isfinite(v)):
            raise InputError("non-finite grid values")
        v = v.copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def synthesize(p: SupportFourier, n: int) -> GridFunction:
    """Sample p on the N-point grid (exact: p is a finite trig sum)."""
    if n < 2 * p.K + 2:
        raise AliasError(f"grid size {n} < 2K+2 = {2 * p.K + 2}")
    theta = uniform_grid(n)
    return GridFunction(p.evaluate(theta))


def analyze(g: GridFunction, K: int) -> SupportFourier:
    """Discrete Fourier coefficients up to mode K.

    a_k = (2/N) sum g_j cos(k theta_j), b_k likewise, a0 = mean(g); the exact
    inverse of synthesize for trig polynomials of degree <= K.  Each half is
    one product g * cos(k theta_j) (K x N; rows from evaluate's cached table,
    else in blocks of TABLE_MAX_ENTRIES) with its rows summed pairwise.
    """
    if 2 * K + 2 > g.n:
        raise AliasError(f"cannot recover K={K} modes from {g.n} samples")
    v = g.values
    theta = uniform_grid(g.n)
    table = _grid_table(theta, K)
    block = max(1, TABLE_MAX_ENTRIES // g.n)    # the whole table is one block
    ab = np.empty((2, K))
    for k0 in range(0, K, block):
        k1 = min(k0 + block, K)
        for half, trig in enumerate((np.cos, np.sin)):
            rows = table[half][k0:k1] if table is not None else np.array(
                [trig(k * theta) for k in range(k0 + 1, k1 + 1)])
            ab[half, k0:k1] = 2.0 / g.n * np.sum(v * rows, axis=1)
    return SupportFourier(float(np.mean(v)), tuple(
        (k, a, b) for k, (a, b) in enumerate(ab.T.tolist(), 1)
        if a != 0.0 or b != 0.0))


def derivative(p: SupportFourier, order: int = 1) -> SupportFourier:
    """Modal differentiation: d/dtheta maps (a_k, b_k) -> (k b_k, -k a_k)."""
    if order < 1:
        raise InputError("order must be >= 1")
    modes = []
    for k, a, b in p.modes:
        for _ in range(order):
            a, b = k * b, -k * a
        if a != 0.0 or b != 0.0:
            modes.append((k, a, b))
    return SupportFourier(0.0, tuple(modes))


def periodic_quadrature(g: GridFunction) -> float:
    """(2*pi/N) * sum of samples: trapezoid rule on the periodic grid."""
    return float(TWO_PI / g.n * np.sum(g.values))


def l2_quantities(p: SupportFourier | Columns) -> dict:
    """Parseval values: int p^2 = 2*pi*a0^2 + pi*sum(a_k^2+b_k^2) and
    int (p')^2 = pi*sum k^2 (a_k^2+b_k^2), for a SupportFourier or Columns."""
    int_p2, int_dp2 = TWO_PI * p.a0 * p.a0, 0.0
    for k, a, b in p.modes:
        e = a * a + b * b
        int_p2 += math.pi * e
        int_dp2 += math.pi * k * k * e
    if isinstance(p, Columns) and not p.modes:   # +0.0, not 0.0 * a0 = -0.0
        int_dp2 = np.zeros(p.a0.size)
    return {"int_p2": int_p2, "int_dp2": int_dp2}


class Moments(NamedTuple):
    """p, beta = p + p'' and the numbers the slacks and trace rows use, each
    a column for Columns p (zeros for int_db2 with no mode k >= 2)."""
    p: SupportFourier | Columns
    beta: SupportFourier | Columns
    L: float
    A: float
    int_b2: float      # int beta^2
    int_db2: float     # int (beta')^2


def moments(p: SupportFourier | Columns) -> Moments:
    """L, A and the Parseval integrals of beta, with beta built once."""
    beta = beta_of(p)
    q = l2_quantities(beta)
    return Moments(p, beta, algebraic_length(p), algebraic_area(p),
                   q["int_p2"], q["int_dp2"])
