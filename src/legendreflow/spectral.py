"""Modal <-> grid conversions, spectral differentiation, periodic quadrature.

The numerical substrate for oracles, diagnostics and the `moments` of a curve.
All integrals over the circle use the uniform trapezoid rule, exact for
trigonometric polynomials of degree < N; the DFT is direct, in O(N*K).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import (TWO_PI, InputError, SupportFourier, algebraic_area,
                     algebraic_length, beta_of, uniform_grid)


class AliasError(InputError):
    """Grid too coarse to represent (or recover) the requested modes."""


def _is_pow2(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


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
        if v.ndim != 1 or not _is_pow2(v.shape[0]) or v.shape[0] < 8:
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
    inverse of synthesize for trig polynomials of degree <= K.
    """
    if 2 * K + 2 > g.n:
        raise AliasError(f"cannot recover K={K} modes from {g.n} samples")
    v = g.values
    theta = uniform_grid(g.n)
    a0 = float(np.mean(v))
    modes = []
    for k in range(1, K + 1):
        a = 2.0 / g.n * float(np.sum(v * np.cos(k * theta)))
        b = 2.0 / g.n * float(np.sum(v * np.sin(k * theta)))
        if a != 0.0 or b != 0.0:
            modes.append((k, a, b))
    return SupportFourier(a0, tuple(modes))


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


def l2_quantities(p: SupportFourier) -> dict[str, float]:
    """Parseval values: int p^2 = 2*pi*a0^2 + pi*sum(a_k^2+b_k^2),
    int (p')^2 = pi*sum k^2 (a_k^2+b_k^2)."""
    int_p2 = TWO_PI * p.a0 * p.a0
    int_dp2 = 0.0
    for k, a, b in p.modes:
        e = a * a + b * b
        int_p2 += math.pi * e
        int_dp2 += math.pi * k * k * e
    return {"int_p2": int_p2, "int_dp2": int_dp2}


class Moments(NamedTuple):
    """p, beta = p + p'' and the four numbers the slacks and trace rows use."""
    p: SupportFourier
    beta: SupportFourier
    L: float
    A: float
    int_b2: float      # int beta^2
    int_db2: float     # int (beta')^2


def moments(p: SupportFourier) -> Moments:
    """L, A and the Parseval integrals of beta, with beta built once."""
    beta = beta_of(p)
    q = l2_quantities(beta)
    return Moments(p, beta, algebraic_length(p), algebraic_area(p),
                   q["int_p2"], q["int_dp2"])
