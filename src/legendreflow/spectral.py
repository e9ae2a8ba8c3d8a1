"""Modal <-> grid conversions, spectral differentiation, Parseval integrals.

The numerical substrate for oracles, diagnostics and the `moments` of a curve.
`derivative` takes one d/dtheta per call.  Integrals over the circle are
Parseval sums of the coefficients; the DFT of a stack of sample rows is one
rfft along its rows, the transform the grid oracle takes of its samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import (TWO_PI, Columns, InputError, SupportFourier, _degree,
                     algebraic_area, algebraic_length, beta_of, uniform_grid)


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
        v = _samples(self.values, 1).copy()
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.shape[0]


def synthesize(p: SupportFourier, n: int) -> GridFunction:
    """Sample p on the N-point grid (exact: p is a finite trig sum of degree
    K = _degree(p); a listed zero mode above N/2 adds only zero terms)."""
    if n < 2 * (K := _degree(p)) + 2:
        raise AliasError(f"grid size {n} < 2K+2 = {2 * K + 2}")
    theta = uniform_grid(n)
    return GridFunction(p.evaluate(theta))


def _samples(values, ndim: int) -> np.ndarray:
    """values as floats, checked: ndim axes, the last of N samples with N a
    power of two >= 8, and every sample finite."""
    v = np.asarray(values, dtype=float)
    n = v.shape[-1] if v.ndim else 0
    if v.ndim != ndim or n < 8 or n & (n - 1):
        raise InputError(f"values must be {ndim}-D with N a power of two >= 8")
    if not np.all(np.isfinite(v)):
        raise InputError("non-finite grid values")
    return v


@np.errstate(over="ignore", invalid="ignore")
def analyze(V: np.ndarray, K: int) -> Columns:
    """Discrete Fourier coefficients up to mode K of each row v of the
    (rows, N) samples V (checked as GridFunction checks its values), the
    exact inverse of synthesize for degree <= K: Columns over modes 1..K,
    +0.0 where a_k = b_k = 0.  With X = rfft(V) along its rows, a0 = Re X_0
    / N, a_k = (2/N) Re X_k and b_k = -(2/N) Im X_k; a row's bits do not
    depend on the others.  Sums that overflow give non-finite Columns."""
    V = _samples(V, 2)
    if 2 * K + 2 > (n := V.shape[1]):
        raise AliasError(f"cannot recover K={K} modes from {n} samples")
    X = np.fft.rfft(V)[:, :K + 1]
    ab = np.stack([2.0 / n * X.real[:, 1:].T, -2.0 / n * X.imag[:, 1:].T])
    ab[:, (ab[0] == 0.0) & (ab[1] == 0.0)] = 0.0
    return Columns(X[:, 0].real / n, tuple(zip(range(1, K + 1), *ab)))


def derivative(p: SupportFourier | Columns) -> SupportFourier | Columns:
    """Modal differentiation: d/dtheta maps (a_k, b_k) -> (k b_k, -k a_k),
    in p's type with every mode p lists and a zero a0 (a column for
    Columns)."""
    return type(p)(np.zeros_like(p.a0),
                   tuple((k, k * b, -k * a) for k, a, b in p.modes))


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
