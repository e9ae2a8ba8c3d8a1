"""Modal <-> grid conversions, spectral differentiation, Parseval integrals.

The numerical substrate for oracles, diagnostics and the `moments` of a curve.
`derivative` takes one d/dtheta per call.  Integrals over the circle are
Parseval sums over a (K, 2, rows) coefficient block, mode after mode; the
DFT of a stack of sample rows is one rfft along its rows, the transform the
grid oracle takes of its samples, and its coefficients are such a block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import (TWO_PI, Columns, InputError, SupportFourier, _degree,
                     _dtheta, _energy, _mode_sum, algebraic_area,
                     algebraic_length, beta_of, column, stack, uniform_grid)


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
    ab = np.stack([2.0 / n * X.real[:, 1:].T, -2.0 / n * X.imag[:, 1:].T], 1)
    return Columns(X[:, 0].real / n, np.arange(1, K + 1), np.where(
        np.all(ab == 0.0, axis=1, keepdims=True), 0.0, ab))


@np.errstate(over="ignore", invalid="ignore")
def derivative(p: SupportFourier | Columns) -> SupportFourier | Columns:
    """Modal differentiation: d/dtheta maps (a_k, b_k) -> (k b_k, -k a_k),
    in p's type with every mode p lists and a zero a0 (a column for
    Columns)."""
    c = p if isinstance(p, Columns) else stack([p])
    d = Columns(np.zeros_like(c.a0), c.k, _dtheta(c.k, c.ab))
    return d if c is p else column(d, 0)


@np.errstate(over="ignore", invalid="ignore")
def l2_quantities(p: SupportFourier | Columns) -> dict:
    """Parseval values: int p^2 = 2*pi*a0^2 + pi*sum(a_k^2+b_k^2) and
    int (p')^2 = pi*sum k^2 (a_k^2+b_k^2), for a SupportFourier or Columns."""
    c = p if isinstance(p, Columns) else stack([p])
    e = _energy(c.ab)
    de = (math.pi * c.k * c.k)[:, None] * e
    e *= math.pi
    q = {"int_p2": _mode_sum(TWO_PI * c.a0 * c.a0, e),
         "int_dp2": _mode_sum(np.zeros(c.a0.size), de)}
    return q if c is p else {key: float(v[0]) for key, v in q.items()}


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
