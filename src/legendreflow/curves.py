"""l-convex Legendre curves represented by truncated Fourier support functions.

A curve is generated from its support function p(theta) via

    gamma(theta) = p(theta) (cos theta, sin theta) + p'(theta) (-sin theta, cos theta),

with the frame invariant fixed to ell = 1 throughout.  The companion quantity
beta = p + p'' controls regularity: its zeros are the cusps of the curve, and
(ell, beta) of consistent sign means the curve is an ordinary convex curve.
Algebraic length and area are L = 2*pi*a0 and
A = pi*a0^2 + (pi/2) * sum_{k>=2} (1 - k^2)(a_k^2 + b_k^2); both may vanish or
go negative for singular curves.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: |beta| at or below this is treated as a cusp when inverting for curvature.
SINGULARITY_TOL = 1e-9

#: Residual bisection interval width when polishing roots of beta.
ROOT_TOL = 1e-12


class InputError(ValueError):
    """An argument outside the domain the function is defined on."""


class SingularPointError(InputError):
    """Curvature requested where beta vanishes (the curve has a cusp)."""


class Point2(NamedTuple):
    x: float
    y: float


@dataclass(frozen=True)
class SupportFourier:
    """Sparse truncated Fourier series

        p(theta) = a0 + sum_k (a_k cos k*theta + b_k sin k*theta),

    stored as (k, a_k, b_k) triples with distinct k >= 1 in increasing order.
    Instances are immutable; all operations on them are pure functions.
    """

    a0: float = 0.0
    modes: tuple[tuple[int, float, float], ...] = ()

    def __post_init__(self) -> None:
        norm = tuple(sorted((int(k), float(a), float(b)) for k, a, b in self.modes))
        ks = [k for k, _, _ in norm]
        if any(k < 1 for k in ks):
            raise InputError("mode numbers must be >= 1")
        if len(set(ks)) != len(ks):
            raise InputError("duplicate mode numbers")
        if not math.isfinite(self.a0) or not all(
            math.isfinite(a) and math.isfinite(b) for _, a, b in norm
        ):
            raise InputError("non-finite coefficient")
        object.__setattr__(self, "a0", float(self.a0))
        object.__setattr__(self, "modes", norm)

    @property
    def K(self) -> int:
        """Truncation order: the largest mode number present (0 if none)."""
        return self.modes[-1][0] if self.modes else 0

    def coeff(self, k: int) -> tuple[float, float]:
        """(a_k, b_k), zero if mode k is absent."""
        for kk, a, b in self.modes:
            if kk == k:
                return (a, b)
        return (0.0, 0.0)

    def with_mode(self, k: int, a: float, b: float) -> "SupportFourier":
        """Copy with mode k replaced (dropped when a = b = 0)."""
        rest = tuple(m for m in self.modes if m[0] != k)
        if a == 0.0 and b == 0.0:
            return SupportFourier(self.a0, rest)
        return SupportFourier(self.a0, rest + ((k, a, b),))

    def evaluate(self, theta, order: int = 0):
        """Evaluate the order-th derivative of p at theta (scalar or array).

        Differentiation acts modally: d/dtheta maps (a_k, b_k) to
        (k*b_k, -k*a_k); the constant term survives only at order 0.
        """
        th = np.asarray(theta, dtype=float)
        out = np.full(th.shape, self.a0 if order == 0 else 0.0)
        for k, a, b in self.modes:
            for _ in range(order):
                a, b = k * b, -k * a
            out = out + a * np.cos(k * th) + b * np.sin(k * th)
        return out if th.ndim else float(out)


class CurveKind(enum.Enum):
    CONVEX = "convex"
    ELL_CONVEX_NONCONVEX = "ell-convex-nonconvex"
    DEGENERATE_POINT = "degenerate-point"


@dataclass(frozen=True)
class CurveClass:
    kind: CurveKind
    min_beta: float
    min_p: float


def eval_point(p: SupportFourier, theta: float) -> Point2:
    """gamma(theta) = p*(cos, sin) + p'*(-sin, cos); 2*pi-periodic."""
    c, s = math.cos(theta), math.sin(theta)
    pv = p.evaluate(theta)
    dv = p.evaluate(theta, order=1)
    return Point2(pv * c - dv * s, pv * s + dv * c)


def sample_points(p: SupportFourier, thetas: np.ndarray) -> np.ndarray:
    """Vectorized eval_point: (len(thetas), 2) array of curve points."""
    th = np.asarray(thetas, dtype=float)
    pv = p.evaluate(th)
    dv = p.evaluate(th, order=1)
    return np.stack([pv * np.cos(th) - dv * np.sin(th),
                     pv * np.sin(th) + dv * np.cos(th)], axis=-1)


def beta_of(p: SupportFourier) -> SupportFourier:
    """beta = p + p'': coefficientwise (a_k, b_k) -> (1 - k^2)(a_k, b_k).

    Mode 1 is annihilated, which is exactly the condition that beta stays
    orthogonal to cos/sin and the curve remains l-convex.
    """
    modes = []
    for k, a, b in p.modes:
        f = 1.0 - k * k
        if f * a != 0.0 or f * b != 0.0:
            modes.append((k, f * a, f * b))
    return SupportFourier(p.a0, tuple(modes))


def algebraic_length(p: SupportFourier) -> float:
    """L = integral of p over the circle = 2*pi*a0."""
    return TWO_PI * p.a0


def algebraic_area(p: SupportFourier) -> float:
    """A = pi*a0^2 + (pi/2) sum_{k>=2} (1-k^2)(a_k^2+b_k^2); mode 1 is invisible."""
    acc = math.pi * p.a0 * p.a0
    for k, a, b in p.modes:
        if k >= 2:
            acc += 0.5 * math.pi * (1.0 - k * k) * (a * a + b * b)
    return acc


def steiner_point(p: SupportFourier) -> Point2:
    """The flow-invariant center (a1, b1)."""
    a1, b1 = p.coeff(1)
    return Point2(a1, b1)


def curvature_at(p: SupportFourier, theta: float) -> float:
    """Classical curvature kappa = 1/|beta(theta)| (ell = 1).

    Raises SingularPointError at cusps, where 1/|beta| is meaningless in
    double precision.
    """
    b = beta_of(p).evaluate(theta)
    if abs(b) <= SINGULARITY_TOL:
        raise SingularPointError(f"beta({theta}) = {b:.3e} within singularity "
                                 f"tolerance {SINGULARITY_TOL}")
    return 1.0 / abs(b)


def _grid_size(p: SupportFourier, n: int | None, default: int) -> int:
    """n, or max(4*(K+1), default) when None; n < 4*(K+1) is an error."""
    n_min = 4 * (p.K + 1)
    if n is None:
        return max(n_min, default)
    if n < n_min:
        raise InputError(f"grid size {n} < 4*(K+1) = {n_min}")
    return n


def singular_angles(p: SupportFourier, n: int | None = None) -> list[float]:
    """Angles in [0, 2*pi) where beta vanishes (cusps of the curve).

    Sign changes of beta on an n-point grid (n >= 4*(K+1), Nyquist-safe for a
    degree-K trig polynomial) are polished by bisection to width 1e-12;
    grid points with |beta| below SINGULARITY_TOL but no sign change are
    reported as tangential zeros.
    """
    n = _grid_size(p, n, 16)
    beta = beta_of(p)
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    vals = beta.evaluate(theta)
    h = TWO_PI / n

    roots: list[float] = []
    for j in range(n):
        v0 = vals[j]
        v1 = vals[(j + 1) % n]
        t0 = theta[j]
        if v0 == 0.0:
            roots.append(t0)
            continue
        if v0 * v1 < 0.0:
            lo, hi, flo = t0, t0 + h, v0
            while hi - lo > ROOT_TOL:
                mid = 0.5 * (lo + hi)
                fm = beta.evaluate(mid)
                if fm == 0.0:
                    lo = hi = mid
                    break
                if flo * fm < 0.0:
                    hi = mid
                else:
                    lo, flo = mid, fm
            roots.append(0.5 * (lo + hi) % TWO_PI)
        elif abs(v0) < SINGULARITY_TOL:
            roots.append(t0)

    roots.sort()
    merged: list[float] = []
    for r in roots:
        if merged and r - merged[-1] < 1e-8:
            continue
        merged.append(r)
    # wraparound duplicate: a root near 2*pi equal to one near 0
    if len(merged) > 1 and (TWO_PI - merged[-1]) + merged[0] < 1e-8:
        merged.pop()
    return merged


def classify(p: SupportFourier, n: int | None = None) -> CurveClass:
    """Convex / l-convex-but-nonconvex / degenerate point, with min p, min beta.

    Convexity is decided by min beta > 0 on the grid alone, so the label is
    translation (mode-1) invariant; min p is still reported. A pure mode-{1}
    series with a0 = 0 is a single point.
    """
    n = _grid_size(p, n, 64)
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    beta = beta_of(p)
    min_p = float(np.min(p.evaluate(theta)))
    min_beta = float(np.min(beta.evaluate(theta)))

    high = max((max(abs(a), abs(b)) for k, a, b in p.modes if k >= 2), default=0.0)
    if high <= 1e-14 and abs(p.a0) <= 1e-14:
        return CurveClass(CurveKind.DEGENERATE_POINT, min_beta, min_p)
    if min_beta > 1e-12:
        return CurveClass(CurveKind.CONVEX, min_beta, min_p)
    return CurveClass(CurveKind.ELL_CONVEX_NONCONVEX, min_beta, min_p)


def ell_convex_residuals(beta_values: np.ndarray) -> tuple[float, float]:
    """(integral of beta*cos, integral of beta*sin) by periodic quadrature.

    Both vanish for the beta of any Legendre-consistent support function
    (mode 1 is annihilated by p -> p + p''); a nonzero value flags grid data
    that is not the beta of any such curve.
    """
    v = np.asarray(getattr(beta_values, "values", beta_values), dtype=float)
    n = v.shape[0]
    if n < 8:
        raise InputError("grid size must be >= 8")
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    w = TWO_PI / n
    return (float(w * np.sum(v * np.cos(theta))),
            float(w * np.sum(v * np.sin(theta))))
