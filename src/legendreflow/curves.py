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
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TWO_PI = 2.0 * math.pi

#: Roots of z^K beta this close to the unit circle are real zeros of beta: a
#: simple zero lands about eps off it, a double zero about sqrt(eps) ~ 1.5e-8.
#: Also the largest Newton step taken, so that a root at a near-miss minimum
#: of beta stays put, and the width within which polished zeros are one zero:
#: a double zero splits into two about sqrt(eps) apart.
UNIT_CIRCLE_TOL = 1e-6

#: Newton steps on the real beta: one reaches round-off from a simple zero,
#: the rest serve double zeros, where Newton converges only linearly.
NEWTON_STEPS = 3

#: Largest cos or sin table `SupportFourier.evaluate` caches, in entries
#: (2 MiB); a grid and mode count beyond it are evaluated row by row, so a
#: large-K run keeps the memory of the uncached loop.
TABLE_MAX_ENTRIES = 1 << 18

#: Most points of a uniform_grid (8 MiB of samples): a curve whose degree
#: asks for more is refused before any grid is allocated.
MAX_GRID_N = 1 << 20

#: Highest mode of beta whose zeros `singular_angles` locates: np.roots on the
#: 2K x 2K companion matrix took 5.8 s at K = 512, 15 s at K = 768 (2-core Xeon).
MAX_ROOT_MODE = 512


class InputError(ValueError):
    """An argument outside the domain the function is defined on."""


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

    def evaluate(self, theta, order: int = 0):
        """Evaluate the order-th derivative of p at theta (scalar or array).

        Differentiation acts modally: d/dtheta maps (a_k, b_k) to
        (k*b_k, -k*a_k); the constant term survives only at order 0.
        Called on Columns in place of self, it sums the same terms into a
        (rows,) + theta.shape block whose row i is column i's series.
        """
        if order < 0:
            raise InputError("order must be >= 0")
        th = np.asarray(theta, dtype=float)
        a0, modes = self.a0, self.modes
        if np.ndim(a0):     # Columns: rows first, then the axes of theta
            axes = (...,) + (None,) * th.ndim
            a0, modes = a0[axes], [(k, a[axes], b[axes]) for k, a, b in modes]
        out = _trig_sum(a0, modes, th, order)
        return out if out.ndim else float(out)


def _trig_sum(a0, modes, th: np.ndarray, order: int) -> np.ndarray:
    """evaluate's sum of the order-th derivative, the coefficients
    broadcast against th, term by term in mode order."""
    out = np.full(np.broadcast(a0, th).shape, a0 if order == 0 else 0.0)
    table = _grid_table(th, modes[-1][0] if modes else 0)
    for k, a, b in modes:
        for _ in range(order):
            a, b = k * b, -k * a
        if table is None:
            cos_k, sin_k = np.cos(k * th), np.sin(k * th)
        else:
            cos_k, sin_k = table[0][k - 1], table[1][k - 1]
        out += a * cos_k
        out += b * sin_k
    return out


class Columns(NamedTuple):
    """Coefficient columns: a0 and each a_k, b_k of the (k, a_k, b_k) modes,
    in SupportFourier's order, are 1-D arrays over rows (record times or
    curves); the modal formulas take them in place of a SupportFourier.
    Both list the modes they were built with, exact zeros included."""
    a0: np.ndarray
    modes: tuple[tuple[int, np.ndarray, np.ndarray], ...]


def _degree(p: SupportFourier) -> int:
    """Highest mode of p with a nonzero coefficient (0 if none)."""
    return max((k for k, a, b in p.modes if a or b), default=0)


def column(c: Columns, i: int) -> SupportFourier:
    """Column i of c as a SupportFourier, with every mode c lists."""
    return SupportFourier(c.a0[i], tuple((k, a[i], b[i])
                                         for k, a, b in c.modes))


def stack(ps) -> Columns:
    """The SupportFourier series ps, which list the same modes, as the
    Columns whose column i is ps[i]."""
    ks = [k for k, _, _ in ps[0].modes]
    if any([k for k, _, _ in p.modes] != ks for p in ps):
        raise InputError("stacked series must list the same modes")
    ab = np.array([[m[1:] for m in p.modes] for p in ps]).reshape(
        len(ps), len(ks), 2).transpose(2, 1, 0)
    return Columns(np.array([p.a0 for p in ps]), tuple(zip(ks, *ab)))


@functools.lru_cache(maxsize=8)
def uniform_grid(n: int) -> np.ndarray:
    """The n-point grid theta_j = 2*pi*j/n, j < n, as a shared read-only
    array; n above MAX_GRID_N raises InputError."""
    if n > MAX_GRID_N:
        raise InputError(f"a {n}-point grid exceeds MAX_GRID_N = {MAX_GRID_N}")
    theta = np.linspace(0.0, TWO_PI, n, endpoint=False)
    theta.flags.writeable = False
    return theta


@functools.lru_cache(maxsize=4)
def _trig_table(n: int, K: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (K, n) arrays whose row k-1 is cos(k*theta), sin(k*theta) on
    uniform_grid(n), each row computed as evaluate computes it off the grid."""
    theta = uniform_grid(n)
    cos_kt = np.array([np.cos(k * theta) for k in range(1, K + 1)])
    sin_kt = np.array([np.sin(k * theta) for k in range(1, K + 1)])
    cos_kt.flags.writeable = sin_kt.flags.writeable = False
    return cos_kt, sin_kt


def _grid_table(th: np.ndarray, K: int):
    """The cached cos/sin table covering modes 1..K when th is bit for bit
    uniform_grid(n) (so -0.0 does not pass for 0.0), else None.  The mode
    count is rounded up to a power of two, so that a run whose top modes
    decay to exactly zero keeps hitting one table."""
    if th.ndim != 1 or K == 0:
        return None
    n = th.shape[0]
    rows = 1 << (K - 1).bit_length()
    if rows * n > TABLE_MAX_ENTRIES or th.tobytes() != uniform_grid(n).tobytes():
        return None
    return _trig_table(n, rows)


class CurveKind(enum.Enum):
    CONVEX = "convex"
    ELL_CONVEX_NONCONVEX = "ell-convex-nonconvex"
    DEGENERATE_POINT = "degenerate-point"


@dataclass(frozen=True)
class CurveClass:
    kind: CurveKind
    min_beta: float
    min_p: float


def sample_points(p: SupportFourier | Columns, thetas: np.ndarray,
                  row: np.ndarray | None = None) -> np.ndarray:
    """Curve points gamma = p*(cos, sin) + p'*(-sin, cos) at each theta,
    as a (len(thetas), 2) array, or (rows, len(thetas), 2) for Columns;
    2*pi-periodic.  With row, point j is row row[j] of the Columns p at
    thetas[j] alone, with the bits of that row's own points."""
    th = np.asarray(thetas, dtype=float)
    pv, dv = (SupportFourier.evaluate(p, th, order) if row is None
              else _trig_sum(*_at_rows(p, row), th, order) for order in (0, 1))
    cos, sin = np.cos(th), np.sin(th)
    return np.stack([pv * cos - dv * sin, pv * sin + dv * cos], axis=-1)


def beta_of(p: SupportFourier | Columns) -> SupportFourier | Columns:
    """beta = p + p'': coefficientwise (a_k, b_k) -> (1 - k^2)(a_k, b_k).

    Mode 1 is annihilated, which is exactly the condition that beta stays
    orthogonal to cos/sin and the curve remains l-convex, so beta lists
    every mode k >= 2 of p, zero or not, in p's type.
    """
    return type(p)(p.a0, tuple((k, (1.0 - k * k) * a, (1.0 - k * k) * b)
                               for k, a, b in p.modes if k >= 2))


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


def isoperimetric_deficit(p: SupportFourier) -> float:
    """L^2 - 4*pi*A; zero exactly for circles."""
    L = algebraic_length(p)
    return L * L - 4.0 * math.pi * algebraic_area(p)


def steiner_point(p: SupportFourier) -> Point2:
    """The flow-invariant center (a1, b1)."""
    a1, b1 = p.coeff(1)
    return Point2(a1, b1)


def singular_angles(p: SupportFourier | Columns) -> list:
    """Sorted angles in [0, 2*pi) where beta vanishes (cusps of the curve):
    a list for a SupportFourier, the one-row case, and one per row for
    Columns.

    With z = exp(i*theta), z^K beta(theta) is a polynomial of degree 2K in z
    with coefficients c_K = a0 and c_{K+-k} = (a_k -+ i*b_k)/2 from the modes
    of beta, and its roots on the unit circle are the real zeros of beta
    (Boyd, J. Eng. Math. 56, 2006).  Each is polished by Newton steps on the
    real beta; zeros closer than UNIT_CIRCLE_TOL are reported once, so a
    tangency counts once, and a minimum of beta within round-off of 0 counts
    as a zero.  A constant beta has no zero to locate, so the result is []
    -- including beta = 0, the single-point curve that classify reports as
    degenerate.  K is the largest _degree of beta over the rows, and one
    above MAX_ROOT_MODE raises InputError.

    Rows of lower degree get zero outer coefficients, which the trim drops;
    companion matrices of one size go to np.linalg.eigvals in stacks of at
    most TABLE_MAX_ENTRIES entries, and Newton polishes all roots at once
    in evaluate's order, so each row keeps the bits of its one-row call.
    """
    c = p if np.ndim(p.a0) else stack([p])
    beta, rows = beta_of(c), c.a0.size
    deg = np.zeros(rows, dtype=int)
    for k, a, b in beta.modes:
        deg[(a != 0) | (b != 0)] = k
    K = int(deg.max(initial=0))
    if K > MAX_ROOT_MODE:
        raise InputError(f"beta has mode {K} > MAX_ROOT_MODE = {MAX_ROOT_MODE}")
    C = np.zeros((rows, 2 * K + 1), dtype=complex)
    C[:, K] = beta.a0
    for k, a, b in beta.modes:
        if k > K:
            break
        nz = (a != 0) | (b != 0)    # a zero coefficient pair stays 0j
        z = a[nz].astype(complex)
        z.imag = -b[nz]
        C[nz, K + k] = z / 2
        z.imag = b[nz]
        C[nz, K - k] = z / 2
    # Outer coefficients below round-off of the largest would only add roots
    # near 0 and infinity, and they spoil the companion matrix.
    mag = np.abs(C)
    top = mag.max(axis=1, initial=0.0, keepdims=True)
    lo = np.argmax(mag > np.finfo(float).eps * top, axis=1)
    # np.roots divides by the leading coefficient, and 1/subnormal overflows:
    # an exact power-of-two scale brings the largest into [1/2, 1)
    C = np.ldexp(C.view(float), -np.frexp(top)[1]).view(complex)
    theta, row = [np.empty(0)], [np.empty(0, dtype=int)]
    live = (deg > 0) & (lo < K)     # lo = K leaves a constant: no roots
    for cut in np.unique(lo[live]):     # np.roots' companion matrices
        members = np.flatnonzero(live & (lo == cut))
        P = C[members, cut:C.shape[1] - cut][:, ::-1]
        d = P.shape[1] - 1
        step = max(1, TABLE_MAX_ENTRIES // (d * d))
        for s in range(0, members.size, step):
            A = np.zeros((P[s:s + step].shape[0], d, d), dtype=complex)
            A[:, np.arange(1, d), np.arange(d - 1)] = 1.0
            A[:, 0] = -P[s:s + step, 1:] / P[s:s + step, :1]
            z = np.linalg.eigvals(A)
            on = np.abs(np.abs(z) - 1.0) < UNIT_CIRCLE_TOL
            theta.append(np.angle(z[on]))
            row.append(np.broadcast_to(members[s:s + step, None], z.shape)[on])
    theta, row = np.concatenate(theta), np.concatenate(row)
    a0, modes = _at_rows(beta, row)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(NEWTON_STEPS):
            dx = _trig_sum(a0, modes, theta, 0) / _trig_sum(a0, modes, theta, 1)
            theta = np.where(abs(dx) < UNIT_CIRCLE_TOL, theta - dx, theta)
    theta = np.mod(theta, TWO_PI)
    theta[theta == TWO_PI] = 0.0        # np.mod rounds -tiny up to 2*pi
    angles = []
    for i in range(rows):
        th = np.sort(theta[row == i])
        # of zeros closer than UNIT_CIRCLE_TOL, also across 2*pi, the last
        # is kept
        keep = np.diff(th, append=th[:1] + TWO_PI) >= UNIT_CIRCLE_TOL
        angles.append(th[keep].tolist())
    return angles if np.ndim(p.a0) else angles[0]


def _at_rows(c: Columns, row: np.ndarray):
    """a0 and the modes of c with row row[j] of c at position j, for
    _trig_sum to evaluate each at its own angle."""
    return c.a0[row], [(k, a[row], b[row]) for k, a, b in c.modes]


def classify(p: SupportFourier) -> CurveClass:
    """Convex / l-convex-but-nonconvex / degenerate point, with min p, min beta.

    The curve is convex exactly when beta has no real zero and beta(0) > 0,
    so the label is translation (mode-1) invariant.  min p and min beta are
    only reported, sampled on max(4*(_degree(p)+1), 64) points.  beta = 0
    (a0 = 0, no nonzero mode k >= 2), at any scale, is a single point.
    """
    theta = uniform_grid(max(4 * (_degree(p) + 1), 64))
    beta = beta_of(p)
    min_p = float(np.min(p.evaluate(theta)))
    min_beta = float(np.min(beta.evaluate(theta)))
    if p.a0 == 0.0 and not any(a or b for _, a, b in beta.modes):
        return CurveClass(CurveKind.DEGENERATE_POINT, min_beta, min_p)
    if beta.evaluate(0.0) > 0.0 and not singular_angles(p):
        return CurveClass(CurveKind.CONVEX, min_beta, min_p)
    return CurveClass(CurveKind.ELL_CONVEX_NONCONVEX, min_beta, min_p)

