"""Nonlocal inverse curvature flows on Fourier support functions.

The reduced evolution is p_t = f with normal speed f = beta - lambda(t),
i.e. p_t = p_thetatheta + p - lambda(t).  The nonlocal term selects the
conservation law:

    length-preserving:  lambda(t) = L / (2*pi)            (L fixed, A grows)
    area-preserving:    lambda(t) = (1/L) int beta^2      (A fixed, L shrinks)

Modally the PDE is diagonal: d(a_k, b_k)/dt = (1 - k^2)(a_k, b_k) for k >= 1
(mode 1 is frozen, fixing the Steiner point) and da0/dt = a0 - lambda(t).
The ExactModal scheme is the closed-form solution of this system: modes
k >= 2 decay as exp((1 - k^2) t), a0 is constant under the length-preserving
flow, and under the area-preserving flow freezing A gives a0(t)^2 in closed
form (the support-function form of Gage's area-preserving flow).  It needs no
time stepper, so dt only sets the record spacing.  A method-of-lines GridRK4
scheme on default_grid_size(_degree(p)) points is the independent oracle: in
rfft modes it advances modes k >= 1 by RK4's amplification factor, a0 stepped
with the Parseval lambda (step_grid_rk4), under the length flow only until a0
reaches its fixed point.  Every run takes sup_dev on that grid.

run computes its record rows a chunk of record times at a time: the closed
form, or the chunk's grid states analyzed in one rfft, at those times as
Columns, one (K, 2, rows) coefficient block, every field from its moments
(U by inequalities.check_isoperimetric), and sup_dev from _sup_dev's
BLAS-screened rows x grid_n block.  The closed form and the row kernel take
1 - k^2 and their sums over modes from curves.  A row is a DiagnosticsRow,
a NamedTuple whose field order is the CSV column order.
A chunk is cut at its first failing record: a grid stepping error or
non-finite coefficient, else lambda_area's floor (DegenerateLengthError),
else a non-finite field (InputError), raised once on_record has seen the
rows before it.
diagnostics is the same kernel on a state's one-row block, with sup_dev from
the whole grid; it computes the final row again from the final state, and a
field that differs in any bit raises RuntimeError.

lambda_area holds the one comparison |L| < LAMBDA_FLOOR: DegenerateLengthError
on floats, NaN on a column's row.  The closed form reads an a0^2 below 0 as
L = 0.  FlowConfig refuses a run of more than MAX_RECORDS records.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .curves import (TABLE_MAX_ENTRIES, TWO_PI, Columns, InputError,
                     SupportFourier, _at_rows, _degree, _energy, _grid_table,
                     _mode_sum, _one_minus_k2, algebraic_area,
                     algebraic_length, column, stack, uniform_grid)
from .inequalities import check_isoperimetric
from .spectral import (GridFunction, analyze, default_grid_size, derivative,
                       l2_quantities, moments, synthesize)

#: |L| below this leaves lambda_area = (1/L) int beta^2 undefined.
LAMBDA_FLOOR = 1e-9

#: Most records a run keeps: a DiagnosticsRow in FlowTrace.rows holds about
#: 410 bytes (tracemalloc, Python 3.11), so 0.41 GB of rows at the cap.
MAX_RECORDS = 10 ** 6

#: Entries of the rows x grid_n sup_dev block of one chunk of run's rows:
#: 512 KiB, the fastest of 256 KiB, 512 KiB and 1 MiB at K = 32, and a
#: fixed size, so memory stays flat in K.
CHUNK_ENTRIES = TABLE_MAX_ENTRIES // 4


class DegenerateLengthError(ArithmeticError):
    """|L| below the floor: the area-preserving nonlocal term is undefined."""


class StabilityError(InputError):
    """Explicit grid step size exceeds the stiff stability bound."""


class FlowType(enum.Enum):
    AREA_PRESERVING = "area"
    LENGTH_PRESERVING = "length"


class Scheme(enum.Enum):
    EXACT_MODAL = "modal"
    GRID_RK4 = "grid"


@dataclass(frozen=True)
class FlowState:
    t: float
    p: SupportFourier

    def __getattr__(self, name):    # a record state's p, built on first read
        if name != "p" or "_column" not in self.__dict__:
            raise AttributeError(name)
        object.__setattr__(self, "p", column(*self.__dict__["_column"]))
        self.__dict__.pop("_column", None)
        return self.p


@dataclass(frozen=True)
class FlowConfig:
    flow_type: FlowType
    initial: SupportFourier
    t_final: float = 6.0
    dt: float = 1e-3
    scheme: Scheme = Scheme.EXACT_MODAL
    record_every: int = 1
    stop_sup_dev: float = 0.0      # 0 disables early stop

    def __post_init__(self) -> None:
        if not (0 <= self.t_final < math.inf and 0 < self.dt < math.inf):
            raise InputError("need finite t_final >= 0 and dt > 0")
        if self.t_final > 0 and self.dt > self.t_final:
            raise InputError("dt exceeds t_final")
        steps = self.t_final / self.dt
        if not math.isfinite(steps):
            raise InputError(f"t_final / dt = {steps!r} is not finite")
        if abs(steps - round(steps)) > 1e-9:
            raise InputError(f"t_final = {self.t_final!r} is not a whole "
                             f"number of steps dt = {self.dt!r}")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")
        records = len(range(0, round(steps), self.record_every)) + 1  # run
        if records > MAX_RECORDS:
            raise InputError(f"{records} records exceed MAX_RECORDS = "
                             f"{MAX_RECORDS}; raise dt or record_every")
        if not 0 <= self.stop_sup_dev < math.inf:
            raise InputError("need 0 <= stop_sup_dev < inf")
        if self.flow_type is FlowType.AREA_PRESERVING:
            a0_area = algebraic_area(self.initial)
            if not a0_area > 0.0:
                raise DegenerateLengthError(
                    f"area-preserving flow needs positive initial algebraic "
                    f"area, got {a0_area:.6g}")


class DiagnosticsRow(NamedTuple):
    """One trace record; its field order is the CSV column order."""
    t: float
    L: float
    A: float
    deficit: float        # U = L^2 - 4*pi*A, check_isoperimetric
    sup_dev: float        # sup over the diagnostic grid of |beta - L/2pi|
    Q: float              # L^2/2pi - int beta^2  (<= 0 for l-convex curves)
    lam: float
    E1: float             # int (beta')^2
    E2: float             # int (beta'')^2
    a0: float
    max_abs_mode: float   # max over k >= 2 of max(|a_k|, |b_k|)


@dataclass(frozen=True)
class FlowTrace:
    config: FlowConfig
    rows: tuple[DiagnosticsRow, ...]
    final_state: FlowState
    converged: bool = False


def lambda_area(L, int_b2, t):
    """lambda = (1/L) int beta^2, for floats or for columns.  |L| below the
    floor raises DegenerateLengthError at the time t on floats, and gives
    NaN on a column's row, which _rows turns into that error."""
    if isinstance(L, np.ndarray):
        return int_b2 / np.where(np.abs(L) < LAMBDA_FLOOR, np.nan, L)
    if abs(L) < LAMBDA_FLOOR:
        raise DegenerateLengthError(
            f"|L| = {abs(L):.3e} below floor {LAMBDA_FLOOR} at t = {t}")
    return int_b2 / L


def step_exact_modal(state: FlowState, dt: float,
                     flow_type: FlowType) -> FlowState:
    """The exact solution at time state.t + dt of the flow started from state.

    Modes k >= 2 scale by exp((1 - k^2) dt) and mode 1 is untouched.  a0 is
    constant under the length-preserving flow.  Under the area-preserving
    flow, holding A = pi*a0^2 + (pi/2) sum (1 - k^2) c_k^2 fixed gives

        a0(dt)^2 = a0^2 - (1/2) sum_{k>=2} (k^2 - 1) c_k^2 (1 - e^{2(1-k^2)dt})

    with the sign of a0 kept.  a0^2 decreases towards A/pi, so |L| can fall
    below LAMBDA_FLOOR only when A <= pi*(LAMBDA_FLOOR/2pi)^2; for A <= 0
    the flow has no real solution past that time.  Either way lambda_area
    raises DegenerateLengthError on the result's L.
    """
    if dt < 0:
        raise InputError("dt must be >= 0")
    p = column(_closed_form(state.p, [dt], flow_type, state.t), 0)
    if flow_type is FlowType.AREA_PRESERVING:
        lambda_area(algebraic_length(p), 0.0, state.t + dt)
    return FlowState(state.t + dt, p)


@np.errstate(over="ignore", invalid="ignore")
def _closed_form(p: SupportFourier, ts: list[float], flow_type: FlowType,
                 t0: float = 0.0) -> Columns:
    """step_exact_modal from p after each duration in ts, as Columns over ts
    with its bits: math.exp and math.expm1 act element by element, the a0^2
    terms are added in mode order, and mode 1 is scaled by exp(0).  The
    modes are p's (K, 2, 1) block times the (K, 1, len(ts)) decay factors.
    An a0^2 that rounds below 0 reads as a0 = +-0.0, that is L = 0."""
    t, c = np.array(ts, dtype=float), stack([p])
    f = _one_minus_k2(c.k)
    decay = np.fromiter(map(math.exp, np.outer(f, t).ravel().tolist()), float)
    a0 = np.full(t.size, p.a0)
    if flow_type is FlowType.AREA_PRESERVING:
        j = np.searchsorted(c.k, 2)   # the modes with f < 0
        em1 = np.fromiter(map(math.expm1, np.outer(2 * f[j:], t).ravel()
                              .tolist()), float).reshape(-1, t.size)
        a0_sq = p.a0 * p.a0 + 0.5 * _mode_sum(np.zeros(t.size), (
            f[j:, None] * _energy(c.ab[j:])) * -em1)
        if not np.all(np.isfinite(a0_sq)):
            raise InputError(f"the closed form's a0^2 overflows at t = "
                             f"{t0 + ts[np.argmin(np.isfinite(a0_sq))]}")
        a0 = np.copysign(np.sqrt(np.maximum(a0_sq, 0.0)), p.a0)
    return Columns(a0, c.k, c.ab * decay.reshape(-1, 1, t.size))


@dataclass(frozen=True)
class GridFlowState:
    """Method-of-lines state: support-function samples plus the spectral
    cutoff used for the band-limited second derivative."""
    t: float
    grid: GridFunction
    k_cut: int


def grid_stability_bound(k_cut: int) -> float:
    """dt bound for the explicit RK4 step: 1/(k_cut^2 + 1)."""
    return 1.0 / (k_cut * k_cut + 1.0)


def _check_stability(dt: float, k_cut: int) -> None:
    if not dt >= 0:
        raise InputError("dt must be >= 0")
    if dt > grid_stability_bound(k_cut):
        raise StabilityError(
            f"dt = {dt} exceeds stability bound "
            f"{grid_stability_bound(k_cut):.3e} for k_cut = {k_cut}")


@functools.lru_cache(maxsize=64)
def _rk4_modes(n: int, k_cut: int, dt: float) -> np.ndarray:
    """Read-only rows over the modes 1 <= k <= min(k_cut, n/2), z = (1 - k^2)
    dt: RK4's factor R on y' = (1 - k^2) y, then w_k (1 - k^2)^2 g_s^2 for
    its stage inputs g_s y (w_k 1 at n/2, else 2): g_0 = 1, g_s = 1 + c_s z
    g_{s-1} (c = 1/2, 1/2, 1), R = 1 + z/6 (g_0 + 2 g_1 + 2 g_2 + g_3)."""
    k = np.arange(1, min(k_cut, n // 2) + 1)
    z, g = (1.0 - k * k) * dt, np.ones((4, k.size))
    for s, c in ((1, 0.5), (2, 0.5), (3, 1.0)):
        g[s] += c * z * g[s - 1]
    w = np.where(2 * k % n == 0, 1.0, 2.0) * (1.0 - k * k) ** 2
    out = np.vstack([1.0 + z / 6.0 * (np.array([1.0, 2.0, 2.0, 1.0]) @ g),
                     w * g * g])
    out.flags.writeable = False
    return out


@np.errstate(over="ignore", invalid="ignore")
def step_grid_rk4(state: GridFlowState, dt: float, flow_type: FlowType,
                  steps: int = 1) -> GridFlowState:
    """`steps` classical RK4 steps of p_t = beta - lambda(t), beta = p + p''
    with modes k <= min(k_cut, n/2) of V = rfft(v): modes k >= 1 by RK4's
    amplification factor, a0 stepped with the Parseval lambda.  A mode
    k >= 1 has right-hand side (1 - k^2) U_k, so stage s of step j takes
    g_s R^j V_k (_rk4_modes).  The float u = Re U_0 alone runs the stages,
    f = u - n lambda (t + dt per step), with L = 2 pi/n u: lambda = L/2pi
    (length flow; u is fixed from its first increment of 0.0 on), or int
    beta^2 / L, int beta^2 = 2 pi/n^2 (u^2 + E[j, s]), E[j, s] = sum_k w_k
    (1 - k^2)^2 g_s^2 R^2j |V_k|^2 in one product per CHUNK_ENTRIES powers.
    Then v + irfft([sum of u's increments, (R^steps - 1) V_k])."""
    if not isinstance(steps, int) or steps < 1:
        raise InputError(f"steps must be an int >= 1, got {steps!r}")
    _check_stability(dt, state.k_cut)
    v, t, n = state.grid.values, state.t, state.grid.n
    table = _rk4_modes(n, state.k_cut, dt)
    V = np.fft.rfft(v)[:table.shape[1] + 1]
    R, lam = table[0], lambda_area
    h, w, half, sixth = TWO_PI / n, TWO_PI / (n * n), 0.5 * dt, dt / 6.0
    u = u0 = float(V[0].real)
    d0, inc, block = 0.0, 1.0, max(1, CHUNK_ENTRIES // max(R.size, 1))
    if flow_type is FlowType.LENGTH_PRESERVING:
        for _ in range(steps):
            if inc != 0.0:  # f = x - n L/2pi: u is fixed once inc is 0.0
                f1 = u - n * (h * u / TWO_PI)
                f2 = (x := u + half * f1) - n * (h * x / TWO_PI)
                f3 = (x := u + half * f2) - n * (h * x / TWO_PI)
                f4 = (x := u + dt * f3) - n * (h * x / TWO_PI)
                d0 += (inc := sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4))
            u, t = u0 + d0, t + dt
    else:
        cg = (table[1:] * (V[1:].real ** 2 + V[1:].imag ** 2)).T
        for j0 in range(0, steps, block):
            j = np.arange(j0, min(j0 + block, steps), dtype=float)
            # two rows at least: numpy sends a one-row product to gemv, which
            # sums in another order than gemm, so E would depend on the block
            P = R ** (2.0 * np.resize(j, max(j.size, 2))[:, None])
            for e1, e2, e3, e4 in (P @ cg)[:j.size].tolist():
                # f = x - n lambda: L = h x, int beta^2 = w (x^2 + e) at x
                f1 = u - n * lam(h * u, w * (u * u + e1), t)
                f2 = (x := u + half * f1) - n * lam(h * x, w * (x * x + e2), t)
                f3 = (x := u + half * f2) - n * lam(h * x, w * (x * x + e3), t)
                f4 = (x := u + dt * f3) - n * lam(h * x, w * (x * x + e4), t)
                d0 += sixth * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
                u, t = u0 + d0, t + dt
    D = np.concatenate(([d0], (R ** steps - 1.0) * V[1:]))
    return GridFlowState(t, GridFunction(v + np.fft.irfft(D, n)), state.k_cut)


def diagnostics(state: FlowState, flow_type: FlowType,
                grid_n: int) -> DiagnosticsRow:
    """The trace row of one state: _rows on its one-row block, every field a
    float and sup_dev from evaluate on the whole grid_n-point grid."""
    rows, error = _rows(state.t, stack([state.p]), flow_type, grid_n)
    if error is not None:
        raise error
    return rows[0]


def _sup_dev(beta, center, grid_n: int):
    """max_j |beta(theta_j) - center| on uniform_grid(grid_n) for the
    SupportFourier beta or each row of the Columns beta, with the bits of
    evaluate's full-grid sum.  One BLAS product over the cached table screens
    the rows: it and evaluate add the same m = 2K + 3 terms (K table modes,
    |cos|, |sin| <= 1), each within gamma_m * M of the true sum, M = |a0| +
    |center| + sum |a_k| + |b_k|, in any order, with or without FMA (Higham,
    Accuracy and Stability, 3.1), and within tiny per term of underflow.  A
    point screened below its row's max - 2 delta, delta = 2 m (eps M + tiny),
    cannot hold the max, so evaluate's sum is redone, in its order and from
    the table, on the other points only; on every point for one row, without
    a table, or with 2M not finite, a flat row or too many points.  A mode
    that is exactly zero in every row is left out of the table, the screen
    and the redo: its terms change a sum only in the sign of a zero, which
    abs removes."""
    theta, fp = uniform_grid(grid_n), np.finfo(float)
    a0, shift = np.reshape(beta.a0, (-1, 1)), np.reshape(center, (-1, 1))
    J = table = None
    if a0.size > 1:
        nz = np.any(beta.ab, axis=(1, 2))
        ab, ks = beta.ab[nz], beta.k[nz] - 1
        table = _grid_table(theta, int(ks[-1]) + 1 if ks.size else 0)
    if table is not None:
        pad = np.zeros((a0.size, 2, table.shape[1]))
        pad[:, :, ks] = ab.transpose(2, 1, 0)
        modes = np.sum(np.abs(ab), axis=(0, 1))[:, None]
        M = np.abs(a0) + np.abs(shift) + modes
        delta = 2.0 * (2 * table.shape[1] + 3) * (fp.eps * M + fp.tiny)
        if np.all((np.abs(a0 - shift) + modes > delta) & (2 * M < np.inf)):
            # in place: a fresh rows x grid_n array costs more than its sums
            screen = pad.reshape(a0.size, -1) @ table.reshape(-1, grid_n)
            screen += a0 - shift
            np.abs(screen, out=screen)
            J = np.flatnonzero(np.any(screen >= np.max(
                screen, axis=1, keepdims=True) - 2 * delta, axis=0))
            J = J if ab.size * J.size <= TABLE_MAX_ENTRIES else None
    if J is None:
        dev = SupportFourier.evaluate(beta, theta)
    else:   # evaluate's terms at the points J, added term after term
        trig = table[:, ks[:, None], J].transpose(1, 0, 2)[:, :, None]
        terms = (ab[..., None] * trig).reshape(-1, a0.size, J.size)
        dev = _mode_sum(terms[0] + a0, terms[1:])
    dev -= np.expand_dims(center, -1)
    return np.max(np.abs(dev, out=dev), axis=-1)


@np.errstate(over="ignore", invalid="ignore")
def _rows(t, c, flow_type: FlowType, grid_n: int):
    """The trace rows of the state c at time t, or of each column i of the
    Columns c at time t[i], before the first row with a non-finite field, and
    that row's error or None (DegenerateLengthError where lambda_area meets
    the floor, else InputError naming the field): every field from the
    moments of c, E2 as l2_quantities(derivative(beta)) sums it, and sup_dev
    from _sup_dev's screened block; a row's bits do not depend on the other
    rows."""
    m = moments(c)
    area = flow_type is FlowType.AREA_PRESERVING
    lam = lambda_area(m.L, m.int_b2, t) if area else c.a0
    max_abs = np.max(np.abs(c.ab[np.searchsorted(c.k, 2):]), axis=(0, 1),
                     initial=0.0)
    fields = DiagnosticsRow(
        t=t, L=m.L, A=m.A, deficit=check_isoperimetric(m),
        sup_dev=_sup_dev(m.beta, m.L / TWO_PI, grid_n),
        Q=m.L * m.L / TWO_PI - m.int_b2, lam=lam, E1=m.int_db2,
        E2=l2_quantities(derivative(m.beta))["int_dp2"], a0=c.a0,
        max_abs_mode=max_abs)
    out = np.vstack(fields)
    rows = list(map(DiagnosticsRow._make, out.T.tolist()))
    ok = np.isfinite(out)
    if ok.all():
        return rows, None
    i = int(np.argmin(ok.all(axis=0)))
    row, j = rows[i], int(np.argmin(ok[:, i]))
    try:
        if area:
            lambda_area(row.L, 0.0, row.t)
    except DegenerateLengthError as exc:
        return rows[:i], exc
    return rows[:i], InputError(f"non-finite {DiagnosticsRow._fields[j]} = "
                                f"{row[j]!r} at t = {row.t!r}")


def _columns(config: FlowConfig, chunks, grid_n: int):
    """For each chunk of step counts: its record times and their series as
    Columns.  The modal scheme evaluates its closed form at the chunk's
    times.  The grid scheme, with k_cut the initial curve's _degree (at
    least 1), advances RK4 one record interval per call, then analyzes the
    chunk's record grids in one rfft: Columns whose (k_cut, 2, rows) block
    holds modes 1..k_cut, +0.0 where a_k = b_k = 0.  An error met while
    stepping a chunk, or a record whose series is not finite (InputError
    "non-finite coefficient"), cuts the chunk before that record, and is
    raised once it has been yielded."""
    flow_type, dt = config.flow_type, config.dt
    if config.scheme is Scheme.EXACT_MODAL:
        for ts in ([step * dt for step in steps] for steps in chunks):
            yield ts, _closed_form(config.initial, ts, flow_type)
        return
    k_cut = max(_degree(config.initial), 1)
    _check_stability(dt, k_cut)
    gstate = GridFlowState(0.0, synthesize(config.initial, grid_n), k_cut)
    done = 0
    for steps in chunks:
        grids, error = [], None
        try:
            for step in steps:
                if step > done:
                    gstate = step_grid_rk4(gstate, dt, flow_type, step - done)
                grids.append(gstate.grid.values)
                done = step
        except Exception as exc:    # raised below, after the rows stepped
            error = exc
        c = analyze(np.reshape(grids, (-1, grid_n)), k_cut)
        ok = np.isfinite(c.a0) & np.isfinite(c.ab).all(axis=(0, 1))
        if not ok.all():    # a row's bits do not depend on the rows after it
            j, error = np.argmin(ok), InputError("non-finite coefficient")
            c = _at_rows(c, slice(j))
        if len(c.a0):
            yield [step * dt for step in steps[:len(c.a0)]], c
        if error is not None:
            raise error


def run(config: FlowConfig, on_record=None) -> FlowTrace:
    """Integrate to t_final (or early stop), recording diagnostics every
    record_every steps plus the initial and final rows: the _rows of each
    chunk of CHUNK_ENTRIES // grid_n records that _columns yields.

    on_record, if given, is called with (record_index, FlowState) at every
    recorded row in order, before the next chunk of rows is computed or the
    chunk's error is raised: the CLI's snapshot hook, and the signature that
    perfbench's record_states wraps, so it stays fixed.  The state's p is
    column(c, i) of its chunk's block, built and validated when first read,
    so a record whose p is never read builds no SupportFourier.
    """
    grid_n = default_grid_size(_degree(config.initial))
    n_steps = round(config.t_final / config.dt)
    steps = [*range(0, n_steps, config.record_every), n_steps]
    size = max(1, CHUNK_ENTRIES // grid_n)
    chunks = (steps[lo:lo + size] for lo in range(0, len(steps), size))
    rows, converged, stop = [], False, config.stop_sup_dev
    for ts, c in _columns(config, chunks, grid_n):
        kept, error = _rows(ts, c, config.flow_type, grid_n)
        for i, row in enumerate(kept):
            rows.append(row)
            if on_record is not None:
                state = object.__new__(FlowState)   # p = column(c, i)
                state.__dict__.update(t=row.t, _column=(c, i))
                on_record(len(rows) - 1, state)
            if converged := len(rows) > 1 and row.sup_dev < stop:
                break   # never for stop = 0: sup_dev >= 0
        if converged:
            break
        if error is not None:
            raise error
    final = FlowState(row.t, column(c, i)) \
        if config.scheme is Scheme.GRID_RK4 else step_exact_modal(
            FlowState(0.0, config.initial), row.t, config.flow_type)
    check = diagnostics(final, config.flow_type, grid_n)
    if [x.hex() for x in check] != [x.hex() for x in row]:
        raise RuntimeError(f"final row {row} differs from {check}")
    return FlowTrace(config=config, rows=tuple(rows), final_state=final,
                     converged=converged)
