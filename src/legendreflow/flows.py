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
scheme serves as the independent oracle.

lambda_area raises DegenerateLengthError when |L| < LAMBDA_FLOOR; runs start
from A > 0 and keep |L| >= 2*sqrt(pi*A), so only direct calls reach the floor.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .curves import (TWO_PI, InputError, SupportFourier, algebraic_area,
                     isoperimetric_deficit, uniform_grid)
from .spectral import (GridFunction, analyze, default_grid_size, derivative,
                       l2_quantities, moments, synthesize)

#: |L| below this leaves lambda_area = (1/L) int beta^2 undefined.
LAMBDA_FLOOR = 1e-9


class DegenerateLengthError(ArithmeticError):
    """|L| below the floor: the area-preserving nonlocal term is undefined."""


class StabilityError(InputError):
    """Explicit grid step size exceeds the stiff stability bound."""


class WindowTooNoisyError(RuntimeError):
    """Log-linear decay fit rejected (r^2 < 0.99)."""


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


@dataclass(frozen=True)
class FlowConfig:
    flow_type: FlowType
    initial: SupportFourier
    t_final: float = 6.0
    dt: float = 1e-3
    scheme: Scheme = Scheme.EXACT_MODAL
    grid_n: int | None = None
    record_every: int = 1
    stop_sup_dev: float = 0.0      # 0 disables early stop

    def __post_init__(self) -> None:
        if not (0 <= self.t_final < math.inf and 0 < self.dt < math.inf):
            raise InputError("need finite t_final >= 0 and dt > 0")
        if self.t_final > 0 and self.dt > self.t_final:
            raise InputError("dt exceeds t_final")
        steps = self.t_final / self.dt
        if abs(steps - round(steps)) > 1e-9:
            raise InputError(f"t_final = {self.t_final!r} is not a whole "
                             f"number of steps dt = {self.dt!r}")
        if self.record_every < 1:
            raise InputError("record_every must be >= 1")
        if self.grid_n is not None and self.grid_n < 1:
            raise InputError("grid_n must be >= 1")
        if not 0 <= self.stop_sup_dev < math.inf:
            raise InputError("need 0 <= stop_sup_dev < inf")
        if self.flow_type is FlowType.AREA_PRESERVING:
            a0_area = algebraic_area(self.initial)
            if not a0_area > 0.0:
                raise DegenerateLengthError(
                    f"area-preserving flow needs positive initial algebraic "
                    f"area, got {a0_area:.6g}")

    @property
    def effective_grid_n(self) -> int:
        return self.grid_n if self.grid_n is not None \
            else default_grid_size(self.initial.K)


@dataclass(frozen=True)
class DiagnosticsRow:
    t: float
    L: float
    A: float
    deficit: float        # U = L^2 - 4*pi*A
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


def lambda_area(L: float, int_b2: float, t: float) -> float:
    """lambda = (1/L) int beta^2; t only labels DegenerateLengthError."""
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
    the flow has no real solution past that time.  Either way
    DegenerateLengthError is raised.
    """
    if dt < 0:
        raise InputError("dt must be >= 0")
    p = state.p
    new_modes = tuple(
        (k, a, b) if k == 1 else
        (k, a * math.exp((1 - k * k) * dt), b * math.exp((1 - k * k) * dt))
        for k, a, b in p.modes)
    a0 = p.a0
    if flow_type is FlowType.AREA_PRESERVING:
        a0_sq = p.a0 * p.a0 + 0.5 * sum(
            (1 - k * k) * (a * a + b * b) * -math.expm1(2 * (1 - k * k) * dt)
            for k, a, b in p.modes if k >= 2)
        if not a0_sq >= (LAMBDA_FLOOR / TWO_PI) ** 2:
            raise DegenerateLengthError(
                f"|L| falls below floor {LAMBDA_FLOOR} before "
                f"t = {state.t + dt}")
        a0 = math.copysign(math.sqrt(a0_sq), p.a0)
    return FlowState(state.t + dt, SupportFourier(a0, new_modes))


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
    if dt > grid_stability_bound(k_cut):
        raise StabilityError(
            f"dt = {dt} exceeds stability bound "
            f"{grid_stability_bound(k_cut):.3e} for k_cut = {k_cut}")


def _grid_rhs(v: np.ndarray, flow_type: FlowType, k_cut: int,
              t: float) -> np.ndarray:
    n = v.shape[0]
    vh = np.fft.rfft(v)
    vh[k_cut + 1:] = 0.0
    vf = np.fft.irfft(vh, n)
    k = np.arange(vh.shape[0])
    pdd = np.fft.irfft(-(k * k) * vh, n)
    L = TWO_PI / n * float(np.sum(vf))
    if flow_type is FlowType.LENGTH_PRESERVING:
        lam = L / TWO_PI
    else:
        beta = vf + pdd
        lam = lambda_area(L, TWO_PI / n * float(np.sum(beta * beta)), t)
    return pdd + vf - lam


def step_grid_rk4(state: GridFlowState, dt: float,
                  flow_type: FlowType) -> GridFlowState:
    """One classical RK4 step of p_t = p_thetatheta + p - lambda(t) with
    spectral differentiation band-limited to k <= k_cut.

    The independent time-stepping oracle for step_exact_modal.
    """
    _check_stability(dt, state.k_cut)
    v = state.grid.values
    t = state.t
    f1 = _grid_rhs(v, flow_type, state.k_cut, t)
    f2 = _grid_rhs(v + 0.5 * dt * f1, flow_type, state.k_cut, t)
    f3 = _grid_rhs(v + 0.5 * dt * f2, flow_type, state.k_cut, t)
    f4 = _grid_rhs(v + dt * f3, flow_type, state.k_cut, t)
    vn = v + dt / 6.0 * (f1 + 2.0 * f2 + 2.0 * f3 + f4)
    return GridFlowState(t + dt, GridFunction(vn), state.k_cut)


def diagnostics(state: FlowState, flow_type: FlowType,
                grid_n: int) -> DiagnosticsRow:
    """All monitored quantities for one trace row, from modal formulas
    except sup_dev, which is taken on the grid_n-point diagnostic grid."""
    p = state.p
    m = moments(p)
    e2 = l2_quantities(derivative(m.beta))["int_dp2"]
    theta = uniform_grid(grid_n)
    sup_dev = float(np.max(np.abs(m.beta.evaluate(theta) - m.L / TWO_PI)))
    lam = p.a0 if flow_type is FlowType.LENGTH_PRESERVING \
        else lambda_area(m.L, m.int_b2, state.t)
    max_abs = max((max(abs(a), abs(b)) for k, a, b in p.modes if k >= 2),
                  default=0.0)
    return DiagnosticsRow(
        t=state.t, L=m.L, A=m.A, deficit=isoperimetric_deficit(p),
        sup_dev=sup_dev, Q=m.L * m.L / TWO_PI - m.int_b2, lam=lam,
        E1=m.int_db2, E2=e2, a0=p.a0, max_abs_mode=max_abs)


def _record_states(config: FlowConfig, steps: list[int]):
    """Yield the state after each of the increasing step counts `steps`.

    The modal scheme evaluates its closed form at step*dt; the grid scheme
    advances RK4 to the step and analyzes the grid there.
    """
    flow_type, dt = config.flow_type, config.dt
    if config.scheme is Scheme.EXACT_MODAL:
        start = FlowState(0.0, config.initial)
        for step in steps:
            yield step_exact_modal(start, step * dt, flow_type)
        return
    k_cut = max(config.initial.K, 1)
    _check_stability(dt, k_cut)
    gstate = GridFlowState(
        0.0, synthesize(config.initial, config.effective_grid_n), k_cut)
    done = 0
    for step in steps:
        for _ in range(step - done):
            gstate = step_grid_rk4(gstate, dt, flow_type)
        done = step
        yield FlowState(step * dt, analyze(gstate.grid, k_cut))


def run(config: FlowConfig, on_record=None) -> FlowTrace:
    """Integrate to t_final (or early stop), recording diagnostics every
    record_every steps plus the initial and final rows.

    on_record, if given, is called with (record_index, FlowState) at every
    recorded row (snapshot hook for the CLI).
    """
    grid_n = config.effective_grid_n
    n_steps = round(config.t_final / config.dt)
    steps = list(range(0, n_steps + 1, config.record_every))
    if steps[-1] != n_steps:
        steps.append(n_steps)
    rows = []
    converged = False
    for index, state in enumerate(_record_states(config, steps)):
        rows.append(diagnostics(state, config.flow_type, grid_n))
        if on_record is not None:
            on_record(index, state)
        if index > 0 and config.stop_sup_dev > 0 \
                and rows[-1].sup_dev < config.stop_sup_dev:
            converged = True
            break
    return FlowTrace(config=config, rows=tuple(rows), final_state=state,
                     converged=converged)


_FIT_FIELDS = ("sup_dev", "absQ")


def fit_decay_rate(trace: FlowTrace, fit_field: str,
                   window: tuple[float, float]) -> dict[str, float]:
    """Least-squares slope of log(field) vs t over the window.

    Returns {"alpha": -slope, "r2": ...}; raises WindowTooNoisyError when
    r^2 < 0.99.  Field values must stay above 1e-13 in the window so the log
    never probes the round-off floor.
    """
    if fit_field not in _FIT_FIELDS:
        raise InputError(f"unknown field {fit_field!r}, expected one of {_FIT_FIELDS}")
    t_lo, t_hi = window
    rows = [r for r in trace.rows if t_lo <= r.t <= t_hi]
    if len(rows) < 3:
        raise InputError("window contains fewer than 3 rows")
    vals = np.array([r.sup_dev if fit_field == "sup_dev" else abs(r.Q)
                     for r in rows])
    if np.any(vals <= 1e-13):
        raise InputError("field values reach the 1e-13 noise floor in window")
    ts = np.array([r.t for r in rows])
    logv = np.log(vals)
    slope, intercept = np.polyfit(ts, logv, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logv - fitted) ** 2))
    ss_tot = float(np.sum((logv - np.mean(logv)) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    if r2 < 0.99:
        raise WindowTooNoisyError(f"r^2 = {r2:.4f} < 0.99")
    return {"alpha": -float(slope), "r2": r2}
