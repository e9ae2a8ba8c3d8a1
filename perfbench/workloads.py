"""The benchmark's workloads: the CLI operations of one pass, and the checks
made on every operation's outputs.

One operation is one ``simulate`` or ``inequalities`` invocation through
``cli_main``, timed on its own; a pass runs every operation of its workload
once, and its wall time is the sum of the operation times (checks excluded).
The reference kernel runs, untimed by the pass, between the operations and
before the first and after the last.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from pathlib import Path

from legendreflow import cli
from legendreflow.flows import FlowConfig, FlowType, Scheme
from legendreflow.inequalities import Constraint, CurveEnsembleSpec
from reference import REF_NOMINAL_S, timed_reference

# Bound at import time: the checks must use the untraced reader even while
# the tracer has replaced cli.read_trace_csv.
read_trace_csv = cli.read_trace_csv

DT = 1e-3
#: figure1a under the area flow has four cusps until t* = ln(3)/6 ~ 0.183.
#: The program's 16-point root search can miss the cusp pairs as they merge
#: just before t*, so the check only looks at t <= 0.1 and t >= 0.2.
FIGURE1A_CUSPS = 4
CUSPS_UNTIL, SMOOTH_FROM = 0.1, 0.2


@dataclass(frozen=True)
class Simulate:
    flow: str                 # "length" or "area"
    curve: str                # input name from inputs.write_inputs
    t_final: float
    scheme: str = "modal"
    record_every: int = 1
    svg_every: int = 0        # 0: no SVG snapshots

    @property
    def items(self) -> int:
        """Flow steps of one operation."""
        return round(self.t_final / DT)

    @property
    def rows(self) -> int:
        n, r = self.items, self.record_every
        return n // r + 1 + (n % r != 0)

    def argv(self, ctx: "Context", out: Path) -> list[str]:
        argv = ["simulate", "--flow", self.flow,
                "--curve", str(ctx.curves[self.curve]),
                "--t-final", repr(self.t_final), "--dt", repr(DT),
                "--scheme", self.scheme,
                "--record-every", str(self.record_every),
                "--out", str(out / "trace.csv")]
        if self.svg_every:
            argv += ["--svg-dir", str(out / "svg"),
                     "--svg-every", str(self.svg_every)]
        return argv

    def config(self, ctx: "Context") -> FlowConfig:
        return FlowConfig(flow_type=FlowType(self.flow),
                          initial=cli.parse_curve_file(ctx.curves[self.curve]),
                          t_final=self.t_final, dt=DT,
                          scheme=Scheme(self.scheme),
                          record_every=self.record_every)


@dataclass(frozen=True)
class Inequalities:
    constraint: str
    count: int
    k_max: int = 8

    @property
    def items(self) -> int:
        """Ensemble curves of one operation."""
        return self.count

    def argv(self, ctx: "Context", out: Path) -> list[str]:
        return ["inequalities", "--seed", str(ctx.seed),
                "--count", str(self.count), "--k-max", str(self.k_max),
                "--constraint", self.constraint,
                "--json", str(out / "report.json")]

    def config(self, ctx: "Context") -> CurveEnsembleSpec:
        return CurveEnsembleSpec(seed=ctx.seed, count=self.count, K=self.k_max,
                                 constraint=Constraint(self.constraint))


WORKLOADS = {
    # Every row recorded: diagnostics, grid evaluation for sup_dev,
    # SupportFourier construction and CSV/SVG writes dominate.
    "trace-dense": (
        Simulate("length", "dense_k32", 0.3),
        Simulate("area", "dense_k32", 0.3),
        Simulate("area", "figure1a", 0.25, svg_every=10),
    ),
    # One row in 100: time stepping and the grid round trip dominate.  K = 16
    # keeps dt = 1e-3 inside the grid stability bound 1/(K^2 + 1).
    "oracle-sparse": (
        Simulate("length", "sparse_k16", 1.0, "modal", 100),
        Simulate("length", "sparse_k16", 1.0, "grid", 100),
        Simulate("area", "sparse_k16", 1.0, "modal", 100),
        Simulate("area", "sparse_k16", 1.0, "grid", 100),
    ),
    # Counter-based generator and modal slack formulas; no flow, no grid.
    "ensemble": (
        Inequalities("positive-area", 2000),
        Inequalities("zero-length", 2000),
    ),
}


@dataclass
class Context:
    """Inputs and state shared by the passes of one workload."""
    workdir: Path
    curves: dict[str, Path]
    seed: int
    first_reports: dict[int, bytes] = field(default_factory=dict)


@dataclass
class PassResult:
    wall_s: float = 0.0
    ref_s: float = 0.0               # reference kernel runs around the ops
    items: int = 0
    attempted: int = 0
    failed: int = 0
    drift: float | None = None       # max relative drift of L or A
    gap: float | None = None         # max |modal - grid| coefficient
    csv_bytes: list[int] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    @property
    def scaled_s(self) -> float:
        """wall_s at the reference speed (see reference.py)."""
        return self.wall_s * REF_NOMINAL_S * (self.attempted + 1) / self.ref_s


@contextlib.contextmanager
def record_states(sink: list):
    """Collect the FlowState of every recorded row of the simulate command,
    by passing an extra on_record callback to cli's run."""
    original = cli.run

    def run(config, on_record=None):
        def record(i, state):
            sink.append(state)
            if on_record is not None:
                on_record(i, state)
        return original(config, on_record=record)

    cli.run = run
    try:
        yield
    finally:
        cli.run = original


def _max_drift(values: list[float]) -> float:
    x0 = values[0]
    return max(abs(x - x0) for x in values) / abs(x0)


def _check_simulate(op: Simulate, out: Path, res: PassResult) -> list[str]:
    rows = read_trace_csv(out / "trace.csv")
    if len(rows) != op.rows:
        return [f"{len(rows)} CSV rows, expected {op.rows}"]
    if not all(math.isfinite(v) for r in rows for v in r.values()):
        return ["non-finite CSV value"]
    res.csv_bytes.append((out / "trace.csv").stat().st_size)
    drift = _max_drift([r["L" if op.flow == "length" else "A"] for r in rows])
    res.drift = drift if res.drift is None else max(res.drift, drift)
    if not op.svg_every:
        return []
    indices = range(0, op.rows, op.svg_every)
    errors = []
    for i in indices:
        path = out / "svg" / f"snapshot_{i:05d}.svg"
        try:
            root = ET.parse(path).getroot()
        except (OSError, ET.ParseError) as exc:
            errors.append(f"{path.name}: {exc}")
            continue
        if op.curve != "figure1a":
            continue
        t = i * op.record_every * DT
        cusps = sum(1 for el in root.iter() if el.tag.endswith("circle"))
        if (t <= CUSPS_UNTIL and cusps != FIGURE1A_CUSPS) or (
                t >= SMOOTH_FROM and cusps != 0):
            errors.append(f"{path.name}: {cusps} cusps at t = {t:g}")
    return errors


def _check_inequalities(op: Inequalities, index: int, out: Path,
                        ctx: Context) -> list[str]:
    data = (out / "report.json").read_bytes()
    first = ctx.first_reports.setdefault(index, data)
    if data != first:
        return ["JSON report differs from the first pass"]
    expected = 10 if op.constraint == "zero-length" else 8
    reports = json.loads(data)
    errors = [] if len(reports) == expected else [
        f"{len(reports)} reports, expected {expected}"]
    for r in reports:
        if r["n_checked"] != op.count:
            errors.append(f"{r['ineq_id']}: {r['n_checked']} curves checked")
        if not r["holds"] and not r["expected_violable"]:
            errors.append(f"{r['ineq_id']}: unexpected violation")
    return errors


def _coefficients(state, K: int) -> list[float]:
    return [state.p.a0] + [c for k in range(1, K + 1)
                           for c in state.p.coeff(k)]


def oracle_pairs(ops) -> list[tuple[int, int]]:
    """(modal, grid) indices of simulate operations that differ only in
    scheme, so their record rows coincide."""
    sims = [(i, op) for i, op in enumerate(ops) if isinstance(op, Simulate)]
    return [(i, j) for i, a in sims for j, b in sims
            if a.scheme == "modal" and b.scheme == "grid"
            and a == Simulate(b.flow, b.curve, b.t_final, "modal",
                              b.record_every, b.svg_every)]


def oracle_gap(modal: list, grid: list) -> float:
    """Largest |coefficient difference| over the record rows both share."""
    K = max(s.p.K for s in modal + grid)
    return max(abs(x - y)
               for m, g in zip(modal, grid)
               for x, y in zip(_coefficients(m, K), _coefficients(g, K)))


def run_pass(workload: str, ctx: Context) -> PassResult:
    """Run and check every operation of one pass."""
    res = PassResult()
    ops = WORKLOADS[workload]
    pairs = oracle_pairs(ops)
    states = {i: [] for pair in pairs for i in pair}
    for index, op in enumerate(ops):
        out = ctx.workdir / workload / f"op{index}"
        out.mkdir(parents=True, exist_ok=True)
        argv = op.argv(ctx, out)
        recorder = (record_states(states[index]) if index in states
                    else contextlib.nullcontext())
        res.ref_s += timed_reference()
        with recorder, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            code = cli.cli_main(argv)
            res.wall_s += time.perf_counter() - start
        res.attempted += 1
        res.items += op.items
        if code != 0:
            errors = [f"exit code {code}"]
        elif isinstance(op, Simulate):
            errors = _check_simulate(op, out, res)
        else:
            errors = _check_inequalities(op, index, out, ctx)
        if errors:
            res.failed += 1
            res.errors += [f"{workload} op{index}: {e}" for e in errors]
    res.ref_s += timed_reference()
    if pairs and not res.failed:
        res.gap = max(oracle_gap(states[i], states[j]) for i, j in pairs)
    return res
