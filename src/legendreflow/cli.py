"""Command-line front end: curve-file parsing, CSV trace export, SVG
snapshots, and the simulate / inequalities / analyze / examples subcommands.

Curve text format (UTF-8, one item per line):

    a0 = <float>
    mode <k> = <a_k> <b_k>

Blank lines and '#' comments are ignored; any other key is an error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .curves import (InputError, SupportFourier, algebraic_area,
                     algebraic_length, classify, isoperimetric_deficit,
                     sample_points, singular_angles, steiner_point,
                     uniform_grid)
from .flows import (LAMBDA_FLOOR, DegenerateLengthError, FlowConfig, FlowTrace,
                    FlowType, Scheme, run)
from .inequalities import (Constraint, CurveEnsembleSpec,
                           RejectionExhaustedError, check_beta2_family,
                           check_beta2_zero_length, check_grad_family,
                           check_isoperimetric, green_osher_quadratic,
                           run_ensemble)

CSV_HEADER = "t,L,A,deficit_U,sup_dev,Q,lambda,E1,E2,a0,max_mode"


class ParseError(InputError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_curve_file(path: str | Path) -> SupportFourier:
    """Read a curve file; empty file yields the zero curve {a0 = 0}."""
    a0 = 0.0
    seen_a0 = False
    modes: dict[int, tuple[float, float]] = {}
    data = Path(path).read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"not UTF-8 text: {exc.reason}",
                         data.count(b"\n", 0, exc.start) + 1) from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected 'key = value', got {raw!r}", lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        fields = value.split()
        mode_key = key.split()
        try:
            if key == "a0":
                if seen_a0:
                    raise ParseError("duplicate a0", lineno)
                if len(fields) != 1:
                    raise ParseError("a0 takes one value", lineno)
                a0 = float(fields[0])
                seen_a0 = True
            elif len(mode_key) == 2 and mode_key[0] == "mode":
                k = int(mode_key[1])
                if k < 1:
                    raise ParseError(f"mode number {k} must be >= 1", lineno)
                if k in modes:
                    raise ParseError(f"duplicate mode {k}", lineno)
                if len(fields) != 2:
                    raise ParseError(f"mode {k} takes two values", lineno)
                modes[k] = (float(fields[0]), float(fields[1]))
            else:
                raise ParseError(f"unknown key {key!r}", lineno)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if not all(math.isfinite(x) for x in
                   ([a0] + [c for ab in modes.values() for c in ab])):
            raise ParseError("non-finite coefficient", lineno)
    return SupportFourier(a0, tuple((k, a, b) for k, (a, b) in modes.items()))


def format_curve(p: SupportFourier) -> str:
    lines = [f"a0 = {p.a0!r}"]
    for k, a, b in p.modes:
        lines.append(f"mode {k} = {a!r} {b!r}")
    return "\n".join(lines) + "\n"


def _g17(x: float) -> str:
    return f"{x:.17g}"


def write_trace_csv(trace: FlowTrace, path: str | Path) -> None:
    """CSV with a config-echo comment header, 17-significant-digit values
    (round-trips bit-identically through float()), LF line endings."""
    cfg = trace.config
    lines = [
        f"# flow = {cfg.flow_type.value}",
        f"# scheme = {cfg.scheme.value}",
        f"# t_final = {_g17(cfg.t_final)}",
        f"# dt = {_g17(cfg.dt)}",
        f"# grid_n = {cfg.effective_grid_n}",
        f"# record_every = {cfg.record_every}",
        f"# K = {cfg.initial.K}",
        f"# stop_sup_dev = {_g17(cfg.stop_sup_dev)}",
        f"# lambda_floor = {_g17(LAMBDA_FLOOR)}",
        CSV_HEADER,
    ]
    for r in trace.rows:
        lines.append(",".join(_g17(v) for v in (
            r.t, r.L, r.A, r.deficit, r.sup_dev, r.Q, r.lam, r.E1, r.E2,
            r.a0, r.max_abs_mode)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def read_trace_csv(path: str | Path) -> list[dict[str, float]]:
    """Round-trip reader for write_trace_csv output (comments skipped)."""
    rows = []
    names = CSV_HEADER.split(",")
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#") or line == CSV_HEADER:
            continue
        rows.append(dict(zip(names, map(float, line.split(",")))))
    return rows


def write_curve_svg(p: SupportFourier, path: str | Path) -> None:
    """Closed polyline through 512 curve samples, y-up, 10% margin,
    singular points marked with small circles."""
    theta = uniform_grid(512)
    pts = sample_points(p, theta)
    cusps = sample_points(p, singular_angles(p))

    # y-up: flip the y coordinate, including marker positions
    xs, ys = pts[:, 0], -pts[:, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    span = max(x_hi - x_lo, y_hi - y_lo, 1e-6)
    m = 0.1 * span
    vb = (x_lo - m, y_lo - m, (x_hi - x_lo) + 2 * m, (y_hi - y_lo) + 2 * m)
    sw = 0.004 * span
    d = "M " + " L ".join(f"{x:.6f} {y:.6f}" for x, y in zip(xs, ys)) + " Z"

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{vb[0]:.6f} {vb[1]:.6f} {vb[2]:.6f} {vb[3]:.6f}">',
        f'<path d="{d}" fill="none" stroke="black" stroke-width="{sw:.6f}"/>',
    ]
    for x, y in cusps:
        parts.append(f'<circle cx="{x:.6f}" cy="{-y:.6f}" '
                     f'r="{2.5 * sw:.6f}" fill="red"/>')
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8",
                          newline="\n")


# --- subcommands --------------------------------------------------------------

FIGURE_CURVES = {
    "figure1a": SupportFourier(2.0, ((2, 0.0, 1.0),)),
    "figure1b": SupportFourier(math.sqrt(1.5), ((2, 0.0, 1.0),)),
    "figure1c": SupportFourier(0.5, ((2, 0.0, 1.0),)),
    "figure1d": SupportFourier(0.0, ((2, 0.0, 2.0),)),
    "zero_length_zero_area": SupportFourier(0.0, ((1, 2.0, 1.0),)),
    "zero_length_negative_area": SupportFourier(0.0, ((1, 2.0, 1.0),
                                                      (2, 2.0, 1.0))),
    "degenerate_point": SupportFourier(0.0, ((1, 1.0, 1.0),)),
}


def _cmd_analyze(args) -> int:
    p = parse_curve_file(args.curve)
    cls = classify(p)
    st = steiner_point(p)
    angles = singular_angles(p)
    print(f"L = {algebraic_length(p)!r}")
    print(f"A = {algebraic_area(p)!r}")
    print(f"deficit_U = {isoperimetric_deficit(p)!r}")
    print(f"class = {cls.kind.value} (min_p = {cls.min_p:.6g}, "
          f"min_beta = {cls.min_beta:.6g})")
    print(f"steiner = ({st.x!r}, {st.y!r})")
    print("singular_angles = [" + ", ".join(f"{a:.12f}" for a in angles) + "]")
    return 0


def _cmd_simulate(args) -> int:
    if args.svg_every < 1:
        raise InputError("svg_every must be >= 1")
    p = parse_curve_file(args.curve)
    config = FlowConfig(
        flow_type=FlowType(args.flow),
        initial=p,
        t_final=args.t_final,
        dt=args.dt,
        scheme=Scheme(args.scheme),
        grid_n=args.grid_n,
        record_every=args.record_every,
        stop_sup_dev=args.stop_sup_dev,
    )
    on_record = None
    if args.svg_dir is not None:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)

        def on_record(i, state):
            if i % args.svg_every == 0:
                write_curve_svg(state.p, svg_dir / f"snapshot_{i:05d}.svg")

    trace = run(config, on_record=on_record)
    write_trace_csv(trace, args.out)
    final = trace.rows[-1]
    print(f"wrote {args.out}: {len(trace.rows)} rows, final t = {final.t!r}, "
          f"L = {final.L!r}, A = {final.A!r}"
          + (", converged (early stop)" if trace.converged else ""))
    return 0


def _cmd_inequalities(args) -> int:
    if not all(math.isfinite(v) for v in args.tau + args.xi):
        raise InputError("tau and xi must be finite")
    constraint = Constraint(args.constraint)
    spec = CurveEnsembleSpec(seed=args.seed, count=args.count, K=args.k_max,
                             amplitude_decay=args.decay, constraint=constraint)
    checkers = [("isoperimetric", check_isoperimetric),
                ("green_osher_quadratic", green_osher_quadratic)]
    for tau in args.tau:
        checkers.append((f"beta2_family(tau={tau:g})",
                         lambda m, t=tau: check_beta2_family(m, t)))
    for xi in args.xi:
        checkers.append((f"grad_family(xi={xi:g})",
                         lambda m, x=xi: check_grad_family(m, x)))
    if constraint is Constraint.ZERO_LENGTH:
        checkers.append(("beta2_zero_length(tau=6)",
                         lambda m: check_beta2_zero_length(m, 6.0)))
        checkers.append(("grad_zero_length(xi=24)",
                         lambda m: check_grad_family(m, 24.0, zero_length=True)))

    reports = run_ensemble(spec, checkers)
    failed = False
    for rep in reports:
        status = "ok" if rep.holds else (
            "violated (expected)" if rep.expected_violable else "VIOLATED")
        if not rep.holds and not rep.expected_violable:
            failed = True
        print(f"{rep.ineq_id:30s} min_slack = {rep.slack: .6e}  "
              f"violations = {rep.n_violations}/{rep.n_checked}  {status}")
    if args.json is not None:
        payload = [{
            "ineq_id": r.ineq_id, "parameter": r.parameter, "slack": r.slack,
            "holds": r.holds, "expected_violable": r.expected_violable,
            "n_checked": r.n_checked, "n_violations": r.n_violations,
            "witness": {"a0": r.witness.a0, "modes": list(r.witness.modes)},
        } for r in reports]
        Path(args.json).write_text(json.dumps(payload, indent=2) + "\n",
                                   encoding="utf-8")
    return 1 if failed else 0


def _cmd_examples(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, p in FIGURE_CURVES.items():
        (outdir / f"{name}.curve").write_text(format_curve(p), encoding="utf-8")
        if args.svg:
            write_curve_svg(p, outdir / f"{name}.svg")
    print(f"wrote {len(FIGURE_CURVES)} curve files to {outdir}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    root = argparse.ArgumentParser(
        prog="legendreflow",
        description="Inverse curvature flows and inequality checks for "
                    "l-convex Legendre curves.")
    sub = root.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="print geometric data for a curve file")
    pa.add_argument("--curve", required=True)
    pa.set_defaults(fn=_cmd_analyze)

    ps = sub.add_parser("simulate", help="run a flow and write a CSV trace")
    ps.add_argument("--flow", choices=[f.value for f in FlowType], required=True)
    ps.add_argument("--curve", required=True)
    ps.add_argument("--t-final", type=float, default=6.0)
    ps.add_argument("--dt", type=float, default=1e-3)
    ps.add_argument("--scheme", choices=[s.value for s in Scheme],
                    default=Scheme.EXACT_MODAL.value)
    ps.add_argument("--grid-n", type=int, default=None)
    ps.add_argument("--record-every", type=int, default=1)
    ps.add_argument("--stop-sup-dev", type=float, default=0.0)
    ps.add_argument("--out", default="trace.csv")
    ps.add_argument("--svg-dir", default=None)
    ps.add_argument("--svg-every", type=int, default=100)
    ps.set_defaults(fn=_cmd_simulate)

    pi = sub.add_parser("inequalities", help="check inequalities on an ensemble")
    pi.add_argument("--seed", type=int, default=42)
    pi.add_argument("--count", type=int, default=1000)
    pi.add_argument("--k-max", type=int, default=8)
    pi.add_argument("--decay", type=float, default=1.5)
    pi.add_argument("--constraint", choices=[c.value for c in Constraint],
                    default=Constraint.NONE.value)
    pi.add_argument("--tau", type=float, nargs="*", default=[0.0, 4.0, 8.0])
    pi.add_argument("--xi", type=float, nargs="*", default=[0.0, 12.0, 24.0])
    pi.add_argument("--json", default=None)
    pi.set_defaults(fn=_cmd_inequalities)

    pe = sub.add_parser("examples", help="write the built-in example curves")
    pe.add_argument("--outdir", required=True)
    pe.add_argument("--svg", action="store_true")
    pe.set_defaults(fn=_cmd_examples)
    return root


# InputError covers ParseError, StabilityError, AliasError and the other
# argument checks; any other exception is a bug and keeps its traceback.
_DOMAIN_ERRORS = (InputError, DegenerateLengthError, RejectionExhaustedError,
                  OSError)


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except _DOMAIN_ERRORS as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
