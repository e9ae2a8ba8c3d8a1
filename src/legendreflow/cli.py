"""Command-line front end: curve-file parsing, CSV trace export, SVG
snapshots, and the simulate / inequalities / analyze / examples subcommands.
The argparse parser is built once, at import, and every cli_main call reuses it.

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

import numpy as np

from .curves import (MAX_ROOT_MODE, Columns, InputError, SupportFourier,
                     _degree, classify, sample_points, singular_angles, stack,
                     steiner_point, uniform_grid)
from .flows import (LAMBDA_FLOOR, DegenerateLengthError, FlowConfig, FlowTrace,
                    FlowType, Scheme, run)
from .inequalities import (Constraint, CurveEnsembleSpec,
                           RejectionExhaustedError, check_isoperimetric,
                           inequality_table, run_ensemble)
from .spectral import default_grid_size, moments

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
                values = (a0,)
                seen_a0 = True
            elif len(mode_key) == 2 and mode_key[0] == "mode":
                k = int(mode_key[1])
                if k < 1:
                    raise ParseError(f"mode number {k} must be >= 1", lineno)
                if k in modes:
                    raise ParseError(f"duplicate mode {k}", lineno)
                if len(fields) != 2:
                    raise ParseError(f"mode {k} takes two values", lineno)
                modes[k] = values = (float(fields[0]), float(fields[1]))
            else:
                raise ParseError(f"unknown key {key!r}", lineno)
        except ParseError:
            raise
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
        if not all(map(math.isfinite, values)):
            raise ParseError("non-finite coefficient", lineno)
    return SupportFourier(a0, tuple((k, a, b) for k, (a, b) in modes.items()))


def format_curve(p: SupportFourier) -> str:
    return "".join([f"a0 = {p.a0!r}\n"]
                   + [f"mode {k} = {a!r} {b!r}\n" for k, a, b in p.modes])


CSV_ROW = ",".join(["%.17g"] * len(CSV_HEADER.split(",")))


def write_trace_csv(trace: FlowTrace, path: str | Path) -> None:
    """CSV with a config-echo comment header, 17-significant-digit values
    (round-trips bit-identically through float()), LF line endings."""
    cfg = trace.config
    lines = [
        f"# flow = {cfg.flow_type.value}",
        f"# scheme = {cfg.scheme.value}",
        "# t_final = %.17g" % cfg.t_final,
        "# dt = %.17g" % cfg.dt,
        f"# grid_n = {default_grid_size(_degree(cfg.initial))}",
        f"# record_every = {cfg.record_every}",
        f"# K = {cfg.initial.K}",
        "# stop_sup_dev = %.17g" % cfg.stop_sup_dev,
        "# lambda_floor = %.17g" % LAMBDA_FLOOR,
        CSV_HEADER,
    ]
    lines += [CSV_ROW % row for row in trace.rows]
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


#: Snapshots _cmd_simulate queues before it writes them in one batch.
SVG_BATCH = 64


def write_curve_svg(p: SupportFourier | Columns, paths) -> None:
    """For each row of p, to the matching one of paths (a SupportFourier is
    the one-row case, with one path): a closed polyline through 512 curve
    samples, y-up, 10% margin, singular points marked with small circles.
    The outlines of all rows come from one evaluate of p and p', and the
    singular points of all rows from one more."""
    if not np.ndim(p.a0):
        p, paths = stack([p]), [paths]
    outlines = sample_points(p, uniform_grid(512)) * [1.0, -1.0]  # y-up
    angles = singular_angles(p)
    counts = [len(a) for a in angles]
    cusps = np.split(sample_points(p, [a for row in angles for a in row],
                                   np.repeat(np.arange(len(counts)), counts)),
                     np.cumsum(counts)[:-1])
    d_template = "M " + " L ".join(["%.6f %.6f"] * outlines.shape[1]) + " Z"
    xy = outlines.transpose(0, 2, 1).copy()     # reduced along contiguous rows
    rows = zip(paths, outlines.reshape(len(outlines), -1).tolist(),
               xy.min(axis=2).tolist(), xy.max(axis=2).tolist(), cusps)
    for path, pts, (x_lo, y_lo), (x_hi, y_hi), marks in rows:
        span = max(x_hi - x_lo, y_hi - y_lo, 1e-6)
        m = 0.1 * span
        vb = (x_lo - m, y_lo - m, (x_hi - x_lo) + 2 * m, (y_hi - y_lo) + 2 * m)
        sw = 0.004 * span
        d = d_template % tuple(pts)
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{vb[0]:.6f} {vb[1]:.6f} {vb[2]:.6f} {vb[3]:.6f}">',
            f'<path d="{d}" fill="none" stroke="black" '
            f'stroke-width="{sw:.6f}"/>',
        ]
        for x, y in marks:
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
    angles = singular_angles(p)     # refuses a degree above MAX_ROOT_MODE
    cls = classify(p)               # before classify samples on 4(K+1) points
    m = moments(p)
    x, y = steiner_point(p)
    print(f"L = {m.L!r}")
    print(f"A = {m.A!r}")
    print(f"deficit_U = {check_isoperimetric(m)!r}")
    print(f"class = {cls.kind.value} (min_p = {cls.min_p:.6g}, "
          f"min_beta = {cls.min_beta:.6g})")
    print(f"steiner = ({x!r}, {y!r})")
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
        record_every=args.record_every,
        stop_sup_dev=args.stop_sup_dev,
    )
    on_record, queue = None, []
    if args.svg_dir is not None:
        svg_dir = Path(args.svg_dir)
        svg_dir.mkdir(parents=True, exist_ok=True)

        def on_record(i, state):
            if i % args.svg_every == 0:
                queue.append((svg_dir / f"snapshot_{i:05d}.svg", state.p))
                # no later state has a higher degree than the first, so one
                # whose cusps singular_angles refuses fails the run at once
                if len(queue) == SVG_BATCH or i == 0 \
                        and _degree(state.p) > MAX_ROOT_MODE:
                    flush()

    def flush():    # the states of a run list the same modes
        if queue:
            paths, ps = zip(*queue)
            queue.clear()
            write_curve_svg(stack(ps), paths)

    try:
        trace = run(config, on_record=on_record)
    finally:    # every snapshot queued before an error is written too
        flush()
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
    rows = inequality_table(args.tau, args.xi,
                            constraint is Constraint.ZERO_LENGTH)
    reports = run_ensemble(spec, rows)
    for rep in reports:
        status = "ok" if rep.holds else (
            "violated (expected)" if rep.expected_violable else "VIOLATED")
        print(f"{rep.ineq_id:30s} min_slack = {rep.slack: .6e}  "
              f"violations = {rep.n_violations}/{rep.n_checked}  {status}")
    if args.json is not None:
        # each report as its fields in field order, its witness likewise
        text = json.dumps([{k: vars(v) if isinstance(v, SupportFourier)
                            else v for k, v in vars(r).items()}
                           for r in reports], indent=2, check_circular=False)
        Path(args.json).write_text(text + "\n", encoding="utf-8")
    return int(any(not r.holds and not r.expected_violable for r in reports))


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


_PARSER = _build_parser()

# InputError covers ParseError, StabilityError, AliasError and the other
# argument checks; any other exception is a bug and keeps its traceback.
_DOMAIN_ERRORS = (InputError, DegenerateLengthError, RejectionExhaustedError,
                  OSError)


def cli_main(argv: list[str] | None = None) -> int:
    try:
        args = _PARSER.parse_args(argv)
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
