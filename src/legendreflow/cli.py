"""Command-line front end: curve-file parsing, CSV trace export, SVG
snapshots, and the simulate / inequalities / analyze / examples subcommands.
The argparse parser is built once, at import, and every cli_main call reuses it.

Curve text format (UTF-8, one item per line):

    a0 = <float>
    mode <k> = <a_k> <b_k>

Blank lines and '#' comments are ignored; any other malformed line fails as
one ParseError that names its line.

Outputs are written over the old file in place, then cut to length: O_TRUNC
cost ~0.1 ms a file on ext4 (see README).  An interrupted write can leave old
bytes past the new text (O_TRUNC: a short file); a rerun replaces either.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import stat
import sys
from pathlib import Path

import numpy as np

from .curves import (MAX_ROOT_MODE, Columns, InputError, SupportFourier,
                     _degree, classify, sample_points, singular_angles, stack,
                     steiner_point, uniform_grid)
from .flows import (LAMBDA_FLOOR, DegenerateLengthError, FlowConfig, FlowTrace,
                    FlowType, Scheme, run)
from .inequalities import (Constraint, CurveEnsembleSpec, InequalityReport,
                           RejectionExhaustedError, check_isoperimetric,
                           inequality_table, run_ensemble)
from .spectral import default_grid_size, moments

CSV_HEADER = "t,L,A,deficit_U,sup_dev,Q,lambda,E1,E2,a0,max_mode"


def _write(path: str | Path, text: str) -> None:
    """Write text as UTF-8 over path in place (see the module docstring)."""
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as f:
        n = f.write(text.encode("utf-8"))
        if stat.S_ISREG(os.fstat(f.fileno()).st_mode):
            f.truncate(n)


class ParseError(InputError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_curve_file(path: str | Path) -> SupportFourier:
    """Read a curve file; empty file yields the zero curve {a0 = 0}."""
    a0 = None
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
        key, eq, value = line.partition("=")
        key, fields, mode_key = key.strip(), value.split(), key.split()
        try:
            if not eq:
                raise ValueError(f"expected 'key = value', got {raw!r}")
            if key == "a0":
                if a0 is not None:
                    raise ValueError("duplicate a0")
                if len(fields) != 1:
                    raise ValueError("a0 takes one value")
                values = (a0 := float(fields[0]),)
            elif len(mode_key) == 2 and mode_key[0] == "mode":
                k = int(mode_key[1])
                if k < 1:
                    raise ValueError(f"mode number {k} must be >= 1")
                if k in modes:
                    raise ValueError(f"duplicate mode {k}")
                if len(fields) != 2:
                    raise ValueError(f"mode {k} takes two values")
                modes[k] = values = (float(fields[0]), float(fields[1]))
            else:
                raise ValueError(f"unknown key {key!r}")
            if not all(map(math.isfinite, values)):
                raise ValueError("non-finite coefficient")
        except ValueError as exc:
            raise ParseError(str(exc), lineno) from exc
    return SupportFourier(0.0 if a0 is None else a0,
                          tuple((k, a, b) for k, (a, b) in modes.items()))


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
    _write(path, "\n".join(lines) + "\n")


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

#: Rows per _path_data block: its 64 KiB temporaries beat 512 KiB ones 1.5x.
_PATH_ROWS = 8
_PAIRS = np.frombuffer(b"".join(b"%02d" % i for i in range(100)), "<u2")


def _path_data(xy) -> list[str]:
    """Each row of the (rows, 2n) block xy as "x0 y0 L x1 y1 L ... y{n-1}",
    each value byte for byte its "%.6f": the integer nearest v 10^6 (ties to
    even) is rint(p) of p = fl(v 10^6) if |p| < 2^52 and |p - rint(p)| < 1/2,
    as rounding is monotone.  Rows with other values use the template."""
    template = " L ".join(["%.6f %.6f"] * (xy.shape[1] // 2))
    seps = np.frombuffer(b" \0\0 L " * (xy.shape[1] // 2 - 1) + b" \0\0\n\0\0",
                         np.uint8).reshape(-1, 3)
    texts = []
    for v in np.split(xy, range(_PATH_ROWS, len(xy), _PATH_ROWS)):
        with np.errstate(all="ignore"):     # rows with inf or nan fall back
            r = np.rint(p := v * 1e6)
            exact = (np.abs(p) < 2.0 ** 52) & (np.abs(p - r) < 0.5)
        r[~exact] = 0.0
        q = np.floor(np.abs(r, out=r) / 1e6)    # exact below 2^52 / 10^6
        f = (r - q * 1e6).astype(np.uint32)
        w = len("%.0f" % q.max(initial=0.0))    # integer digits of the widest
        m = np.zeros(v.shape + (w + 11,), np.uint8)     # 0 bytes are dropped
        m[..., 0] = np.signbit(v) * np.uint8(ord("-"))
        for j in range(w, 0, -1):       # from the units digit leftwards
            t = np.floor(q / 10)
            m[..., j] = q - 10 * t + ord("0") * ((q > 0) | (j == w))
            q = t
        m[..., w + 1] = ord(".")
        hi, mid = f // 10 ** 4, f // 100
        for k, pair in zip(range(w + 2, w + 8, 2),
                           (hi, mid - hi * 100, f - mid * 100)):
            m[..., k:k + 2].view("<u2")[..., 0] = _PAIRS.take(pair)
        m[..., -3:] = seps
        cut = m.tobytes().translate(None, b"\0").decode("ascii").split("\n")
        texts += [s if ok else template % tuple(row.tolist()) for s, ok, row
                  in zip(cut, exact.all(axis=1).tolist(), v)]
    return texts


def write_curve_svg(c: Columns, paths) -> None:
    """For each row of the block c (one curve p is stack([p])), to the
    matching one of paths: a closed polyline through 512 curve samples,
    y-up, 10% margin, singular points marked with small circles.  All
    outlines come from one evaluate of c and c', all cusps from one more."""
    outlines = sample_points(c, uniform_grid(512)) * [1.0, -1.0]  # y-up
    angles = singular_angles(c)
    counts = [len(a) for a in angles]
    cusps = np.split(sample_points(c, [a for row in angles for a in row],
                                   np.repeat(np.arange(len(counts)), counts)),
                     np.cumsum(counts)[:-1])
    xy = outlines.transpose(0, 2, 1).copy()     # reduced along contiguous rows
    rows = zip(paths, _path_data(outlines.reshape(len(outlines), -1)),
               xy.min(axis=2).tolist(), xy.max(axis=2).tolist(), cusps)
    for path, d, (x_lo, y_lo), (x_hi, y_hi), marks in rows:
        span = max(x_hi - x_lo, y_hi - y_lo, 2.5e-4)   # stroke prints > 0
        m = 0.1 * span
        vb = (x_lo - m, y_lo - m, (x_hi - x_lo) + 2 * m, (y_hi - y_lo) + 2 * m)
        sw = 0.004 * span
        parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" '
            f'viewBox="{vb[0]:.6f} {vb[1]:.6f} {vb[2]:.6f} {vb[3]:.6f}">',
            f'<path d="M {d} Z" fill="none" stroke="black" '
            f'stroke-width="{sw:.6f}"/>',
        ]
        for x, y in marks:
            parts.append(f'<circle cx="{x:.6f}" cy="{-y:.6f}" '
                         f'r="{2.5 * sw:.6f}" fill="red"/>')
        parts.append("</svg>")
        _write(path, "\n".join(parts) + "\n")


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
    values = (("L", m.L), ("A", m.A), ("deficit_U", check_isoperimetric(m)))
    for name, value in values:
        if not math.isfinite(value):
            raise InputError(f"non-finite {name} = {value!r}")
    x, y = steiner_point(p)
    for name, value in values:
        print(f"{name} = {value!r}")
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


_JSON_HEAD = "  {\n" + "".join(
    f'    "{name}": %s,\n' for name in InequalityReport.__dataclass_fields__
    if name != "witness") + '    "witness": {\n      "a0": %s,\n      "modes": '
_JSON_MODE = "        [\n          %s,\n          %s,\n          %s\n        ]"


def _report_json(reports) -> str:
    """json.dumps(the reports as their fields, indent=2) through json's C
    encoder, which indent turns off: one dumps of the leaf values, NUL between
    them (json escapes a NUL in a string), fills the layout's %s in order."""
    leaves, layout = [], []
    for r in reports:
        *fields, w = vars(r).values()
        leaves += fields + [w.a0] + [x for mode in w.modes for x in mode]
        modes = ",\n".join([_JSON_MODE] * len(w.modes))
        layout.append(_JSON_HEAD + (f"[\n{modes}\n      ]" if modes else "[]")
                      + "\n    }\n  }")
    text = json.dumps(leaves, separators=("\0", ":"), check_circular=False)
    return ("[\n" + ",\n".join(layout) + "\n]") % tuple(
        text[1:-1].split("\0")) if reports else "[]"


def _cmd_inequalities(args) -> int:
    constraint = Constraint(args.constraint)
    # a non-finite tau or xi is refused before the spec checks its fields
    rows = inequality_table(args.tau, args.xi,
                            constraint is Constraint.ZERO_LENGTH)
    spec = CurveEnsembleSpec(seed=args.seed, count=args.count, K=args.k_max,
                             amplitude_decay=args.decay, constraint=constraint)
    reports = run_ensemble(spec, rows)
    for rep in reports:
        status = "ok" if rep.holds else (
            "violated (expected)" if rep.expected_violable else "VIOLATED")
        print(f"{rep.ineq_id:30s} min_slack = {rep.slack: .6e}  "
              f"violations = {rep.n_violations}/{rep.n_checked}  {status}")
    if args.json is not None:
        _write(args.json, _report_json(reports) + "\n")
    return int(any(not r.holds and not r.expected_violable for r in reports))


def _cmd_examples(args) -> int:
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, p in FIGURE_CURVES.items():
        _write(outdir / f"{name}.curve", format_curve(p))
        if args.svg:
            write_curve_svg(stack([p]), [outdir / f"{name}.svg"])
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
