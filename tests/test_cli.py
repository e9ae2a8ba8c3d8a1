import contextlib
import io
import itertools
import json
import math
import os
import re
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings

from legendreflow import (Constraint, FlowConfig, FlowState, FlowType,
                          InequalityReport, SupportFourier, algebraic_area,
                          algebraic_length, cli, default_grid_size, run,
                          uniform_grid)
from legendreflow.curves import MAX_ROOT_MODE, stack
from legendreflow.flows import LAMBDA_FLOOR, FlowTrace
from legendreflow.cli import (ParseError, cli_main, format_curve,
                              parse_curve_file, read_trace_csv,
                              write_curve_svg, write_trace_csv)
from helpers import count_builds, reference_singular_angles

P_FIG_A = SupportFourier(2.0, ((2, 0.0, 1.0),))
FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestParseCurveFile:
    def test_basic(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        assert parse_curve_file(f) == P_FIG_A

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("# comment\n\na0 = 1.5  # trailing\n\nmode 3 = -1 0.25\n")
        p = parse_curve_file(f)
        assert p.a0 == 1.5 and p.coeff(3) == (-1.0, 0.25)

    def test_duplicate_mode(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("mode 2 = 0 1\nmode 2 = 1 0\n")
        with pytest.raises(ParseError, match="duplicate mode 2") as exc:
            parse_curve_file(f)
        assert exc.value.line == 2

    def test_empty_file_is_zero_curve(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("")
        assert parse_curve_file(f) == SupportFourier(0.0)

    def test_unknown_key(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("radius = 2\n")
        with pytest.raises(ParseError):
            parse_curve_file(f)

    @pytest.mark.parametrize("data", [
        b"a0 = 2\nmodes 2 = 0 1\n",
        b"a0 = 2\nmode 3 extra = 0.1 0\n",
        b"a0 = 2\nmode 2 = \xff 1\n",           # not UTF-8
    ])
    def test_malformed_line_number(self, tmp_path, data):
        f = tmp_path / "c.curve"
        f.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            parse_curve_file(f)
        assert exc.value.line == 2

    @pytest.mark.parametrize("text, line", [
        ("a0 = nan\nmode 2 = 0 1\n", 1),
        ("a0 = 2\nmode 2 = 0 1\nmode 3 = 0 inf\n", 3),
    ])
    def test_non_finite_value_line_number(self, tmp_path, text, line):
        f = tmp_path / "c.curve"
        f.write_text(text)
        with pytest.raises(ParseError, match="non-finite") as exc:
            parse_curve_file(f)
        assert exc.value.line == line

    @pytest.mark.parametrize("data, line, message", [
        (b"a0 = 2\nfoo\n", 2, "expected 'key = value', got 'foo'"),
        (b"a0 = 2\n# note\na0 = 3\n", 3, "duplicate a0"),
        (b"a0 = 1 2\n", 1, "a0 takes one value"),
        (b"a0 = 2\nmode 0 = 1 2\n", 2, "mode number 0 must be >= 1"),
        (b"mode 2 = 0 1 3\n", 1, "mode 2 takes two values"),
        (b"mode 2 = 0 1\n\nmode 2 = 1 0\n", 3, "duplicate mode 2"),
        (b"a0 = x\n", 1, "could not convert string to float: 'x'"),
        (b"a0 = 2\nmode two = 0 1\n", 2,
         "invalid literal for int() with base 10: 'two'"),
        (b"radius = 2\n", 1, "unknown key 'radius'"),
        (b"a0 = 2\nmode 3 = 0 -inf\n", 2, "non-finite coefficient"),
        (b"a0 = 2\n\n\xff\n", 3, "not UTF-8 text: invalid start byte"),
    ])
    def test_every_line_error_names_its_line(self, tmp_path, data, line,
                                             message):
        f = tmp_path / "c.curve"
        f.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            parse_curve_file(f)
        assert (str(exc.value), exc.value.line) \
            == (f"line {line}: {message}", line)

    def test_negative_zero_a0_keeps_its_sign(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("a0 = -0\nmode 2 = 0 1\n")
        assert math.copysign(1.0, parse_curve_file(f).a0) == -1.0

    def test_many_modes_parse_in_linear_time(self, tmp_path):
        # each line checks only its own values, so parsing stays linear in
        # the mode count
        f = tmp_path / "c.curve"
        f.write_text("a0 = 1\n" + "".join(f"mode {k} = 1e-9 -1e-9\n"
                                          for k in range(1, 20001)))
        start = time.perf_counter()
        p = parse_curve_file(f)
        assert time.perf_counter() - start < 5.0
        assert p.K == 20000 and p.coeff(20000) == (1e-9, -1e-9)

    def test_format_round_trip(self, tmp_path):
        p = SupportFourier(math.sqrt(1.5), ((1, 0.1, -0.2), (2, 0.0, 1.0)))
        f = tmp_path / "c.curve"
        f.write_text(format_curve(p))
        assert parse_curve_file(f) == p

    @given(FINITE, st.dictionaries(
        st.integers(1, 64),
        st.one_of(st.just((0.0, 0.0)), st.tuples(FINITE, FINITE)),
        max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_format_round_trip_fuzzed(self, tmp_path_factory, a0, modes):
        p = SupportFourier(a0, tuple((k, a, b) for k, (a, b) in modes.items()))
        f = tmp_path_factory.mktemp("fuzz") / "c.curve"
        f.write_text(format_curve(p), encoding="utf-8")
        assert parse_curve_file(f) == p
        assert format_curve(parse_curve_file(f)) == format_curve(p)


class TestTraceCsv:
    def test_length_column_constant_and_round_trip(self, tmp_path):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=1.0,
                            dt=1e-2, record_every=10))
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        rows = read_trace_csv(path)
        assert len(rows) == len(tr.rows)
        for got, want in zip(rows, tr.rows):
            assert got["L"] == want.L            # bit-identical round trip
            assert got["A"] == want.A
            assert got["Q"] == want.Q
            assert got["sup_dev"] == want.sup_dev
        assert all(r["L"] == rows[0]["L"] for r in rows)

    def test_row_count_includes_t0(self, tmp_path):
        tr = run(FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=0.1,
                            dt=1e-2))
        path = tmp_path / "trace.csv"
        write_trace_csv(tr, path)
        assert len(read_trace_csv(path)) == 11

    def test_deterministic_bytes(self, tmp_path):
        cfg = FlowConfig(FlowType.AREA_PRESERVING, P_FIG_A, t_final=0.5,
                         dt=1e-2)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace_csv(run(cfg), p1)
        write_trace_csv(run(cfg), p2)
        assert p1.read_bytes() == p2.read_bytes()


# The writers as they were with one f-string per value, and one dict entry
# per report field: the one-template writers must give their bytes.

def reference_trace_csv(trace, path):
    cfg = trace.config
    g17 = lambda x: f"{x:.17g}"
    lines = [
        f"# flow = {cfg.flow_type.value}",
        f"# scheme = {cfg.scheme.value}",
        f"# t_final = {g17(cfg.t_final)}",
        f"# dt = {g17(cfg.dt)}",
        f"# grid_n = {default_grid_size(cfg.initial.K)}",
        f"# record_every = {cfg.record_every}",
        f"# K = {cfg.initial.K}",
        f"# stop_sup_dev = {g17(cfg.stop_sup_dev)}",
        f"# lambda_floor = {g17(LAMBDA_FLOOR)}",
        cli.CSV_HEADER,
    ]
    for r in trace.rows:
        lines.append(",".join(g17(v) for v in (
            r.t, r.L, r.A, r.deficit, r.sup_dev, r.Q, r.lam, r.E1, r.E2,
            r.a0, r.max_abs_mode)))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def reference_curve_svg(p, path):
    """One curve's SVG, value by value, with its cusps from the per-curve
    oracle reference_singular_angles."""
    pts = cli.sample_points(p, uniform_grid(512))
    cusps = cli.sample_points(p, reference_singular_angles(p))
    xs, ys = pts[:, 0], -pts[:, 1]
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_lo, y_hi = float(ys.min()), float(ys.max())
    span = max(x_hi - x_lo, y_hi - y_lo, 2.5e-4)
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


def reference_report_json(reports, path):
    payload = [{
        "ineq_id": r.ineq_id, "parameter": r.parameter, "slack": r.slack,
        "holds": r.holds, "expected_violable": r.expected_violable,
        "n_checked": r.n_checked, "n_violations": r.n_violations,
        "witness": {"a0": r.witness.a0, "modes": list(r.witness.modes)},
    } for r in reports]
    Path(path).write_text(json.dumps(payload, indent=2) + "\n",
                          encoding="utf-8")


def inequalities_json(argv, path, ensemble=cli.run_ensemble):
    """cli_main inequalities argv --json path with `ensemble` in place of
    run_ensemble; returns the reports it gave."""
    seen = []

    def record(spec, rows):
        seen[:] = ensemble(spec, rows)
        return seen
    with mock.patch.object(cli, "run_ensemble", record), \
            contextlib.redirect_stdout(io.StringIO()):
        cli_main(["inequalities", *argv, "--json", str(path)])
    return seen


#: Signed zeros, the smallest subnormal, values near or past overflow, and
#: values whose 6th decimal rounds up, down or to a signed zero; exact
#: decimal ties, and 2^52 / 10^6 (the SVG path kernel's bound), its
#: neighbours and 1e10 beyond it.
BOUND = 4503599627.370496
AWKWARD = st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7976931348623157e308,
    math.inf, -math.inf, math.nan, 2.5e-7, -2.5e-7, 5e-7, 1.0000005,
    -1.0000005, 0.1234565, 2.0000015, -3.9999995, 1 / 3, 1e-300,
    123456.7890125, 0.0078125, -0.0234375, 1e10] + [
    x for b in (BOUND, -BOUND) for x in (
        b, math.nextafter(b, 0.0), math.nextafter(b, math.copysign(
            math.inf, b)))]) | FINITE


#: Doubles below a power of ten whose 17 digits round up to it: P is
#: 10^16 less 0.012 and 0.023 for the first two, less 0.043 and 0.036 for
#: the last two, outside the kernel's 1/32 window.
ROUND_UP = [1e-14, 1e98, 1e-70, 1e220]
#: %.17g's hard cases for the CSV kernel: 10^k and its neighbours (log10
#: may miss the exponent there), an exact 17-digit tie, a value that parses
#: to 1e17, the switches to exponent notation at X = 17 and X = -4,
#: three-digit exponents, subnormals, signed zeros, infinities and nan.
G17 = [x for k in range(-6, 23) for x in (
    float(f"1e{k}"), math.nextafter(float(f"1e{k}"), 0.0),
    math.nextafter(float(f"1e{k}"), math.inf))] + ROUND_UP + [
    1234567890123456.25, 99999999999999999.0, 9999999999999998.0, 1e16,
    1e17, 1e-4, 9.9999999999999991e-05, 1e300, -1e-300, 1e-280, 1e280,
    5e-324, -2.2250738585072014e-308, 0.0, -0.0, math.inf, -math.inf,
    math.nan]


def trace_of(rows, stop_sup_dev=0.0):
    cfg = FlowConfig(FlowType.LENGTH_PRESERVING, P_FIG_A, t_final=0.3,
                     dt=0.1, stop_sup_dev=stop_sup_dev)
    return FlowTrace(cfg, np.array(rows, float).reshape(-1, 11),
                     FlowState(0.0, P_FIG_A))


def assert_csv_matches_reference(trace, d, block_rows=None):
    """write_trace_csv gives reference_trace_csv's bytes as it is and, if
    block_rows, with every trace sent to the kernel in blocks of that many
    rows."""
    reference_trace_csv(trace, d / "ref.csv")
    write_trace_csv(trace, d / "new.csv")
    assert (d / "new.csv").read_bytes() == (d / "ref.csv").read_bytes()
    if block_rows:
        with mock.patch.object(cli, "_CSV_MIN_ROWS", 1), \
                mock.patch.object(cli, "_CSV_ROWS", block_rows):
            write_trace_csv(trace, d / "kernel.csv")
        assert (d / "kernel.csv").read_bytes() == (d / "ref.csv").read_bytes()


class TestOneTemplateWriters:
    @given(st.lists(AWKWARD | st.sampled_from(G17), min_size=11,
                    max_size=44), st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_trace_csv_matches_per_value_writer(self, tmp_path_factory,
                                                values, block_rows):
        # up to 34 rows: the template alone, then the kernel in blocks
        rows = [(values[i:] + values[:i])[:11]
                for i in range(len(values) - 10)]
        trace = trace_of(rows, abs(values[0]) if math.isfinite(values[0])
                         else -0.0)
        assert_csv_matches_reference(trace, tmp_path_factory.mktemp("csv"),
                                     block_rows)

    @pytest.mark.parametrize("shift", [0.0, -1.0, 1.0])
    def test_trace_csv_kernel_on_awkward_values(self, tmp_path, shift):
        # one G17 value a row, alternating in sign along it; log10 shifted
        # by one makes the kernel's exponent miss by one either way
        rows = [[v if j % 2 else -v for j in range(11)] for v in G17]
        log10, template = np.log10, []

        class Template(str):        # counts the rows the kernel hands back
            def __mod__(self, row):
                template.append(row)
                return str.__mod__(self, row)
        with mock.patch.object(np, "log10", lambda a: log10(a) + shift), \
                mock.patch.object(cli, "CSV_ROW", Template(cli.CSV_ROW)):
            assert_csv_matches_reference(trace_of(rows), tmp_path, 16)
        # each row is written twice (in one block, in blocks of 16): the
        # kernel formats most rows, and a P within its window below 10^16;
        # none once log10 is one too high; and with log10 one too low,
        # 10^0..10^22 round to 10^17 and roll over
        handed_back = {-row[0] for row in template}
        if shift > 0:
            assert len(template) == 2 * len(rows)
        elif shift < 0:
            assert handed_back.isdisjoint(10.0 ** k for k in range(23))
        else:
            assert len(template) < len(rows)
            assert handed_back.isdisjoint(ROUND_UP[:2])

    @given(st.lists(st.lists(AWKWARD, min_size=2, max_size=8), min_size=1,
                    max_size=3), st.integers(0, 6))
    @example([  # a kernel row, a row of ties and a row past the bound
        [-0.0, -2.5e-7, 1.0000005, 1 / 3, math.nextafter(BOUND, 0.0),
         -math.nextafter(BOUND, 0.0)],
        [-3.9999995, 0.0078125, -0.0234375, 5e-7],
        [BOUND, -math.nextafter(BOUND, -math.inf), 1e10, math.nan]], 2)
    @settings(max_examples=100, deadline=None)
    def test_curve_svg_matches_per_value_writer(self, tmp_path_factory,
                                                rows, n_cusps):
        # sample_points returns the awkward values as the points of curve i
        # (a0 = i) and of row i of their Columns, so that one block can mix
        # rows the path kernel formats with rows it hands to the template,
        # and each cusp finder n_cusps angles
        pts = np.array([np.resize(np.array(values), (512, 2))
                        for values in rows])
        pts[:, ::7] *= -1.0
        curves = [SupportFourier(float(i)) for i in range(len(rows))]

        def points(p, thetas, row=None):
            if len(thetas) != 512:
                return np.resize(pts[0, 1:1 + n_cusps], (len(thetas), 2))
            return pts if np.ndim(p.a0) else pts[int(p.a0)]
        d = tmp_path_factory.mktemp("svg")
        with mock.patch.object(cli, "sample_points", points), \
                mock.patch.object(cli, "singular_angles",
                                  lambda c: [[0.5] * n_cusps] * len(c.a0)), \
                mock.patch(f"{__name__}.reference_singular_angles",
                           lambda p: [0.5] * n_cusps), \
                np.errstate(over="ignore", invalid="ignore"):
            write_curve_svg(stack(curves),
                            [d / f"new{i}.svg" for i in range(len(rows))])
            for i, p in enumerate(curves):
                reference_curve_svg(p, d / f"ref{i}.svg")
        for i in range(len(rows)):
            assert (d / f"new{i}.svg").read_bytes() \
                == (d / f"ref{i}.svg").read_bytes()

    @given(st.lists(st.tuples(
        st.text(max_size=12), st.none() | AWKWARD, AWKWARD, st.booleans(),
        st.booleans(), st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
        FINITE, st.lists(st.tuples(FINITE, FINITE), max_size=3)),
        max_size=4))
    @example([  # json escapes the NUL that splits the C encoder's output
        ('a\0"b\\c \u00e9\u221e\U0001d4c1', None, math.nan, False, True, 0,
         0, -0.0, []),
        ("\0", 1.5, math.inf, True, False, 1, 1, 2.0, [(0.5, -0.0)]),
        ("", -0.0, -math.inf, False, False, 10 ** 6, 0, 1e-300,
         [(1.0, 2.0), (-3.0, 5e-324)])])
    @example([])
    @settings(max_examples=100, deadline=None)
    def test_report_json_matches_per_value_writer(self, tmp_path_factory,
                                                  fields):
        reports = [InequalityReport(
            ineq_id=i, parameter=p, slack=s, holds=h, expected_violable=e,
            n_checked=n, n_violations=v, witness=SupportFourier(a0, tuple(
                (k, a, b) for k, (a, b) in enumerate(modes, start=1))))
            for i, p, s, h, e, n, v, a0, modes in fields]
        d = tmp_path_factory.mktemp("json")
        inequalities_json([], d / "new.json", lambda spec, rows: reports)
        reference_report_json(reports, d / "ref.json")
        assert (d / "new.json").read_bytes() == (d / "ref.json").read_bytes()

    @pytest.mark.parametrize("constraint", [c.value for c in Constraint])
    def test_ensemble_json_matches_per_value_writer(self, tmp_path,
                                                    constraint):
        reports = inequalities_json(
            ["--count", "200", "--constraint", constraint],
            tmp_path / "new.json")
        assert len(reports) >= 4
        reference_report_json(reports, tmp_path / "ref.json")
        assert (tmp_path / "new.json").read_bytes() \
            == (tmp_path / "ref.json").read_bytes()

    @pytest.mark.parametrize("dt", [0.1, 1e-3])
    def test_simulated_outputs_match_per_value_writers(self, tmp_path, dt):
        # 11 rows take the template, 1001 the kernel's blocks of 512 rows
        p = SupportFourier(-0.5, ((1, 0.25, -0.0), (2, 0.0, 1.0)))
        trace = run(FlowConfig(FlowType.LENGTH_PRESERVING, p, t_final=1.0,
                               dt=dt))
        assert len(trace.rows) == {0.1: 11, 1e-3: 1001}[dt]
        write_trace_csv(trace, tmp_path / "t.csv")
        reference_trace_csv(trace, tmp_path / "ref_t.csv")
        write_curve_svg(stack([p]), [tmp_path / "c.svg"])
        reference_curve_svg(p, tmp_path / "ref_c.svg")
        for name in ("t.csv", "c.svg"):
            assert (tmp_path / name).read_bytes() \
                == (tmp_path / ("ref_" + name)).read_bytes()


class TestWriteInPlace:
    """Every output is written over the old file in place and cut to its
    length: the bytes are a fresh file's whatever was at the path."""

    @staticmethod
    def _commands(out, curve):
        return [["examples", "--outdir", str(out / "curves"), "--svg"],
                ["simulate", "--flow", "area", "--curve", str(curve),
                 "--t-final", "0.2", "--dt", "0.01", "--out",
                 str(out / "t.csv"), "--svg-dir", str(out / "snaps"),
                 "--svg-every", "5"],
                ["inequalities", "--count", "30", "--json",
                 str(out / "r.json")]]

    @staticmethod
    def _files(out):
        return {p.relative_to(out).as_posix(): p.read_bytes()
                for p in sorted(out.rglob("*")) if p.is_file()}

    @pytest.mark.parametrize("old_length", [
        lambda n: n + 1000, lambda n: n // 2, lambda n: 0],
        ids=["longer", "shorter", "empty"])
    def test_old_file_of_any_length_gives_a_fresh_files_bytes(
            self, tmp_path, capsys, old_length):
        curve = tmp_path / "c.curve"
        curve.write_text("a0 = 2\nmode 2 = 0 1\n")
        for argv in self._commands(tmp_path / "fresh", curve):
            assert cli_main(argv) == 0, argv
        fresh = self._files(tmp_path / "fresh")
        assert {name.rsplit(".", 1)[1] for name in fresh} \
            == {"curve", "svg", "csv", "json"}
        for name, data in fresh.items():
            old = tmp_path / "old" / name
            old.parent.mkdir(parents=True, exist_ok=True)
            old.write_bytes(b"#" * old_length(len(data)))
        for argv in self._commands(tmp_path / "old", curve):
            assert cli_main(argv) == 0, argv
        capsys.readouterr()
        assert self._files(tmp_path / "old") == fresh

    def test_devices_pipes_and_fifos_are_written_and_not_cut(
            self, tmp_path, capsys):
        curve = tmp_path / "c.curve"
        curve.write_text("a0 = 2\nmode 2 = 0 1\n")
        argv = ["simulate", "--flow", "length", "--curve", str(curve),
                "--t-final", "0.2", "--dt", "0.01", "--out"]
        assert cli_main(argv + [str(tmp_path / "t.csv")]) == 0
        assert cli_main(argv + ["/dev/null"]) == 0
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(
            fifo.read_bytes()), daemon=True)
        reader.start()
        assert cli_main(argv + [str(fifo)]) == 0
        reader.join(timeout=30)
        assert not reader.is_alive()
        assert got == [(tmp_path / "t.csv").read_bytes()]
        # /dev/stdout of a process whose standard output is a pipe
        ineq = ["inequalities", "--count", "30", "--json"]
        assert cli_main(ineq + [str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from legendreflow.cli import "
             "cli_main; sys.exit(cli_main(sys.argv[1:]))", *ineq,
             "/dev/stdout"], stdout=subprocess.PIPE, timeout=120,
            env={**os.environ,
                 "PYTHONPATH": str(Path(cli.__file__).parents[1])})
        assert proc.returncode == 0
        assert (tmp_path / "r.json").read_bytes() in proc.stdout

    @pytest.mark.parametrize("unbuffered", [False, True])
    def test_stdout_file_gets_the_output_after_what_stdout_printed(
            self, tmp_path, unbuffered):
        # /dev/stdout opened again is a new file description at offset 0,
        # while print writes at fd 1's: the output goes through sys.stdout
        # instead, in program order and uncut, whether stdout is a regular
        # file or a pipe, and with stdout buffered or not
        curve = tmp_path / "c.curve"
        curve.write_text("a0 = 2\nmode 2 = 0 1\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"

        def main(argv, stdout):
            proc = subprocess.run(
                [sys.executable, "-c", "import sys; from legendreflow.cli "
                 "import cli_main; sys.exit(cli_main(sys.argv[1:]))", *argv],
                stdout=stdout, timeout=120, env=env)
            assert proc.returncode == 0
            return proc.stdout

        sim = ["simulate", "--flow", "area", "--curve", str(curve),
               "--t-final", "0.5", "--dt", "0.01", "--out"]
        ineq = ["inequalities", "--count", "30", "--json"]
        for argv, name, csv_first in ((sim, "t.csv", True),
                                      (ineq, "r.json", False)):
            path = tmp_path / name
            printed = main(argv + [str(path)], subprocess.PIPE)
            printed = printed.replace(str(path).encode(), b"/dev/stdout")
            want = path.read_bytes() + printed if csv_first \
                else printed + path.read_bytes()
            with open(tmp_path / "out", "wb") as f:
                main(argv + ["/dev/stdout"], f)
            assert (tmp_path / "out").read_bytes() == want
            assert main(argv + ["/dev/stdout"], subprocess.PIPE) == want

    @pytest.mark.parametrize("argv, target", [
        (["simulate", "--out", "t.csv"], "t.csv"),
        (["simulate", "--out", "t.csv", "--svg-dir", "s"],
         "s/snapshot_00000.svg"),
        (["inequalities", "--json", "r.json"], "r.json"),
        (["examples", "--outdir", "ex"], "ex/figure1a.curve"),
    ])
    def test_directory_target_fails_with_a_named_error(
            self, tmp_path, monkeypatch, capsys, argv, target):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.curve").write_text("a0 = 2\nmode 2 = 0 1\n")
        (tmp_path / target).mkdir(parents=True)
        if argv[0] == "simulate":
            argv = argv + ["--flow", "area", "--curve", "c.curve",
                           "--t-final", "0.1", "--dt", "0.01"]
        elif argv[0] == "inequalities":
            argv = argv + ["--count", "5"]
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: IsADirectoryError: ")

    @pytest.mark.parametrize("argv", [
        ["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
         "0.1", "--dt", "0.01", "--out", "missing/t.csv"],
        ["inequalities", "--count", "5", "--json", "missing/r.json"],
    ])
    def test_missing_parent_fails_with_a_named_error(
            self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.curve").write_text("a0 = 2\nmode 2 = 0 1\n")
        assert cli_main(argv) == 1
        err = capsys.readouterr().err.splitlines()[-1]
        assert err.startswith("error: FileNotFoundError: ")


class TestCurveSvg:
    def _vertices(self, path):
        text = path.read_text()
        d = re.search(r'd="M ([^"]+) Z"', text).group(1)
        pts = [tuple(map(float, seg.split())) for seg in d.split(" L ")]
        return np.array(pts), text

    def test_circle_radius_deviation(self, tmp_path):
        f = tmp_path / "circle.svg"
        write_curve_svg(stack([SupportFourier(2.0)]), [f])
        pts, _ = self._vertices(f)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(r - 2.0)) < 1e-3
        mid = 0.5 * (pts + np.roll(pts, -1, axis=0))
        assert np.max(np.abs(np.hypot(mid[:, 0], mid[:, 1]) - 2.0)) < 1e-3

    def test_fig_a_has_four_cusp_markers(self, tmp_path):
        f = tmp_path / "fig_a.svg"
        write_curve_svg(stack([P_FIG_A]), [f])
        _, text = self._vertices(f)
        assert text.count("<circle") == 4

    def test_astroid_like(self, tmp_path):
        f = tmp_path / "fig_d.svg"
        write_curve_svg(stack([SupportFourier(0.0, ((2, 0.0, 2.0),))]),
                        [f])
        _, text = self._vertices(f)
        assert text.count("<circle") == 4
        assert "viewBox" in text

    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_curve_svg(stack([P_FIG_A]), [f1])
        write_curve_svg(stack([P_FIG_A]), [f2])
        assert f1.read_bytes() == f2.read_bytes()


class TestCliMain:
    def test_analyze(self, tmp_path, capsys):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        assert cli_main(["analyze", "--curve", str(f)]) == 0
        out = capsys.readouterr().out
        assert f"A = {5 * math.pi / 2!r}" in out
        assert "ell-convex-nonconvex" in out

    def test_analyze_point_curve_has_no_singular_angles(self, tmp_path,
                                                        capsys):
        f = tmp_path / "pt.curve"
        f.write_text("mode 1 = 1 1\n")
        assert cli_main(["analyze", "--curve", str(f)]) == 0
        out = capsys.readouterr().out
        assert "class = degenerate-point" in out
        assert "singular_angles = []" in out

    def test_analyze_mode_above_root_bound_fails_at_once(self, tmp_path,
                                                         capsys):
        f = tmp_path / "high.curve"
        f.write_text("a0 = 2\nmode 100000 = 0.001 0\n")
        start = time.perf_counter()
        assert cli_main(["analyze", "--curve", str(f)]) == 1
        assert time.perf_counter() - start < 5.0
        err = capsys.readouterr().err
        assert err.startswith("error: InputError: ") and err.count("\n") == 1
        assert f"MAX_ROOT_MODE = {MAX_ROOT_MODE}" in err

    def test_analyze_mode_256_still_works(self, tmp_path, capsys):
        f = tmp_path / "k256.curve"
        f.write_text("a0 = 2\nmode 256 = 0.001 0\n")
        assert cli_main(["analyze", "--curve", str(f)]) == 0
        # beta = 2 - 65.535 cos(256 theta) has 2 * 256 simple zeros
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.count(",") + 1 == 512

    @pytest.mark.parametrize("text", ["a0 = 0\nmode 2 = 0 1e-310\n",
                                      "a0 = 1e-320\nmode 2 = 0 1e-320\n"])
    def test_analyze_subnormal_beta_finds_four_cusps(self, tmp_path, capsys,
                                                     text):
        f = tmp_path / "tiny.curve"
        f.write_text(text)
        assert cli_main(["analyze", "--curve", str(f)]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        assert line.startswith("singular_angles = [")
        assert line.count(",") + 1 == 4

    def test_analyze_subnormal_curve_is_not_a_point(self, tmp_path, capsys):
        f = tmp_path / "tiny.curve"
        f.write_text("a0 = 1e-320\nmode 2 = 0 1e-320\n")
        assert cli_main(["analyze", "--curve", str(f)]) == 0
        assert "class = ell-convex-nonconvex" in capsys.readouterr().out

    def test_svg_of_a_late_state_with_subnormal_beta(self, tmp_path,
                                                     monkeypatch):
        # figure1d's mode 2 of beta, 6 e^{-3t}, is subnormal by t = 240
        monkeypatch.chdir(tmp_path)
        assert cli_main(["examples", "--outdir", "ex"]) == 0
        assert cli_main(["simulate", "--flow", "length", "--curve",
                         "ex/figure1d.curve", "--t-final", "240", "--dt", "1",
                         "--svg-dir", "s", "--svg-every", "240"]) == 0
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == [
            "snapshot_00000.svg", "snapshot_00240.svg"]

    @pytest.mark.parametrize("flow, scheme, message", [
        ("area", "modal", r"the closed form's a0\^2 overflows at t = 0\.0"),
        ("length", "modal", r"non-finite A = inf at t = 0\.0"),
        ("area", "grid", r"non-finite A = (nan|-?inf) at t = 0\.0"),
        ("length", "grid", r"non-finite A = (nan|-?inf) at t = 0\.0"),
    ])
    def test_overflowing_curve_fails_with_a_named_error(
            self, tmp_path, capsys, flow, scheme, message):
        # every coefficient in the file is finite, but pi a0^2 is not
        f = tmp_path / "big.curve"
        f.write_text("a0 = 1e300\nmode 2 = 0 1\n")
        out = tmp_path / "t.csv"
        assert cli_main(["simulate", "--flow", flow, "--scheme", scheme,
                         "--curve", str(f), "--t-final", "1", "--dt", "0.01",
                         "--out", str(out)]) == 1
        assert re.fullmatch(f"error: InputError: {message}\n",
                            capsys.readouterr().err)
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        ("a0 = 1e160\n", "A = inf"),
        ("a0 = 1e300\nmode 2 = 0 1e300\n", "A = nan"),
    ])
    def test_analyze_non_finite_moments_fail_with_a_named_error(
            self, tmp_path, capsys, text, message):
        # simulate refuses the first file too: non-finite A = inf at t = 0.0
        f = tmp_path / "big.curve"
        f.write_text(text)
        assert cli_main(["analyze", "--curve", str(f)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: InputError: non-finite {message}\n"

    def test_simulate_length_flow(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        out = tmp_path / "trace.csv"
        rc = cli_main(["simulate", "--flow", "length", "--curve", str(f),
                       "--t-final", "1", "--dt", "0.01", "--out", str(out)])
        assert rc == 0
        rows = read_trace_csv(out)
        assert all(abs(r["L"] - 4 * math.pi) < 1e-12 for r in rows)

    def test_simulate_point_curve_length_flow_succeeds(self, tmp_path):
        f = tmp_path / "pt.curve"
        f.write_text("mode 1 = 2 1\nmode 2 = 2 1\n")
        out = tmp_path / "trace.csv"
        rc = cli_main(["simulate", "--flow", "length", "--curve", str(f),
                       "--t-final", "2", "--dt", "0.01", "--out", str(out)])
        assert rc == 0

    def test_simulate_area_flow_zero_length_fails(self, tmp_path, capsys):
        f = tmp_path / "pt.curve"
        f.write_text("mode 1 = 2 1\n")
        rc = cli_main(["simulate", "--flow", "area", "--curve", str(f),
                       "--t-final", "1", "--dt", "0.01",
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "DegenerateLength" in capsys.readouterr().err

    @pytest.mark.parametrize("flow", ["length", "area"])
    def test_grid_snapshots_of_a_listed_zero_mode_above_the_root_bound(
            self, tmp_path, flow):
        # the grid is sized from figure1a's degree 2, so its states list
        # modes 1 and 2 only, and their snapshots locate cusps
        f = tmp_path / "zero600.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\nmode 600 = 0 0\n")
        out, snaps = tmp_path / "t.csv", tmp_path / "s"
        assert cli_main(["simulate", "--flow", flow, "--scheme", "grid",
                         "--curve", str(f), "--t-final", "0.1", "--dt",
                         "0.01", "--out", str(out), "--svg-dir", str(snaps),
                         "--svg-every", "5"]) == 0
        head = out.read_text().splitlines()
        assert "# grid_n = 256" in head and "# K = 600" in head
        assert len(list(snaps.iterdir())) == 3

    def test_listed_zero_mode_far_above_the_grid_costs_nothing(
            self, tmp_path, capsys):
        f = tmp_path / "far.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\nmode 1000000 = 0 0\n")
        start = time.perf_counter()
        assert cli_main(["analyze", "--curve", str(f)]) == 0
        for scheme in ("modal", "grid"):
            out = tmp_path / f"{scheme}.csv"
            assert cli_main(["simulate", "--flow", "area", "--scheme", scheme,
                             "--curve", str(f), "--t-final", "0.1", "--dt",
                             "0.01", "--out", str(out)]) == 0
            assert "# grid_n = 256" in out.read_text().splitlines()
        assert time.perf_counter() - start < 5.0
        assert "class = ell-convex-nonconvex" in capsys.readouterr().out

    def test_listed_zero_mode_whose_square_leaves_int64(self, tmp_path,
                                                         capsys):
        # 4e9^2 > 2^63: (1 - k^2) is taken in floats, so the zero mode adds
        # only zero terms and every output is figure1a's
        fig, far = tmp_path / "fig.curve", tmp_path / "far.curve"
        fig.write_text("a0 = 2\nmode 2 = 0 1\n")
        far.write_text("a0 = 2\nmode 2 = 0 1\nmode 4000000000 = 0 0\n")
        outputs = []
        for f in (fig, far):
            assert cli_main(["analyze", "--curve", str(f)]) == 0
            for flow, scheme in itertools.product(("length", "area"),
                                                  ("modal", "grid")):
                out = tmp_path / f"{flow}_{scheme}.csv"
                assert cli_main(["simulate", "--flow", flow, "--scheme",
                                 scheme, "--curve", str(f), "--t-final",
                                 "0.1", "--dt", "0.01", "--out",
                                 str(out)]) == 0
                outputs.append([line for line in out.read_text().splitlines()
                                if not line.startswith("# K = ")])
            outputs.append(capsys.readouterr().out)
        assert outputs[:5] == outputs[5:]

    @pytest.mark.parametrize("argv", [
        [], ["--flow", "length"], ["--flow", "area", "--scheme", "grid"]])
    def test_mode_number_past_int64_is_refused(self, tmp_path, capsys, argv):
        f = tmp_path / "huge.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n"
                     "mode 100000000000000000000 = 0 0\n")
        cmd = ["simulate", *argv, "--out", str(tmp_path / "t.csv")] if argv \
            else ["analyze"]
        assert cli_main(cmd + ["--curve", str(f)]) == 1
        assert capsys.readouterr().err == ("error: InputError: mode numbers "
                                           "must be >= 1 and < 2**63\n")

    def test_simulate_too_many_records_fails_at_once(self, tmp_path, capsys):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        start = time.perf_counter()
        assert cli_main(["simulate", "--flow", "length", "--curve", str(f),
                         "--t-final", "1e15", "--dt", "1",
                         "--out", str(tmp_path / "t.csv")]) == 1
        assert time.perf_counter() - start < 5.0
        assert capsys.readouterr().err == (
            "error: InputError: 1000000000000001 records exceed "
            "MAX_RECORDS = 1000000; raise dt or record_every\n")

    def test_inequalities_k_max_above_chunk_entries_fails_at_once(
            self, monkeypatch, capsys):
        # the spec is refused before run_ensemble draws a curve
        monkeypatch.setattr(cli, "run_ensemble", None)
        assert cli_main(["inequalities", "--count", "1",
                         "--k-max", "32768"]) == 1
        assert capsys.readouterr().err == (
            "error: InputError: K = 32768 needs 262148 entries per curve, "
            "more than CHUNK_ENTRIES = 262144\n")

    @pytest.mark.parametrize("argv, message", [
        (["analyze"], "beta has mode 131072 > MAX_ROOT_MODE = 512"),
        (["simulate", "--flow", "area"],
         "a 2097152-point grid exceeds MAX_GRID_N = 1048576"),
        (["simulate", "--flow", "length", "--svg-dir", "snaps"],
         "a 2097152-point grid exceeds MAX_GRID_N = 1048576"),
        (["simulate", "--flow", "area", "--scheme", "grid"],
         "exceeds stability bound"),
    ])
    def test_nonzero_top_mode_is_refused_before_any_grid(
            self, tmp_path, monkeypatch, capsys, argv, message):
        # degree 131072 asks simulate for a 2^21-point grid and analyze's
        # classify for 524292 points; both are refused before either exists
        monkeypatch.chdir(tmp_path)
        Path("top.curve").write_text(
            "a0 = 2\nmode 2 = 0 1\nmode 131072 = 1e-300 0\n")
        if argv[0] == "simulate":
            argv = argv + ["--t-final", "0.1", "--dt", "0.01"]
        tracemalloc.start()
        try:
            code = cli_main(argv + ["--curve", "top.curve"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        err = capsys.readouterr().err
        assert code == 1 and err.count("\n") == 1 and message in err
        assert peak < 1 << 20
        assert not Path("trace.csv").exists()

    def test_simulate_length_floor(self, tmp_path, capsys):
        # A = 1.6e-27: lambda_area meets the floor at t = 2.99, unless the
        # run stops early
        f = tmp_path / "tiny.curve"
        f.write_text("a0 = 1.2247448713915892e-06\nmode 2 = 0 1e-6\n")
        argv = ["simulate", "--flow", "area", "--curve", str(f),
                "--t-final", "3", "--dt", "1e-2",
                "--out", str(tmp_path / "t.csv")]
        assert cli_main(argv) == 1
        assert capsys.readouterr().err == (
            "error: DegenerateLengthError: |L| = 9.786e-10 below floor "
            "1e-09 at t = 2.99\n")
        assert cli_main(argv + ["--stop-sup-dev", "1e-9"]) == 0
        # the grid oracle meets it in RK4's stages, labelled with their t
        assert cli_main(argv + ["--scheme", "grid"]) == 1
        assert capsys.readouterr().err == (
            "error: DegenerateLengthError: |L| = 9.933e-10 below floor "
            "1e-09 at t = 2.9799999999999804\n")

    def test_simulate_partial_step_fails(self, tmp_path, capsys):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        rc = cli_main(["simulate", "--flow", "length", "--curve", str(f),
                       "--t-final", "1", "--dt", "0.4",
                       "--out", str(tmp_path / "t.csv")])
        assert rc == 1
        assert "whole number of steps" in capsys.readouterr().err

    def test_readme_commands(self, tmp_path, monkeypatch):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        block = readme.read_text(encoding="utf-8").split("## CLI")[1]
        block = block.split("```sh")[1].split("```")[0].replace("\\\n", " ")
        commands = [shlex.split(line)[1:] for line in block.splitlines()
                    if line.startswith("legendreflow ")]
        assert len(commands) == 4
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert cli_main(argv) == 0, argv

    def test_missing_curve_file(self, tmp_path, capsys):
        rc = cli_main(["analyze", "--curve", str(tmp_path / "nope.curve")])
        assert rc == 1
        assert "FileNotFoundError" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["inequalities", "--count", "3", "--decay", "nan"],
         "0 <= amplitude_decay < inf"),
        (["simulate", "--flow", "area", "--curve", "c.curve",
          "--t-final", "1e300", "--dt", "1e-300"], "t_final / dt = inf"),
        (["simulate", "--flow", "area", "--curve", "c.curve",
          "--t-final", "1e308", "--dt", "1e-10"], "t_final / dt = inf"),
        (["simulate", "--flow", "area", "--curve", "c.curve",
          "--t-final", "nan"], "finite t_final"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
          "0.1", "--dt", "0.01", "--svg-dir", "s", "--svg-every", "0"],
         "svg_every must be >= 1"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
          "0.1", "--dt", "0.01", "--svg-dir", "s", "--svg-every", "-5"],
         "svg_every must be >= 1"),
        (["inequalities", "--count", "0"], "need count >= 1"),
        (["inequalities", "--count", "5", "--tau", "nan"], "must be finite"),
        (["inequalities", "--count", "5", "--tau", "inf"], "must be finite"),
        (["inequalities", "--count", "5", "--xi", "nan"], "must be finite"),
        (["inequalities", "--count", "0", "--tau", "nan"],
         "tau and xi must be finite"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
          "0.1", "--dt", "0.01", "--record-every", "0"],
         "record_every must be >= 1"),
        (["inequalities", "--count", "3", "--decay", "inf"],
         "0 <= amplitude_decay < inf"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
          "0.1", "--dt", "0.01", "--stop-sup-dev", "inf"],
         "0 <= stop_sup_dev < inf"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
          "0.1", "--dt", "0.01", "--stop-sup-dev", "nan"],
         "0 <= stop_sup_dev < inf"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--t-final",
          "0.1", "--dt", "0.01", "--stop-sup-dev", "-1"],
         "0 <= stop_sup_dev < inf"),
    ])
    def test_domain_errors_exit_1(self, tmp_path, monkeypatch, capsys, argv,
                                  message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "c.curve").write_text("a0 = 2\nmode 2 = 0 1\n")
        assert cli_main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    def test_other_value_error_propagates(self, tmp_path, monkeypatch):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")

        def broken(*args):
            raise ValueError("injected")
        monkeypatch.setattr(cli, "classify", broken)
        with pytest.raises(ValueError, match="injected"):
            cli_main(["analyze", "--curve", str(f)])

    def test_usage_error(self, capsys):
        assert cli_main(["simulate"]) == 2
        assert cli_main([]) == 2

    def test_svg_snapshots(self, tmp_path):
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        rc = cli_main(["simulate", "--flow", "length", "--curve", str(f),
                       "--t-final", "0.5", "--dt", "0.01",
                       "--record-every", "10",
                       "--out", str(tmp_path / "t.csv"),
                       "--svg-dir", str(tmp_path / "snaps"),
                       "--svg-every", "2"])
        assert rc == 0
        snaps = sorted((tmp_path / "snaps").glob("*.svg"))
        assert len(snaps) >= 2

    @pytest.mark.parametrize("scheme", ["modal", "grid"])
    def test_only_snapshotted_records_build_series(self, tmp_path, scheme):
        # figure1a's 251 area-flow records to t = 0.25, a snapshot of every
        # 10th: the 26 snapshotted states alone build their SupportFourier
        f = tmp_path / "c.curve"
        f.write_text("a0 = 2\nmode 2 = 0 1\n")
        argv = ["simulate", "--flow", "area", "--curve", str(f), "--scheme",
                scheme, "--t-final", "0.25", "--dt", "1e-3",
                "--out", str(tmp_path / "t.csv")]
        bare = count_builds(lambda: cli_main(argv))
        snapped = count_builds(lambda: cli_main([
            *argv, "--svg-dir", str(tmp_path / "s"), "--svg-every", "10"]))
        assert snapped - bare == 26

    @staticmethod
    def _snapshots(tmp_path, text, argv):
        """Run simulate with --svg-every 1 on the curve text, and return its
        exit code, the batch sizes write_curve_svg was given, and whether
        each snapshot file has the bytes of its state written alone."""
        f = tmp_path / "c.curve"
        f.write_text(text)
        states, batches, real_run = [], [], cli.run

        def run(config, on_record=None):
            def record(i, state):
                states.append(state)
                on_record(i, state)
            return real_run(config, on_record=record)

        def write(c, paths):
            batches.append(len(paths))
            write_curve_svg(c, paths)
        with mock.patch.object(cli, "run", run), \
                mock.patch.object(cli, "write_curve_svg", write):
            code = cli_main(["simulate", *argv, "--curve", str(f),
                             "--out", str(tmp_path / "t.csv"),
                             "--svg-dir", str(tmp_path / "snaps"),
                             "--svg-every", "1"])
        snaps = sorted((tmp_path / "snaps").glob("*.svg"))
        same = []
        for i, (snap, state) in enumerate(zip(snaps, states)):
            assert snap.name == f"snapshot_{i:05d}.svg"
            write_curve_svg(stack([state.p]), [tmp_path / "alone.svg"])
            same.append(snap.read_bytes()
                        == (tmp_path / "alone.svg").read_bytes())
        return code, batches, len(snaps), len(states), all(same)

    def test_svg_snapshots_are_written_in_batches(self, tmp_path):
        # 130 records: two full batches of SVG_BATCH = 64, then the rest
        # once run returns; figure1a loses its cusps at t = ln(3)/6
        assert cli.SVG_BATCH == 64
        assert self._snapshots(tmp_path, "a0 = 2\nmode 2 = 0 1\n", [
            "--flow", "area", "--t-final", "1.29", "--dt", "0.01"]) \
            == (0, [64, 64, 2], 130, 130, True)

    def test_svg_snapshots_before_an_error_are_written(self, tmp_path,
                                                        capsys):
        # lambda_area meets the length floor at t = 2.99: the 299 records
        # before it are written, in four full batches and one of 43
        assert self._snapshots(
            tmp_path, "a0 = 1.2247448713915892e-06\nmode 2 = 0 1e-6\n", [
                "--flow", "area", "--t-final", "3", "--dt", "1e-2"]) \
            == (1, [64] * 4 + [43], 299, 299, True)
        assert "DegenerateLengthError" in capsys.readouterr().err

    def test_svg_snapshot_above_the_root_bound_fails_at_once(self, tmp_path,
                                                              capsys):
        # the first state is written alone when singular_angles must refuse
        # it, so the run stops at its first record, not after 100001
        assert self._snapshots(
            tmp_path, "a0 = 2\nmode 2 = 0 1\nmode 600 = 1e-3 0\n", [
                "--flow", "length", "--t-final", "100", "--dt", "1e-3"]) \
            == (1, [1], 0, 1, True)
        assert capsys.readouterr().err == ("error: InputError: beta has mode "
                                           "600 > MAX_ROOT_MODE = 512\n")
        assert not (tmp_path / "t.csv").exists()

    def test_inequalities_json(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(["inequalities", "--count", "20", "--seed", "5",
                       "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert all(entry["holds"] for entry in payload)

    def test_inequalities_equal_display_names_kept_apart(self, tmp_path):
        # tau = 4 and 4.0000001 both print as beta2_family(tau=4)
        reports = {}
        for taus in (["4"], ["4.0000001"], ["4", "4.0000001"]):
            out = tmp_path / f"{len(taus)}{taus[-1]}.json"
            assert cli_main(["inequalities", "--count", "50", "--tau", *taus,
                             "--xi", "--json", str(out)]) == 0
            reports[tuple(taus)] = json.loads(out.read_text())
        both = reports[("4", "4.0000001")]
        assert [r["ineq_id"] for r in both[2:]] == ["beta2_family(tau=4)"] * 2
        assert [r["parameter"] for r in both[2:]] == [4.0, 4.0000001]
        assert all(r["n_checked"] == 50 for r in both)
        assert both[2] == reports[("4",)][2]
        assert both[3] == reports[("4.0000001",)][2]

    def test_examples_reparse_areas(self, tmp_path):
        outdir = tmp_path / "ex"
        assert cli_main(["examples", "--outdir", str(outdir)]) == 0
        want = {
            "figure1a": 5 * math.pi / 2,
            "figure1b": 0.0,
            "figure1c": -5 * math.pi / 4,
            "zero_length_negative_area": -15 * math.pi / 2,
            "zero_length_zero_area": 0.0,
        }
        for name, area in want.items():
            p = parse_curve_file(outdir / f"{name}.curve")
            assert algebraic_area(p) == pytest.approx(area, abs=1e-12)
        astroid = parse_curve_file(outdir / "figure1d.curve")
        assert algebraic_length(astroid) == 0.0


@st.composite
def edge_simulations(draw):
    """A curve file's text and simulate options: K <= 16, coefficients
    m * 10^e written as text for e from -320 to 300 (so that subnormals
    parse as such), both flows and schemes, the grid's dt within its
    stability bound, at most 50 steps, 7 per record interval, and maybe SVG
    snapshots."""
    coef = st.builds("{}e{}".format, st.sampled_from(
        ["0", "-0", "1", "-1", "2.5", "-9.75"]), st.integers(-320, 300))
    ks = sorted(draw(st.sets(st.integers(1, 16), max_size=5)))
    text = "".join([f"a0 = {draw(coef)}\n"] + [
        f"mode {k} = {draw(coef)} {draw(coef)}\n" for k in ks])
    scheme = draw(st.sampled_from(["modal", "grid"]))
    bound = 1.0 / (max(ks, default=1) ** 2 + 1.0)
    dt = draw(st.sampled_from([bound, 0.5 * bound] if scheme == "grid"
                              else [1e-3, 0.01, 0.25]))
    options = ["--flow", draw(st.sampled_from(["length", "area"])),
               "--scheme", scheme, "--dt", repr(dt),
               "--t-final", repr(draw(st.integers(0, 50)) * dt),
               "--record-every", str(draw(st.integers(1, 7)))]
    if draw(st.booleans()):
        options += ["--svg-every", str(draw(st.integers(1, 3)))]
    return text, options


class TestEdgeInputs:
    # exit 0 with every CSV value finite, or exit 1 with one error line;
    # never an exception or a RuntimeWarning
    @given(edge_simulations())
    # analyze's sums of 256 samples of 1e306 overflow: "non-finite
    # coefficient", where numpy used to warn first
    @example(("a0 = 1e306\nmode 2 = 0.3 -0.1\n", [
        "--flow", "length", "--scheme", "grid", "--dt", "1e-3",
        "--t-final", "0.01", "--record-every", "1", "--svg-every", "1"]))
    @example(("a0 = 3\nmode 2 = 0 1e200\n", [
        "--flow", "length", "--scheme", "grid", "--dt", "0.2",
        "--t-final", "1.0", "--record-every", "2"]))
    @example(("a0 = 1e-320\nmode 2 = 0 1e-320\n", [
        "--flow", "area", "--scheme", "modal", "--dt", "0.25",
        "--t-final", "2.5", "--record-every", "3", "--svg-every", "1"]))
    @settings(max_examples=40, deadline=None)
    def test_simulate_exits_cleanly(self, tmp_path_factory, sim):
        text, options = sim
        d = tmp_path_factory.mktemp("edge")
        (d / "c.curve").write_text(text)
        argv = ["simulate", "--curve", str(d / "c.curve"),
                "--out", str(d / "t.csv"), *options]
        if "--svg-every" in options:
            argv += ["--svg-dir", str(d / "svg")]
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error", RuntimeWarning)
            rc = cli_main(argv)
        if rc == 0:
            rows = read_trace_csv(d / "t.csv")
            assert rows and all(math.isfinite(x) for row in rows
                                for x in row.values())
        else:
            assert rc == 1 and re.fullmatch(r"error: \w+: [^\n]+\n",
                                            err.getvalue()), err.getvalue()


class TestSharedParser:
    """cli_main reuses one parser, built at import: no call may leave state
    in it that changes the files or stdout of a later call."""

    COMMANDS = [
        ["simulate", "--flow", "area", "--curve", "../c.curve", "--t-final",
         "0.5", "--dt", "0.01", "--record-every", "10", "--out", "modal.csv",
         "--svg-dir", "snaps", "--svg-every", "2"],
        ["simulate", "--flow", "length", "--curve", "../c.curve",
         "--t-final", "0.1", "--dt", "1e-3", "--record-every", "50",
         "--scheme", "grid", "--out", "grid.csv"],
        ["inequalities", "--count", "30", "--seed", "5", "--json",
         "default.json"],
        ["inequalities", "--count", "30", "--seed", "5", "--tau", "2", "6",
         "--xi", "--json", "tau_xi.json"],
    ]
    BEFORE = {
        "first": [],
        "after_other_subcommands": [
            (["examples", "--outdir", "ex", "--svg"], 0),
            (["analyze", "--curve", "../c.curve"], 0),
            (["simulate", "--flow", "length", "--curve", "../c.curve",
              "--t-final", "0.2", "--dt", "0.1", "--stop-sup-dev", "0.5",
              "--out", "other.csv"], 0),
            (["inequalities", "--count", "7", "--constraint", "convex",
              "--tau", "9", "--xi", "3", "4"], 0)],
        "after_a_usage_error": [
            (["simulate", "--flow", "nope", "--curve", "../c.curve"], 2),
            (["inequalities", "--tau", "x"], 2)],
        "after_help": [(["--help"], 0), (["inequalities", "--help"], 0)],
    }

    def test_outputs_do_not_depend_on_earlier_calls(self, tmp_path,
                                                    monkeypatch, capsys):
        (tmp_path / "c.curve").write_text("a0 = 2\nmode 2 = 0 1\n")
        outputs = {}
        for position, before in self.BEFORE.items():
            for d in (tmp_path / f"{position}_before", tmp_path / position):
                d.mkdir()
            monkeypatch.chdir(tmp_path / f"{position}_before")
            for argv, code in before:
                assert cli_main(argv) == code, argv
            capsys.readouterr()
            monkeypatch.chdir(tmp_path / position)
            for argv in self.COMMANDS:
                assert cli_main(argv) == 0, argv
            files = {p.relative_to(tmp_path / position).as_posix():
                     p.read_bytes()
                     for p in sorted((tmp_path / position).rglob("*.*"))}
            outputs[position] = (files, capsys.readouterr().out)
        first = outputs.pop("first")
        assert len(first[0]) > 4 and first[1].count("\n") > 4
        for position, got in outputs.items():
            assert got == first, position
        defaults = cli._PARSER.parse_args(["inequalities"])
        assert (defaults.tau, defaults.xi) == ([0.0, 4.0, 8.0],
                                               [0.0, 12.0, 24.0])
