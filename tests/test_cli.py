import math
import re
import shlex
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from legendreflow import (FlowConfig, FlowType, SupportFourier,
                          algebraic_area, algebraic_length, cli, run)
from legendreflow.cli import (ParseError, cli_main, format_curve,
                              parse_curve_file, read_trace_csv,
                              write_curve_svg, write_trace_csv)

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


class TestCurveSvg:
    def _vertices(self, path):
        text = path.read_text()
        d = re.search(r'd="M ([^"]+) Z"', text).group(1)
        pts = [tuple(map(float, seg.split())) for seg in d.split(" L ")]
        return np.array(pts), text

    def test_circle_radius_deviation(self, tmp_path):
        f = tmp_path / "circle.svg"
        write_curve_svg(SupportFourier(2.0), f)
        pts, _ = self._vertices(f)
        r = np.hypot(pts[:, 0], pts[:, 1])
        assert np.max(np.abs(r - 2.0)) < 1e-3
        mid = 0.5 * (pts + np.roll(pts, -1, axis=0))
        assert np.max(np.abs(np.hypot(mid[:, 0], mid[:, 1]) - 2.0)) < 1e-3

    def test_fig_a_has_four_cusp_markers(self, tmp_path):
        f = tmp_path / "fig_a.svg"
        write_curve_svg(P_FIG_A, f)
        _, text = self._vertices(f)
        assert text.count("<circle") == 4

    def test_astroid_like(self, tmp_path):
        f = tmp_path / "fig_d.svg"
        write_curve_svg(SupportFourier(0.0, ((2, 0.0, 2.0),)), f)
        _, text = self._vertices(f)
        assert text.count("<circle") == 4
        assert "viewBox" in text

    def test_deterministic_bytes(self, tmp_path):
        f1, f2 = tmp_path / "a.svg", tmp_path / "b.svg"
        write_curve_svg(P_FIG_A, f1)
        write_curve_svg(P_FIG_A, f2)
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
        (["simulate", "--flow", "area", "--curve", "c.curve", "--scheme",
          "grid", "--grid-n", "100", "--t-final", "0.1", "--dt", "0.01"],
         "power of two"),
        (["simulate", "--flow", "area", "--curve", "c.curve", "--grid-n", "0",
          "--t-final", "0.1", "--dt", "0.01"], "grid_n must be >= 1"),
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

    def test_inequalities_json(self, tmp_path):
        out = tmp_path / "report.json"
        rc = cli_main(["inequalities", "--count", "20", "--seed", "5",
                       "--json", str(out)])
        assert rc == 0
        import json
        payload = json.loads(out.read_text())
        assert all(entry["holds"] for entry in payload)

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
