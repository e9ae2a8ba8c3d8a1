"""Tests of the benchmark's own code.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import legendreflow
from legendreflow import cli, curves
from inputs import MARGIN, convex_curve, min_beta, write_inputs
from tracer import Tracer, self_times
import workloads
from workloads import Context, Inequalities, Simulate, run_pass


def test_self_times_subtract_direct_children_only():
    spans = [(0, 0, 100, -1),     # root
             (1, 10, 40, 0),      # child of root
             (2, 15, 25, 1),      # grandchild
             (3, 50, 90, 0),      # second child of root
             (4, 120, 130, -1)]   # second root
    assert self_times(spans).tolist() == [30, 20, 10, 40, 10]
    # self times of a tree add up to its root's duration
    assert self_times(spans)[:4].sum() == 100


def test_generator_repeats_per_seed_and_differs_across_seeds():
    a0, a, b = convex_curve(32, 7)
    a0_again, a_again, b_again = convex_curve(32, 7)
    assert a0 == a0_again and np.array_equal(a, a_again) \
        and np.array_equal(b, b_again)
    other = convex_curve(32, 8)
    assert not np.array_equal(a, other[1])
    assert min_beta(a0, a, b) >= MARGIN


def test_generated_files_parse_to_convex_curves(tmp_path):
    paths = write_inputs(tmp_path, 3)
    for name in ("dense_k32", "sparse_k16"):
        p = cli.parse_curve_file(paths[name])
        assert curves.classify(p).kind is curves.CurveKind.CONVEX


TINY = (
    Simulate("area", "dense_k32", 0.02),
    Simulate("area", "sparse_k16", 0.02, "grid", 10),
    Simulate("area", "figure1a", 0.05, svg_every=10),
    Inequalities("zero-length", 50),
)


def _outputs(root):
    return {p.relative_to(root): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_traced_pass_writes_identical_outputs(tmp_path, monkeypatch):
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", TINY)
    curve_files = write_inputs(tmp_path / "inputs", 5)
    plain = run_pass("tiny", Context(tmp_path / "plain", curve_files, 5))

    originals = (cli.cli_main, legendreflow.beta_of,
                 curves.SupportFourier.evaluate)
    tracer = Tracer()
    tracer.install()
    try:
        assert cli.cli_main is not originals[0]
        traced = run_pass("tiny", Context(tmp_path / "traced", curve_files, 5))
    finally:
        tracer.uninstall()
    assert (cli.cli_main, legendreflow.beta_of,
            curves.SupportFourier.evaluate) == originals

    assert plain.failed == traced.failed == 0, plain.errors + traced.errors
    plain_out = _outputs(tmp_path / "plain")
    assert plain_out == _outputs(tmp_path / "traced")
    assert any(p.suffix == ".json" for p in plain_out)
    assert any(p.suffix == ".svg" for p in plain_out)

    names = {tracer.names[s[0]].split(".")[0] for s in tracer.spans}
    assert names == {"curves", "spectral", "flows", "inequalities", "cli"}
    roots = [s for s in tracer.spans if s[3] == -1]
    assert [tracer.names[s[0]] for s in roots] == ["cli.cli_main"] * len(TINY)
    assert self_times(tracer.spans).sum() == sum(s[2] - s[1] for s in roots)
    assert traced.wall_s * 1e9 >= sum(s[2] - s[1] for s in roots)


def test_failed_operation_is_counted(tmp_path, monkeypatch):
    # dt = 1e-3 is above the grid stability bound for K = 32
    monkeypatch.setitem(workloads.WORKLOADS, "unstable",
                        (Simulate("area", "dense_k32", 0.01, "grid"),))
    res = run_pass("unstable", Context(tmp_path, write_inputs(tmp_path, 1), 1))
    assert (res.attempted, res.failed) == (1, 1)
    assert "exit code 1" in res.errors[0]


@pytest.mark.parametrize("op, rows", [(Simulate("area", "x", 1.0), 1001),
                                      (Simulate("area", "x", 1.0, "grid", 100), 11),
                                      (Simulate("area", "x", 0.25, "grid", 100), 4)])
def test_expected_row_count(op, rows):
    assert op.rows == rows


def test_oracle_pairs_match_modal_and_grid_runs_of_one_flow():
    ops = workloads.WORKLOADS["oracle-sparse"]
    pairs = workloads.oracle_pairs(ops)
    assert sorted(ops[i].flow for i, _ in pairs) == ["area", "length"]
    assert all(ops[i].scheme == "modal" and ops[j].scheme == "grid"
               for i, j in pairs)
    assert workloads.oracle_pairs(TINY) == []
