"""Workload process: one set-up sample, or the measured passes of a run.

Started by run.py in a fresh interpreter whose environment puts the
checkout's ``src`` on the path and pins numpy's thread pools to one thread.
Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py setup   --workload W --workdir D --seed N
    python3 perfbench/worker.py measure --workload W --workdir D --seed N \
        --seconds S --trace 0|1 --layer-metrics NAME...
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from reference import REF_NOMINAL_S
from workloads import WORKLOADS, Context, Inequalities, PassResult, run_pass
from tracer import Tracer, self_times

#: Layer metric stems whose span is a method, not a module function.
SPAN_ALIASES = {"curves.evaluate": "curves.SupportFourier.evaluate",
                "curves.SupportFourier_init":
                    "curves.SupportFourier.__post_init__"}
SCALE = {"_us": 1e-3, "_ms": 1e-6, "_s": 1e-9}


def context(workdir: Path, seed: int) -> Context:
    curves = {p.stem: p for p in workdir.glob("*.curve")}
    return Context(workdir=workdir, curves=curves, seed=seed)


def setup(workload: str, ctx: Context) -> dict:
    """Parse the first operation's curve file and build its config; the
    imports above already ran in this fresh process."""
    WORKLOADS[workload][0].config(ctx)
    return {"ready": time.perf_counter()}


def tail(values: list[float]) -> tuple[float, float] | None:
    """(percentile, value) of the highest sample with >= 10 samples beyond
    it, or None with fewer than 11 samples."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def checked_pass(workload: str, ctx: Context, log: PassResult) -> PassResult:
    """One pass, its operations and failures added to `log`."""
    res = run_pass(workload, ctx)
    log.attempted += res.attempted
    log.failed += res.failed
    log.errors += res.errors
    return res


def passes_until(workload: str, ctx: Context, seconds: float,
                 log: PassResult, minimum: int = 1) -> list[PassResult]:
    """Run passes until `seconds` have elapsed (at least `minimum`)."""
    done = []
    deadline = time.perf_counter() + seconds
    while len(done) < minimum or time.perf_counter() < deadline:
        done.append(checked_pass(workload, ctx, log))
    return done


def accuracy(results: list[PassResult]) -> dict:
    out = {}
    drifts = [r.drift for r in results if r.drift is not None]
    gaps = [r.gap for r in results if r.gap is not None]
    if drifts:
        out["frozen_drift_rel"] = max(drifts)
    if gaps:
        out["oracle_gap"] = max(gaps)
    return out


def end_to_end(workload: str, ctx: Context, seconds: float,
               log: PassResult) -> tuple[dict, dict]:
    checked_pass(workload, ctx, log)          # warm-up
    results = passes_until(workload, ctx, seconds, log, minimum=3)
    walls = [r.scaled_s for r in results]
    metrics = {"wall_s": statistics.median(walls),
               "items_per_s": statistics.median(r.items / r.scaled_s
                                                for r in results),
               "peak_rss_mb":
                   resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
    item = "curves" if isinstance(WORKLOADS[workload][0], Inequalities) \
        else "steps"
    extras = {"passes": len(results),
              "wall_s_raw": statistics.median(r.wall_s for r in results),
              "speed_vs_reference": statistics.median(
                  REF_NOMINAL_S * (r.attempted + 1) / r.ref_s for r in results),
              f"{item}_per_s": metrics["items_per_s"], **accuracy(results)}
    if (t := tail(walls)) is not None:
        extras[f"wall_s_p{t[0]:.0f}"] = t[1]
    return metrics, extras


def layer_metrics(workload: str, names: list[str], tracer: Tracer,
                  traced: list[tuple[int, PassResult]],
                  untraced: list[PassResult]) -> dict:
    """Values of the per-layer metrics `workload.<name>`.

    `traced` holds (index of the pass's first span, result) per traced pass.
    Per-call times are medians over every span of the traced passes; the
    self-time breakdown is that of the median traced pass, so it adds up to
    that pass's wall time.
    """
    spans = tracer.spans
    nid = np.array([s[0] for s in spans])
    parent = np.array([s[3] for s in spans])
    dur = np.array([s[2] - s[1] for s in spans], dtype=np.int64)
    own = self_times(spans)
    ids = {name: i for i, name in enumerate(tracer.names)}
    module = np.array([n.split(".")[0] for n in tracer.names])[nid]

    def select(stem: str) -> np.ndarray:
        return nid == ids[SPAN_ALIASES.get(stem, stem)]

    walls = [r.wall_s for _, r in traced]
    mid = sorted(range(len(walls)), key=walls.__getitem__)[(len(walls) - 1) // 2]
    starts = [first for first, _ in traced] + [len(spans)]
    seg = slice(starts[mid], starts[mid + 1])

    out = {}
    for full in names:
        name = full[len(workload) + 1:]
        if name == "trace.overhead_frac":
            value = (statistics.median(r.scaled_s for _, r in traced)
                     / statistics.median(r.scaled_s for r in untraced) - 1.0)
        elif name == "wall_traced_s":
            value = walls[mid]
        elif name == "self.uncovered_s":
            value = walls[mid] - own[seg].sum() * 1e-9
        elif name.startswith("self."):
            mod = name[len("self."):-len("_s")]
            value = own[seg][module[seg] == mod].sum() * 1e-9
        elif name in ("frozen_drift_rel", "oracle_gap"):
            value = accuracy([r for _, r in traced])[name]
        elif name == "cli.write_trace_csv_bytes":
            value = statistics.median(b for _, r in traced
                                      for b in r.csv_bytes)
        elif name == "inequalities.accept_ratio":
            # attempts: algebraic_area calls made directly by random_curve
            drawn = parent >= 0
            drawn[drawn] = select("inequalities.random_curve")[parent[drawn]]
            attempts = drawn & select("curves.algebraic_area")
            value = len(set(parent[attempts])) / int(attempts.sum())
        elif name.endswith("_calls"):
            value = int(select(name[:-len("_calls")]).sum()) / len(traced)
        elif name.endswith("_self_s"):
            value = np.median(own[select(name[:-len("_self_s")])]) * 1e-9
        else:
            suffix = name[name.rindex("_"):]
            value = np.median(dur[select(name[:-len(suffix)])]) * SCALE[suffix]
        out[full] = float(value)
    return out


def traced_run(ctx: Context, seconds: float, names: list[str],
               log: PassResult, spans_dir: Path) -> dict:
    """Untraced then traced passes of every workload, seconds split evenly;
    every workload's per-layer metrics come out of one traced run."""
    budget = seconds / len(WORKLOADS) / 2.0
    out = {}
    for workload in WORKLOADS:
        checked_pass(workload, ctx, log)      # warm-up
        untraced = passes_until(workload, ctx, budget, log)
        tracer = Tracer()
        tracer.install()
        try:
            traced = []
            deadline = time.perf_counter() + budget
            while not traced or time.perf_counter() < deadline:
                start = len(tracer.spans)
                traced.append((start, checked_pass(workload, ctx, log)))
        finally:
            tracer.uninstall()
        tracer.write(spans_dir / f"spans-{workload}.tsv.gz")
        mine = [n for n in names if n.startswith(workload + ".")]
        out.update(layer_metrics(workload, mine, tracer, traced, untraced))
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=["setup", "measure"])
    ap.add_argument("--workload", choices=list(WORKLOADS), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--layer-metrics", nargs="*", default=[])
    args = ap.parse_args(argv)
    ctx = context(args.workdir, args.seed)
    if args.mode == "setup":
        print(json.dumps(setup(args.workload, ctx)))
        return 0
    log = PassResult()
    if args.trace:
        metrics = traced_run(ctx, args.seconds, args.layer_metrics, log,
                             args.workdir.parent)
        extras = {}
    else:
        metrics, extras = end_to_end(args.workload, ctx, args.seconds, log)
    for line in log.errors[:20]:
        print(line, file=sys.stderr)
    print(json.dumps({"attempted": log.attempted, "failed": log.failed,
                      "metrics": metrics, "extras": extras}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
