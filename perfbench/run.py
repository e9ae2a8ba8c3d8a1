"""legendreflow benchmark: one closed-loop workload, checked and measured.

    python3 perfbench/run.py --workload trace-dense --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The inputs are generated from --seed, the
program is imported from the checkout's ``src``, and every operation's
outputs are checked.  With --trace 0 the run reports the end-to-end metrics
of BENCHMARK.json for the chosen workload; with --trace 1 it runs every
workload with and without span tracing and reports the per-layer metrics.
The last line of standard output is one JSON object.  Spans and a result
file with the environment are written under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from inputs import write_inputs
from reference import REF_NOMINAL_S, timed_reference

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9
#: Every run must end within 180 s; set-up samples come out of this too.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def worker(args: list[str], env: dict, timeout: float) -> dict:
    """Run perfbench/worker.py and return its last-line JSON."""
    try:
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                              env=env, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {args[0]} exited with {proc.returncode}")
    return json.loads(lines[-1])


def environment(seed: int) -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"seed": seed, "python": platform.python_version(),
            "numpy": np.__version__, "cpu": cpu, "nproc": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    started = time.perf_counter()

    root = Path.cwd()
    if not (root / "src" / "legendreflow" / "__init__.py").is_file():
        print("error: run from a checkout root holding src/legendreflow",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    declared = spec["per_layer" if args.trace else "end_to_end"]

    out_dir = root / "perfbench" / "out"
    workdir = out_dir / f"work-{os.getpid()}"
    write_inputs(workdir, args.seed)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    common = ["--workload", args.workload, "--workdir", str(workdir),
              "--seed", str(args.seed)]
    try:
        setup, setup_raw = [], []
        if not args.trace:
            ref = timed_reference()
            for _ in range(SETUP_SAMPLES):
                t0 = time.perf_counter()
                raw = worker(["setup", *common], env, 60.0)["ready"] - t0
                ref_after = timed_reference()
                setup_raw.append(raw)
                setup.append(raw * 2.0 * REF_NOMINAL_S / (ref + ref_after))
                ref = ref_after
        remaining = DEADLINE_S - (time.perf_counter() - started)
        layer_args = ["--layer-metrics", *[m["name"] for m in declared]] \
            if args.trace else []
        res = worker(["measure", *common, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), *layer_args], env, remaining)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    values = dict(res["metrics"])
    if setup:
        values["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    result = {"correct": res["failed"] == 0, "attempted": res["attempted"],
              "failed": res["failed"], "metrics": metrics}

    env_info = environment(args.seed)
    extras = {"failed_frac": res["failed"] / res["attempted"], **res["extras"]}
    if setup:
        extras["setup_samples"] = len(setup)
        extras["setup_s_raw"] = statistics.median(setup_raw)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(
        json.dumps({"workload": args.workload, "environment": env_info,
                    "extras": extras, **result}, indent=2) + "\n",
        encoding="utf-8")

    print(" ".join(f"{k}={v}" for k, v in env_info.items()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']!r} {m['unit']}")
    for name, value in extras.items():
        print(f"{name} = {value!r}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
