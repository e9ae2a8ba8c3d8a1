"""Seeded input curves, generated by the benchmark itself.

Coefficients come from numpy's ``default_rng(seed)``; a0 is then lifted until
the curve passes this module's own convexity test on a dense grid, so the
program under test is never used to build its own inputs.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

#: Mode-k amplitude bound (k + 1)^-DECAY, as in the program's default ensemble.
DECAY = 1.5
#: Required min over the test grid of beta = p + p''.
MARGIN = 0.1
#: Test grid size; dense enough that beta cannot dip MARGIN below its samples
#: between grid points for K <= 32.
GRID_N = 4096

#: The paper's figure 1a curve: four cusps that vanish at t* = ln(3)/6 under
#: the area-preserving flow.
FIGURE1A_TEXT = "a0 = 2.0\nmode 2 = 0.0 1.0\n"


def min_beta(a0: float, a: np.ndarray, b: np.ndarray) -> float:
    """min over GRID_N equispaced angles of beta = a0 + sum (1 - k^2)(a_k cos
    k theta + b_k sin k theta)."""
    k = np.arange(1, a.shape[0] + 1)
    theta = np.linspace(0.0, 2.0 * math.pi, GRID_N, endpoint=False)
    kt = np.outer(k, theta)
    f = (1.0 - k * k)[:, None]
    beta = a0 + np.sum(f * (a[:, None] * np.cos(kt) + b[:, None] * np.sin(kt)),
                       axis=0)
    return float(np.min(beta))


def convex_curve(K: int, seed: int) -> tuple[float, np.ndarray, np.ndarray]:
    """(a0, a[1..K], b[1..K]) of a seeded curve with min beta >= MARGIN."""
    rng = np.random.default_rng([seed, K])
    bound = (np.arange(1, K + 1) + 1.0) ** (-DECAY)
    a0 = float(rng.uniform(-1.0, 1.0))
    a = rng.uniform(-1.0, 1.0, K) * bound
    b = rng.uniform(-1.0, 1.0, K) * bound
    shortfall = MARGIN - min_beta(a0, a, b)
    while shortfall > 0.0:
        a0 += shortfall + 1e-9
        shortfall = MARGIN - min_beta(a0, a, b)
    return a0, a, b


def curve_text(a0: float, a: np.ndarray, b: np.ndarray) -> str:
    """The program's curve-file format, with round-tripping float reprs."""
    lines = [f"a0 = {float(a0)!r}"]
    lines += [f"mode {k} = {float(x)!r} {float(y)!r}"
              for k, (x, y) in enumerate(zip(a, b), start=1)]
    return "\n".join(lines) + "\n"


def write_inputs(directory: Path, seed: int) -> dict[str, Path]:
    """Write every workload's curve files; returns {name: path}."""
    directory.mkdir(parents=True, exist_ok=True)
    texts = {"dense_k32": curve_text(*convex_curve(32, seed)),
             "sparse_k16": curve_text(*convex_curve(16, seed)),
             "figure1a": FIGURE1A_TEXT}
    paths = {}
    for name, text in texts.items():
        paths[name] = directory / f"{name}.curve"
        paths[name].write_text(text, encoding="utf-8")
    return paths
