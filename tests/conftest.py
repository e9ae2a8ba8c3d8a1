import hypothesis.strategies as st
import numpy as np
import pytest

from legendreflow import GridFunction, SupportFourier, beta_of, synthesize
from helpers import periodic_quadrature


def rand_support(rng: np.random.Generator, K: int = 6,
                 amp: float = 1.0) -> SupportFourier:
    a0 = float(rng.uniform(-amp, amp))
    modes = tuple((k, float(rng.uniform(-amp, amp)), float(rng.uniform(-amp, amp)))
                  for k in range(1, K + 1))
    return SupportFourier(a0, modes)


coeff = st.floats(-2, 2, allow_nan=False, allow_infinity=False)


@st.composite
def supports(draw, max_k: int = 6):
    k_max = draw(st.integers(1, max_k))
    a0 = draw(coeff)
    modes = tuple((k, draw(coeff), draw(coeff)) for k in range(1, k_max + 1))
    return SupportFourier(a0, modes)


@st.composite
def rows_on_modes(draw, p: SupportFourier, scale: float = 1.0,
                  max_size: int = 3):
    """p and up to max_size more series on p's mode numbers, in random order,
    with coefficients scale * [-1, 1] that are often 0.0 or -0.0."""
    unit = st.sampled_from([0.0, -0.0]) | st.floats(-1, 1, allow_nan=False)
    rows = [SupportFourier(scale * draw(unit), tuple(
        (k, scale * draw(unit), scale * draw(unit)) for k, _, _ in p.modes))
        for _ in range(draw(st.integers(0, max_size)))]
    rows.insert(draw(st.integers(0, len(rows))), p)
    return rows


def length_quadrature(p: SupportFourier, n: int = 256) -> float:
    """Independent oracle: L = int p dtheta by periodic quadrature."""
    return periodic_quadrature(synthesize(p, n))


def area_quadrature(p: SupportFourier, n: int = 256) -> float:
    """Independent oracle: A = (1/2) int p * (p + p'') dtheta."""
    pg = synthesize(p, n).values
    bg = synthesize(beta_of(p), n).values
    return 0.5 * periodic_quadrature(GridFunction(pg * bg))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
