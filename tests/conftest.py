import numpy as np
import pytest

from legendreflow import SupportFourier, beta_of, periodic_quadrature, synthesize


def rand_support(rng: np.random.Generator, K: int = 6,
                 amp: float = 1.0) -> SupportFourier:
    a0 = float(rng.uniform(-amp, amp))
    modes = tuple((k, float(rng.uniform(-amp, amp)), float(rng.uniform(-amp, amp)))
                  for k in range(1, K + 1))
    return SupportFourier(a0, modes)


def length_quadrature(p: SupportFourier, n: int = 256) -> float:
    """Independent oracle: L = int p dtheta by periodic quadrature."""
    return periodic_quadrature(synthesize(p, n))


def area_quadrature(p: SupportFourier, n: int = 256) -> float:
    """Independent oracle: A = (1/2) int p * (p + p'') dtheta."""
    from legendreflow import GridFunction
    pg = synthesize(p, n).values
    bg = synthesize(beta_of(p), n).values
    return 0.5 * periodic_quadrature(GridFunction(pg * bg))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
