"""Random surface configurations with slopes bounded away from zero.

Profiles are cubic Taylor polynomials pinned at the evaluation point, so the
drawn derivative values are exact there and the configuration is usable on
finite-difference stencils around it.

The random_*_draws functions return the drawn arrays, the point and the
(4, k) stack of f, f', f'', f''' of its k profiles; taylor_profiles builds the
profiles from them, one configuration or a stack of configurations at once.
The random_*_config functions are both steps for one configuration.
"""

import numpy as np

from .functions import C3Function
from .norms import NormParams


def counter_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by the run seed."""
    return np.random.Generator(np.random.Philox(key=seed))


def _taylor_draws(rng: np.random.Generator, k: int, slope_low: float,
                  slope_high: float) -> np.ndarray:
    """f, f', f'', f''' of k profiles at their points, a stack (4, k)."""
    d1 = rng.uniform(slope_low, slope_high, k) * rng.choice([-1.0, 1.0], k)
    d2 = rng.uniform(-1.0, 1.0, k)
    d3 = rng.uniform(-1.0, 1.0, k)
    f0 = rng.uniform(-1.0, 1.0, k)
    return np.stack([f0, d1, d2, d3])


def random_translation_draws(rng: np.random.Generator, n: int,
                             slope_low: float = 0.3, slope_high: float = 1.5):
    """(u, derivs) of a random translation graph: its parameters u (n,) and
    the (4, n) values and derivatives of its profiles at u."""
    u = rng.uniform(-1.0, 1.0, n)
    return u, _taylor_draws(rng, n, slope_low, slope_high)


def random_separable_draws(rng: np.random.Generator, n: int,
                           slope_low: float = 0.3, slope_high: float = 1.5):
    """(x, derivs) of a random separable surface: its on-surface point x (n+1,)
    and the (4, n+1) values and derivatives of its profiles at x."""
    x = rng.uniform(-1.0, 1.0, n + 1)
    derivs = _taylor_draws(rng, n + 1, slope_low, slope_high)
    derivs[0, -1] = -derivs[0, :-1].sum()  # pin the point onto the surface
    return x, derivs


def taylor_profiles(at, derivs) -> tuple:
    """The k Taylor profiles of draws: at (k,) with derivs (4, k) gives one
    configuration's, at (N, k) with derivs (4, N, k) profiles stacked by row
    (see C3Function.taylor), the i-th of them about at[:, i]."""
    return tuple(C3Function.taylor(at[..., i], derivs[..., i])
                 for i in range(at.shape[-1]))


def random_translation_config(
    rng: np.random.Generator,
    m: int,
    n: int,
    slope_low: float = 0.3,
    slope_high: float = 1.5,
):
    """(profiles, point, params) for a random translation graph."""
    u, derivs = random_translation_draws(rng, n, slope_low, slope_high)
    return taylor_profiles(u, derivs), u, NormParams(m=m, dim=n + 1)


def random_separable_config(
    rng: np.random.Generator,
    m: int,
    n: int,
    slope_low: float = 0.3,
    slope_high: float = 1.5,
):
    """(profiles, on-surface point, params) for a random separable surface."""
    x, derivs = random_separable_draws(rng, n, slope_low, slope_high)
    return taylor_profiles(x, derivs), x, NormParams(m=m, dim=n + 1)
