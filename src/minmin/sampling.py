"""Random surface configurations with slopes bounded away from zero.

Profiles are cubic Taylor polynomials pinned at the evaluation point, so the
drawn derivative values are exact there and the configuration is usable on
finite-difference stencils around it.

The random_*_draws functions return the drawn arrays, the point and the
(4, k) stack of f, f', f'', f''' of its k profiles, or with count the stacks
(count, k) and (4, count, k) of count configurations; taylor_profiles builds
the profiles from them: one configuration's, or the table (TaylorColumns) of
a stack of configurations, which evaluates all its rows and columns at once.
The random_*_config functions are both steps for one configuration.
"""

# the annotations stay strings, so importing this module loads no numpy.random
from __future__ import annotations

import numpy as np

from .functions import C3Function, TaylorColumns
from .norms import NormParams


def counter_rng(seed: int) -> np.random.Generator:
    """Counter-based generator (Philox) keyed by the run seed."""
    return np.random.Generator(np.random.Philox(key=seed))


def random_signs(rng: np.random.Generator, shape) -> np.ndarray:
    """Independent signs -1.0 or +1.0: the draws, and the bits taken from rng,
    of rng.choice([-1.0, 1.0], shape), which indexes through rng.integers(0, 2)."""
    return 2.0 * rng.integers(0, 2, shape) - 1.0


def signed_uniform(rng: np.random.Generator, low: float, high: float,
                   shape) -> np.ndarray:
    """Magnitudes uniform in [low, high) times independent random signs, the
    magnitudes drawn from rng first and then the signs (random_signs)."""
    return rng.uniform(low, high, shape) * random_signs(rng, shape)


def _taylor_draws(rng: np.random.Generator, shape, slope_low: float,
                  slope_high: float) -> np.ndarray:
    """f, f', f'', f''' of profiles at their points, a stack (4, *shape)."""
    d1 = signed_uniform(rng, slope_low, slope_high, shape)
    d2 = rng.uniform(-1.0, 1.0, shape)
    d3 = rng.uniform(-1.0, 1.0, shape)
    f0 = rng.uniform(-1.0, 1.0, shape)
    return np.stack([f0, d1, d2, d3])


def random_translation_draws(rng: np.random.Generator, n: int, count=None,
                             slope_low: float = 0.3, slope_high: float = 1.5):
    """(u, derivs) of a random translation graph: its parameters u (n,) and
    the (4, n) values and derivatives of its profiles at u; with count, the
    stacks (count, n) and (4, count, n) of count graphs, drawn row by row."""
    shape = n if count is None else (count, n)
    u = rng.uniform(-1.0, 1.0, shape)
    return u, _taylor_draws(rng, shape, slope_low, slope_high)


def random_separable_draws(rng: np.random.Generator, n: int, count=None,
                           slope_low: float = 0.3, slope_high: float = 1.5):
    """(x, derivs) of a random separable surface: its on-surface point x (n+1,)
    and the (4, n+1) values and derivatives of its profiles at x; with count,
    the stacks (count, n+1) and (4, count, n+1) of count surfaces."""
    shape = n + 1 if count is None else (count, n + 1)
    x = rng.uniform(-1.0, 1.0, shape)
    derivs = _taylor_draws(rng, shape, slope_low, slope_high)
    # pin each point onto its surface
    derivs[0, ..., -1] = -derivs[0, ..., :-1].sum(axis=-1)
    return x, derivs


def taylor_profiles(at, derivs):
    """The k Taylor profiles of draws: at (k,) with derivs (4, k) gives one
    configuration's, a tuple of C3Function.taylor; at (N, k) with derivs
    (4, N, k) gives the TaylorColumns table of N configurations, whose i-th
    profile is stacked by row about at[:, i]."""
    if np.ndim(at) == 2:
        return TaylorColumns.taylor(at, derivs)
    return tuple(C3Function.taylor(at[i], derivs[:, i]) for i in range(len(at)))


def random_translation_config(rng: np.random.Generator, m: int, n: int,
                              slope_low: float = 0.3, slope_high: float = 1.5):
    """(profiles, point, params) for a random translation graph."""
    u, derivs = random_translation_draws(rng, n, slope_low=slope_low, slope_high=slope_high)
    return taylor_profiles(u, derivs), u, NormParams(m=m, dim=n + 1)


def random_separable_config(rng: np.random.Generator, m: int, n: int,
                            slope_low: float = 0.3, slope_high: float = 1.5):
    """(profiles, on-surface point, params) for a random separable surface."""
    x, derivs = random_separable_draws(rng, n, slope_low=slope_low, slope_high=slope_high)
    return taylor_profiles(x, derivs), x, NormParams(m=m, dim=n + 1)
