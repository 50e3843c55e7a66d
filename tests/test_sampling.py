"""The random configuration draws, one configuration or a stack at once.

A frozen copy of the one-configuration draws as they were before they took a
count is kept below: without a count the draws must give its bits and leave
the generator where it left it, so that random_*_config and every test that
uses them keep their configurations.
"""

import numpy as np
import pytest

from minmin.sampling import (
    counter_rng,
    random_separable_config,
    random_separable_draws,
    random_translation_config,
    random_signs,
    random_translation_draws,
    taylor_profiles,
)

# ---------------------------------------------------------------------------
# frozen one-configuration draws (do not edit)


def _frozen_taylor_draws(rng, k, slope_low, slope_high):
    d1 = rng.uniform(slope_low, slope_high, k) * rng.choice([-1.0, 1.0], k)
    d2 = rng.uniform(-1.0, 1.0, k)
    d3 = rng.uniform(-1.0, 1.0, k)
    f0 = rng.uniform(-1.0, 1.0, k)
    return np.stack([f0, d1, d2, d3])


def _frozen_translation_draws(rng, n, slope_low=0.3, slope_high=1.5):
    u = rng.uniform(-1.0, 1.0, n)
    return u, _frozen_taylor_draws(rng, n, slope_low, slope_high)


def _frozen_separable_draws(rng, n, slope_low=0.3, slope_high=1.5):
    x = rng.uniform(-1.0, 1.0, n + 1)
    derivs = _frozen_taylor_draws(rng, n + 1, slope_low, slope_high)
    derivs[0, -1] = -derivs[0, :-1].sum()
    return x, derivs


# ---------------------------------------------------------------------------

DRAWS = (
    (random_translation_draws, _frozen_translation_draws, 0),
    (random_separable_draws, _frozen_separable_draws, 1),
)
STACKED = [(draw, extra) for draw, _, extra in DRAWS]


@pytest.mark.parametrize("draw,frozen,extra", DRAWS)
@pytest.mark.parametrize("seed", (0, 5, 20250101))
def test_one_configuration_is_the_frozen_stream(draw, frozen, extra, seed):
    new, old = counter_rng(seed), counter_rng(seed)
    for n in (2, 3, 4, 2):
        at, derivs = draw(new, n)
        at_old, derivs_old = frozen(old, n)
        assert at.shape == (n + extra,) and derivs.shape == (4, n + extra)
        assert at.tobytes() == at_old.tobytes()
        assert derivs.tobytes() == derivs_old.tobytes()
    # and the generator is left where the frozen draws left it
    assert new.random(4).tobytes() == old.random(4).tobytes()


@pytest.mark.parametrize("config,frozen", (
    (random_translation_config, _frozen_translation_draws),
    (random_separable_config, _frozen_separable_draws),
))
def test_configs_keep_their_draws(config, frozen):
    new, old = counter_rng(8), counter_rng(8)
    for m, n in ((1, 2), (3, 4), (2, 3)):
        fs, at, p = config(new, m, n, slope_low=0.5, slope_high=2.0)
        at_old, derivs_old = frozen(old, n, 0.5, 2.0)
        assert at.tobytes() == at_old.tobytes()
        assert (p.m, p.dim) == (m, n + 1)
        for f, a, d in zip(fs, at_old, derivs_old.T):
            assert (f(a), f.d1(a), f.d2(a)) == (d[0], d[1], d[2])


@pytest.mark.parametrize("draw,extra", STACKED)
@pytest.mark.parametrize("n", (2, 3, 4))
def test_stacked_draws_shapes_and_slopes(draw, extra, n):
    at, derivs = draw(counter_rng(3), n, 500)
    k = n + extra
    assert at.shape == (500, k) and derivs.shape == (4, 500, k)
    assert np.all((-1.0 <= at) & (at < 1.0))
    slopes = np.abs(derivs[1])
    assert np.all((0.3 <= slopes) & (slopes < 1.5))
    assert np.any(derivs[1] < 0) and np.any(derivs[1] > 0)
    for row in (derivs[2], derivs[3]):
        assert np.all((-1.0 <= row) & (row < 1.0))
    # rows are distinct configurations
    assert len(np.unique(at[:, 0])) == 500


@pytest.mark.parametrize("draw,extra", STACKED)
def test_stacked_draws_of_no_configuration_leave_the_generator(draw, extra):
    # oracle-compare draws a stack for every n, also one no configuration has
    rng = counter_rng(3)
    at, derivs = draw(rng, 2, 0)
    assert at.shape == (0, 2 + extra) and derivs.shape == (4, 0, 2 + extra)
    assert rng.random(4).tobytes() == counter_rng(3).random(4).tobytes()


@pytest.mark.parametrize("n", (2, 3, 4))
def test_each_stacked_separable_row_is_pinned(n):
    x, derivs = random_separable_draws(counter_rng(4), n, 300)
    assert np.all(np.abs(derivs[0].sum(axis=-1)) <= 1e-14)
    # the profiles take those values at the row's point: it is on its surface
    fs = taylor_profiles(x, derivs)
    values = np.column_stack([f(x[:, i]) for i, f in enumerate(fs)])
    assert values.tobytes() == derivs[0].tobytes()
    # only the last value is pinned: the others are drawn in [-1, 1)
    assert np.all(np.abs(derivs[0, :, :-1]) < 1.0)


@pytest.mark.parametrize("shape", [(128, 3), 128, (75, 4), (1,), (0,), (7, 5)])
def test_random_signs_are_the_draws_of_choice(shape):
    # Generator.choice over two values indexes through integers(0, 2): the same
    # signs from the same bits, and the generator left at the same place
    new, old = counter_rng(2323), counter_rng(2323)
    signs = random_signs(new, shape)
    want = old.choice([-1.0, 1.0], shape)
    assert signs.shape == want.shape and signs.dtype == want.dtype
    assert signs.tobytes() == want.tobytes()
    assert new.random(3).tobytes() == old.random(3).tobytes()
