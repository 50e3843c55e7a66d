"""The solve-free oracle against a frozen copy of the dense expansion it replaced.

The reference below is the tangent-plane chart with its dense tangent basis T
(N, dim, n), the gradient at every stencil point in full, and the oracle that
expanded d eta in the basis (T, unit normal) with one batched linear solve, as
they were before the oracle read d eta through the two coordinates each
parameter moves.  It is kept here, unchanged: both oracles take the same
central differences of the same normals, so they agree to rounding.
"""

import numpy as np
import pytest

from minmin.cli import EXAMPLE_IDS
from minmin.curvature import (
    ORACLE_STEP_FACTOR,
    SeparableChart,
    _columns,
    mean_curvature_from_slopes,
    mean_curvature_oracle,
)
from minmin.norms import NormParams, _sum_last, birkhoff_normal_implicit
from minmin.sampling import counter_rng, random_separable_draws, taylor_profiles
from minmin.separable import _zero_sum, example_surface

# ---------------------------------------------------------------------------
# frozen dense expansion
# ---------------------------------------------------------------------------


class _RefSeparableChart:
    def __init__(self, fs, p, x0):
        self.fs = list(fs)
        nu0 = _columns([f.d1 for f in self.fs], x0)
        n = p.n
        k = np.argmax(np.abs(nu0), axis=-1)[..., None]
        above = np.arange(n) >= k
        ratio = -np.where(above, nu0[..., 1:], nu0[..., :-1]) \
            / np.take_along_axis(nu0, k, -1)
        rows = np.arange(n + 1)[:, None]
        self.x0, self.nu0 = x0, nu0
        self.t0 = np.where(above, x0[..., 1:], x0[..., :-1])
        self.T = ((rows == np.arange(n) + above[..., None, :])
                  + (rows == k[..., None]) * ratio[..., None, :])

    def point(self, t):
        dt = np.asarray(t, dtype=float) - self.t0
        return self.x0 + (self.T @ dt[..., None])[..., 0]

    def nu(self, t):
        return _columns([f.d1 for f in self.fs], self.point(t))


class _RefQuadratureChart:
    def __init__(self, fs, u):
        self._d1 = [f.d1_of_u for f in fs]
        self.t0 = u[:, :-1]
        self.nu0 = nu0 = _columns(self._d1, u)
        n = u.shape[-1] - 1
        T = np.zeros(nu0.shape + (n,))
        T[..., :n, :] = np.eye(n)
        T[..., n, :] = -nu0[..., :n] / nu0[..., n:]
        self.T = T / nu0[..., None, :-1]

    def nu(self, t):
        return _columns(self._d1, _zero_sum(t))


def _ref_oracle(chart, p):
    n = p.n
    t0, nu0 = chart.t0, chart.nu0
    steps = ORACLE_STEP_FACTOR * (1.0 + np.abs(t0))
    shift = np.eye(n)[:, None, :] * steps.T[:, :, None]
    nu = chart.nu(np.concatenate([t0 + shift, t0 - shift]))
    nu_hat = nu0 / np.sqrt(_sum_last(nu0 * nu0))[:, None]
    basis = np.concatenate([chart.T, nu_hat[:, :, None]], axis=-1)
    eta = birkhoff_normal_implicit(nu, p).eta
    deta = (eta[:n] - eta[n:]) / (2 * steps.T[:, :, None])
    coef = np.linalg.solve(basis, deta[..., None])[..., 0]
    diag_sum = np.zeros(len(t0))
    for j in range(n):
        diag_sum += coef[j, :, j]
    return diag_sum / n, np.max(np.abs(coef[:, :, n]), axis=0)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def _assert_meets_reference(chart, ref, H, p):
    h_oracle, defect = mean_curvature_oracle(chart, p)
    h_ref, defect_ref = _ref_oracle(ref, p)
    assert np.all(np.abs(h_oracle - h_ref) <= 1e-10 * (1 + np.abs(H)))
    assert np.all(np.abs(defect - defect_ref) <= 1e-10)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_separable_chart_meets_the_dense_expansion(example, m):
    surface = example_surface(example, m)
    x = surface.sample(counter_rng(5), 30)
    fs, p = surface.fs, surface.p
    chart = SeparableChart(fs, p, x)
    H = mean_curvature_from_slopes(chart.nu0, _columns([f.d2 for f in fs], x), p)
    _assert_meets_reference(chart, _RefSeparableChart(fs, p, x), H, p)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_quadrature_chart_meets_the_dense_expansion(m):
    surface = example_surface("6.5", m)
    u = surface.sample_u(counter_rng(5), 30)
    chart = surface.chart(u)
    H = mean_curvature_from_slopes(
        chart.nu0, _columns([f.d2_of_u for f in surface.fs], u), surface.p)
    _assert_meets_reference(chart, _RefQuadratureChart(surface.fs, u), H, surface.p)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_stacked_profiles_meet_the_dense_expansion(n, m):
    # oracle-compare's batches: every row has profiles of its own
    rng = counter_rng(11)
    draws = [random_separable_draws(rng, n) for _ in range(25)]
    at = np.stack([d[0] for d in draws])
    derivs = np.stack([d[1] for d in draws], axis=1)
    fs, p = taylor_profiles(at, derivs), NormParams(m, n + 1)
    chart = SeparableChart(fs, p, at)
    H = mean_curvature_from_slopes(chart.nu0, _columns([f.d2 for f in fs], at), p)
    _assert_meets_reference(chart, _RefSeparableChart(fs, p, at), H, p)


def test_chart_points_meet_the_dense_tangents():
    # point(t) = x0 + T (t - t0) from the moved coordinates alone, for a stack
    # of parameter arrays (..., N, n) and for one base point, a stack of one
    surface = example_surface("6.4", 2, r=3)
    x = surface.sample(counter_rng(6), 20)
    chart = SeparableChart(surface.fs, surface.p, x)
    ref = _RefSeparableChart(surface.fs, surface.p, x)
    t = chart.t0 + counter_rng(7).uniform(-0.1, 0.1, (3,) + chart.t0.shape)
    assert np.max(np.abs(chart.point(t) - ref.point(t))) <= 1e-15
    one = SeparableChart(surface.fs, surface.p, x[4:5])
    assert np.max(np.abs(one.point(t[:, 4:5]) - ref.point(t)[:, 4:5])) <= 1e-15
