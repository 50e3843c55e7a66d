"""Translation graphs through the separable kernel against a frozen copy of the
graph code they replaced.

The reference below is the translation closed form (with its own A = 1 + sum X
and upward normal), the graph chart that called the profiles once per
parameter vector, and the finite-difference oracle as they were before a
translation graph became the separable surface f_1 + ... + f_n - x_{n+1} = 0.
It is kept here, unchanged, as the reference the separable route must
reproduce: bit for bit, apart from the Weingarten entries, whose products are
taken in another order, and the oracle, which differentiates along the tangent
plane of the separable surface over the n coordinates other than the one of
largest slope rather than along the graph over u.
"""

import numpy as np
import pytest

import minmin as mm
from minmin.curvature import ORACLE_STEP_FACTOR
from minmin.functions import C3Function
from minmin.norms import _sum_last, signed_pow
from minmin.sampling import random_translation_config

# ---------------------------------------------------------------------------
# frozen graph reference
# ---------------------------------------------------------------------------


def _ref_terms(fs, u, m):
    d1 = np.array([f.d1(t) for f, t in zip(fs, u)])
    d2 = np.array([f.d2(t) for f, t in zip(fs, u)])
    X = signed_pow(d1, 2 * m, 2 * m - 1)
    A = 1.0 + _sum_last(X)
    G = signed_pow(d1, -(2 * m - 2), 2 * m - 1) * d2
    return d1, d2, X, A, G, _sum_last(G * (A - X))


def _ref_mean_curvature(fs, u, p):
    m = p.m
    *_, A, _, total = _ref_terms(fs, u, m)
    return float(-(np.float_power(A, -(2 * m + 1) / (2 * m))) / (p.n * (2 * m - 1))
                 * total)


def _ref_weingarten(fs, u, p):
    m = p.m
    d1, d2, X, A, G, _ = _ref_terms(fs, u, m)
    pref = np.float_power(A, -(2 * m + 1) / (2 * m)) / (2 * m - 1)
    root = signed_pow(d1, 1, 2 * m - 1)
    W = pref * root[:, None] * d2[:, None] * root[None, :]
    np.fill_diagonal(W, -pref * G * (A - X))
    return W


def _ref_normal(g, p):
    m = p.m
    A = 1.0 + _sum_last(signed_pow(g, 2 * m, 2 * m - 1))
    scale = np.float_power(A, -1.0 / (2 * m))
    comps = np.concatenate(
        [-signed_pow(g, 1, 2 * m - 1), np.ones(g.shape[:-1] + (1,))], axis=-1
    )
    return scale[..., None] * comps


def _ref_tangents(nu):
    n = nu.shape[-1] - 1
    T = np.zeros(nu.shape[:-1] + (n + 1, n))
    T[..., :n, :] = np.eye(n)
    T[..., n, :] = -nu[..., :n] / nu[..., n:]
    return T


class _RefGraphChart:
    def __init__(self, fs, p):
        self.fs = fs
        self.p = p

    def _grad(self, t):
        rows = [np.array([f.d1(ti) for f, ti in zip(self.fs, row)])
                for row in t.reshape(-1, t.shape[-1])]
        return np.asarray(rows, dtype=float).reshape(t.shape)

    def nu(self, t):
        g = self._grad(t)
        return np.concatenate([-g, np.ones(g.shape[:-1] + (1,))], axis=-1)

    def eta(self, t):
        return _ref_normal(self._grad(t), self.p)


def _ref_oracle(chart, u, p):
    n = p.n
    t0 = np.atleast_2d(u)
    nu = chart.nu(t0)
    nu_hat = nu / np.sqrt(_sum_last(nu * nu))[:, None]
    basis = np.concatenate([_ref_tangents(nu), nu_hat[:, :, None]], axis=-1)
    steps = ORACLE_STEP_FACTOR * (1.0 + np.abs(t0))
    shift = np.eye(n)[:, None, :] * steps.T[:, :, None]
    eta = chart.eta(np.stack([t0 + shift, t0 - shift]))
    deta = (eta[0] - eta[1]) / (2 * steps.T[:, :, None])
    coef = np.linalg.solve(basis, deta[..., None])[..., 0]
    diag_sum = np.zeros(len(t0))
    for j in range(n):
        diag_sum += coef[j, :, j]
    return float(diag_sum[0] / n), float(np.max(np.abs(coef[:, :, n]), axis=0)[0])


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def _configs(count, seed=7):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        yield random_translation_config(rng, m, n)


def test_report_matches_frozen_graph_code():
    for fs, u, p in _configs(300):
        rep = mm.report_translation(fs, u, p)
        chart = _RefGraphChart(fs, p)
        h_oracle, defect = _ref_oracle(chart, u, p)
        assert rep.h_analytic == _ref_mean_curvature(fs, u, p)
        assert abs(rep.h_oracle - h_oracle) <= 1e-10
        assert abs(rep.tangency_defect - defect) <= 1e-10
        assert mm.mean_curvature_translation(fs, u, p) == rep.h_analytic
        # the report keeps the comparison only: W and eta from their own functions
        W = mm.weingarten_translation(fs, u, p).entries
        assert np.max(np.abs(W - _ref_weingarten(fs, u, p))) <= 1e-15
        assert np.array_equal(mm.birkhoff_normal_graph(chart._grad(u), p).eta,
                              chart.eta(u))


def test_residual_and_normal_match_frozen_graph_code():
    for fs, u, p in _configs(100, seed=8):
        d1, d2, *_, total = _ref_terms(fs, u, p.m)
        assert mm.translation_residual_sum(d1, d2, p.m) == total
        stack = np.stack([d1, -d1])
        assert np.array_equal(mm.birkhoff_normal_graph(stack, p).eta,
                              _ref_normal(stack, p))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_flat_graph_normal_points_up(m):
    # a sloped plane: the graph's normal points up, and the plane is flat
    p = mm.NormParams(m, 3)
    fs = (C3Function.linear(0.7), C3Function.linear(-1.2))
    u = [0.4, -0.9]
    rep = mm.report_translation(fs, u, p)
    assert mm.birkhoff_normal_graph(np.array([0.7, -1.2]), p).eta[-1] > 0
    assert rep.h_analytic == rep.h_oracle == 0.0
    assert not mm.weingarten_translation(fs, u, p).entries.any()
