"""The batched separable path against a frozen copy of the per-point code it replaced.

The reference below is the per-point closed form, chart Newton solve and
finite-difference oracle as they were before the comparison was evaluated as
one array pass.  It is kept here, unchanged: the batched closed form must
reproduce it up to rounding, and the batched oracle, which differentiates along
the tangent plane instead of the Newton-solved chart, must agree with it to the
oracle's own accuracy.
"""

import numpy as np
import pytest

import minmin as mm
from minmin import curvature
from minmin.cli import EXAMPLE_IDS, main
from minmin.curvature import (
    ORACLE_STEP_FACTOR,
    SeparableChart,
    report_separable_batch,
)
from minmin.errors import SingularConfigurationError
from minmin.functions import C3Function
from minmin.norms import birkhoff_normal_implicit, signed_pow
from minmin.reporting import VerificationReport
from minmin.sampling import (
    counter_rng,
    random_separable_config,
    random_translation_config,
    taylor_profiles,
)
from minmin.separable import (
    QuadratureChart,
    _QuadratureProfile,
    _zero_sum,
    example_surface,
)

# ---------------------------------------------------------------------------
# frozen per-point reference
# ---------------------------------------------------------------------------


def _ref_mean_curvature(fs, x, p):
    m = p.m
    d1 = np.array([f.d1(t) for f, t in zip(fs, x)])
    d2 = np.array([f.d2(t) for f, t in zip(fs, x)])
    X = np.array([signed_pow(v, 2 * m, 2 * m - 1) for v in d1])
    A = X.sum()
    total = sum(
        signed_pow(d1[j], -(2 * m - 2), 2 * m - 1) * d2[j] * (A - X[j])
        for j in range(p.dim)
    )
    return float(A ** (-(2 * m + 1) / (2 * m)) / (p.n * (2 * m - 1)) * total)


class _RefChart:
    def __init__(self, fs, p, base_point):
        self.fs = list(fs)
        self.p = p
        self.base_last = float(base_point[-1])

    def _solve_last(self, t):
        f_last = self.fs[-1]
        rhs = -sum(f(ti) for f, ti in zip(self.fs[:-1], t))
        x = self.base_last
        for _ in range(80):
            val = f_last(x) - rhs
            der = f_last.d1(x)
            if der == 0.0:
                raise SingularConfigurationError("chart slope f_{n+1}' vanishes")
            step = val / der
            x -= step
            if abs(step) <= 1e-15 * (1.0 + abs(x)):
                break
        return x

    def point(self, t):
        return np.append(t, self._solve_last(t))

    def tangents(self, t):
        x = self.point(t)
        d1 = np.array([f.d1(v) for f, v in zip(self.fs, x)])
        n = self.p.n
        T = np.zeros((self.p.dim, n))
        T[:n, :] = np.eye(n)
        T[n, :] = -d1[:n] / d1[n]
        return T

    def nu(self, t):
        x = self.point(t)
        return np.array([f.d1(v) for f, v in zip(self.fs, x)])

    def eta(self, t):
        x = self.point(t)
        grad = np.array([f.d1(v) for f, v in zip(self.fs, x)])
        return birkhoff_normal_implicit(grad, self.p).eta


def _ref_oracle(chart, t0, p):
    n = p.n
    T = chart.tangents(t0)
    nu = chart.nu(t0)
    basis = np.column_stack([T, nu / np.linalg.norm(nu)])
    diag_sum = 0.0
    defect = 0.0
    for j in range(n):
        hj = ORACLE_STEP_FACTOR * (1.0 + abs(t0[j]))
        tp = t0.copy()
        tp[j] += hj
        tm = t0.copy()
        tm[j] -= hj
        deta = (chart.eta(tp) - chart.eta(tm)) / (2 * hj)
        coef = np.linalg.solve(basis, deta)
        diag_sum += coef[j]
        defect = max(defect, abs(coef[n]))
    return float(diag_sum / n), float(defect)


def _ref_report(fs, x, p, tol=1e-6):
    h_oracle, defect = _ref_oracle(_RefChart(fs, p, x), x[:-1].copy(), p)
    return mm.CurvatureReport(
        point=x, eta=None, weingarten=None, h_analytic=_ref_mean_curvature(fs, x, p),
        h_oracle=h_oracle, tangency_defect=defect, tol=tol,
    )


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


def _largest_slope_order(fs, x):
    """The coordinate order that keeps the frozen reference's chart well
    conditioned at x: unchanged, or with the largest-slope coordinate moved
    last when the last slope is below half of it."""
    slopes = np.abs([f.d1(t) for f, t in zip(fs, x)])
    k = int(np.argmax(slopes))
    if not slopes[-1] < 0.5 * slopes[k]:
        return list(range(len(x)))
    return [i for i in range(len(x)) if i != k] + [k]


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("example", EXAMPLE_IDS)
def test_batch_matches_per_point_reference(example, m):
    surface = example_surface(example, m)
    points = surface.sample(counter_rng(7), 30)
    batch = report_separable_batch(surface.fs, points, surface.p)
    for x, got in zip(points, batch):
        # the reference solves for a coordinate of large slope: profiles and
        # coordinates in the largest-slope order
        order = _largest_slope_order(surface.fs, x)
        ref = _ref_report([surface.fs[i] for i in order], x[order], surface.p)
        H = got.h_analytic
        assert abs(H - ref.h_analytic) <= 1e-15
        # the tangent-plane oracle meets the closed form, and is never much
        # further from it than the Newton-solved reference
        assert abs(got.h_oracle - H) <= 1e-9 * (1 + abs(H))
        assert got.tangency_defect <= 1e-9
        assert abs(got.h_oracle - H) <= abs(ref.h_oracle - ref.h_analytic) + 2e-10
        assert got.passed == ref.passed
        assert (abs(got.h_analytic) <= 1e-8) == (abs(ref.h_analytic) <= 1e-8)


def test_batch_weingarten_rows_match_single_points():
    rng = np.random.default_rng(41)
    for m in (1, 2, 3):
        fs, x, p = random_separable_config(rng, m, 3)
        H, W, eta = mm.separable_closed_form(fs, np.stack([x, x]), p)
        assert H[0] == H[1] == mm.mean_curvature_separable(fs, x, p)
        assert np.array_equal(W[1], mm.weingarten_separable(fs, x, p).entries)
        assert np.array_equal(eta[0], birkhoff_normal_implicit(
            [f.d1(t) for f, t in zip(fs, x)], p).eta)


def test_zero_chart_slope_still_raises():
    # unit sphere: f_3'(0) = 0 at the equator, in a batch with a good point
    p = mm.NormParams(1, 3)
    fs = (
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([-1.0, 0, 1.0]),
    )
    good = [0.3, 0.4, np.sqrt(0.75)]
    with pytest.raises(SingularConfigurationError):
        report_separable_batch(fs, [good, [0.6, 0.8, 0.0]], p)
    # m >= 2 needs negative powers of every slope
    p2 = mm.NormParams(2, 3)
    with pytest.raises(SingularConfigurationError):
        report_separable_batch(fs, [good, [0.0, 0.6, 0.8]], p2)


def test_chart_raises_where_the_whole_gradient_vanishes():
    # the cone x1^2 + x2^2 - x3^2 = 0 has no tangent plane at its vertex
    p = mm.NormParams(1, 3)
    fs = (
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([0, 0, -1.0]),
    )
    with pytest.raises(SingularConfigurationError):
        SeparableChart(fs, p, [[0.6, 0.8, 1.0], [0.0, 0.0, 0.0]])
    # the equator of the sphere: one slope vanishes, the chart still stands
    sphere = fs[:2] + (C3Function.polynomial([-1.0, 0, 1.0]),)
    chart = SeparableChart(sphere, p, [0.6, 0.8, 0.0])
    assert np.array_equal(chart.point(chart.t0), [0.6, 0.8, 0.0])


class _CountingProfile:
    """A profile that records the shape of every array its d1 is called on."""

    def __init__(self, f, calls):
        self.f, self.calls = f, calls

    def __call__(self, x):
        return self.f(x)

    def d1(self, x):
        self.calls.append((id(self), np.shape(x)))
        return self.f.d1(x)

    def d2(self, x):
        return self.f.d2(x)


def test_batch_evaluates_the_base_slopes_once(monkeypatch):
    # the unit sphere at 5 points: f' at the base points once per profile, in
    # the chart, and one chart.nu call on the 2n stencil points of each
    p = mm.NormParams(1, 3)
    calls = []
    fs = tuple(
        _CountingProfile(C3Function.polynomial(c), calls)
        for c in ([0, 0, 1.0], [0, 0, 1.0], [-1.0, 0, 1.0])
    )
    x = np.random.default_rng(3).uniform(0.2, 1.0, (5, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    nu_shapes = []
    real_nu = SeparableChart.nu

    def nu(self, t):
        nu_shapes.append(np.shape(t))
        return real_nu(self, t)

    monkeypatch.setattr(SeparableChart, "nu", nu)
    report_separable_batch(fs, x, p)
    assert nu_shapes == [(2 * p.n, 5, p.n)]
    for f in fs:
        assert [shape for who, shape in calls if who == id(f)] == [(5,), (2 * p.n, 5)]


def test_batch_inverts_the_65_quadrature_on_arrays_only(monkeypatch):
    # 6.5's fs in x recover u through u_of_x: a batch calls it once per
    # array of coordinates, never one element at a time
    calls = []
    real = _QuadratureProfile.u_of_x

    def u_of_x(self, x):
        calls.append((id(self), np.shape(x) if isinstance(x, np.ndarray) else None))
        return real(self, x)

    monkeypatch.setattr(_QuadratureProfile, "u_of_x", u_of_x)
    surface = example_surface("6.5", 2)
    x = surface.sample(counter_rng(4), 20)
    report_separable_batch(surface.fs, x, surface.p)
    n = surface.p.n
    for f in surface.fs:
        # f, f' and f'' at the points, then f' at the oracle's stencil
        assert [shape for who, shape in calls if who == id(f)] == [
            (20,), (20,), (20,), (2 * n, 20)]


def test_65_verify_never_inverts_the_quadrature(monkeypatch, capsys):
    calls = []
    real = _QuadratureProfile.u_of_x

    def u_of_x(self, x):
        calls.append(x)
        return real(self, x)

    monkeypatch.setattr(_QuadratureProfile, "u_of_x", u_of_x)
    code = main(["verify", "--example", "6.5", "--m", "2", "--points", "40",
                 "--seed", "5"])
    out = capsys.readouterr().out
    assert code == 0 and "status: PASS" in out
    assert calls == []


@pytest.mark.parametrize("m", (1, 2, 3))
def test_65_verify_passes_at_3000_points(m, capsys):
    code = main(["verify", "--example", "6.5", "--m", str(m), "--points", "3000"])
    out = capsys.readouterr().out
    assert code == 0 and "status: PASS" in out
    dev = float(out.split("max_oracle_dev: ")[1].split()[0])
    assert dev <= 1e-9


def test_65_chart_tangents_are_the_derivatives_of_x():
    surface = example_surface("6.5", 2)
    u = np.array([[0.4, -1.1, 0.9], [-0.8, 0.3, 1.2]])
    chart = QuadratureChart(surface.fs, _zero_sum(u))
    nu, T = chart.nu0, chart.T
    h = 1e-5
    for j in range(3):
        e = np.eye(3)[j] * h
        x = [surface.x_of_u(_zero_sum(u + s * e)) for s in (1.0, -1.0)]
        fd = (x[0] - x[1]) / (2 * h)
        assert np.max(np.abs(T[:, :, j] - fd)) <= 1e-8
    # the tangents are orthogonal to the defining gradient
    assert np.max(np.abs(np.einsum("nd,ndj->nj", nu, T))) <= 1e-14


def test_65_u_chart_agrees_with_the_x_chart():
    surface = example_surface("6.5", 2)
    reports = surface.report_sample(counter_rng(8), 12)
    points = np.array([r.point for r in reports])
    ref = report_separable_batch(surface.fs, points, surface.p)
    for r, q in zip(reports, ref):
        assert r.h_analytic == pytest.approx(q.h_analytic, abs=1e-15)
        assert r.h_oracle == pytest.approx(q.h_oracle, abs=1e-9)
        assert np.allclose(r.eta, q.eta, rtol=0, atol=1e-14)
        assert np.allclose(r.weingarten.entries, q.weingarten.entries, rtol=0,
                           atol=1e-13)


# ---------------------------------------------------------------------------
# oracle-compare: one batch per (kind, m, n) against one report per configuration
# ---------------------------------------------------------------------------


def _command_reports(argv, monkeypatch, capsys):
    """The CurvatureReports a run of the command renders, in row order."""
    seen = []
    real = VerificationReport.render

    def render(self):
        seen.append(self.reports)
        return real(self)

    monkeypatch.setattr(VerificationReport, "render", render)
    code = main(argv)
    capsys.readouterr()
    assert code in (0, 1) and len(seen) == 1
    return seen[0]


def _per_configuration_reports(seed, points, n_fixed):
    """oracle-compare --kind both drawn one configuration at a time and
    reported by the single-point report_translation / report_separable."""
    rng = counter_rng(seed)
    reports = []
    for kind in ("translation", "separable"):
        for _ in range(points):
            m = int(rng.integers(1, 4))
            n = int(rng.integers(2, 5)) if n_fixed is None else n_fixed
            if kind == "translation":
                fs, at, p = random_translation_config(rng, m, n)
                reports.append(mm.report_translation(fs, at, p, tol=1e-6))
            else:
                fs, at, p = random_separable_config(rng, m, n)
                reports.append(mm.report_separable(fs, at, p, tol=1e-6))
    return reports


def _bits(r):
    return (r.point.tobytes(), r.eta.tobytes(), r.weingarten.entries.tobytes(),
            np.float64(r.h_analytic).tobytes(), np.float64(r.h_oracle).tobytes(),
            np.float64(r.tangency_defect).tobytes())


@pytest.mark.parametrize("n", (None, 2, 4))
@pytest.mark.parametrize("seed", (1, 7, 20250101))
def test_oracle_compare_batches_equal_single_point_reports(seed, n, monkeypatch,
                                                          capsys):
    points = 40
    argv = ["oracle-compare", "--kind", "both", "--points", str(points),
            "--seed", str(seed)] + ([] if n is None else ["--n", str(n)])
    got = _command_reports(argv, monkeypatch, capsys)
    want = _per_configuration_reports(seed, points, n)
    assert len(got) == len(want) == 2 * points
    for g, w in zip(got, want):
        assert _bits(g) == _bits(w)


def test_oracle_compare_batches_longer_than_a_chunk(monkeypatch, capsys):
    # a group of configurations is split into calls of at most one chunk of
    # report_separable_batch, whose charts take the stacked profiles whole
    argv = ["oracle-compare", "--kind", "both", "--points", "30", "--seed", "3"]
    whole = [_bits(r) for r in _command_reports(argv, monkeypatch, capsys)]
    monkeypatch.setattr(curvature, "_CHUNK_POINTS", 2)
    chunked = [_bits(r) for r in _command_reports(argv, monkeypatch, capsys)]
    assert chunked == whole


def test_translation_batch_rows_equal_single_points():
    rng = counter_rng(19)
    U = rng.uniform(-1.0, 1.0, (5, 3))
    derivs = rng.uniform(0.3, 1.5, (4, 5, 3))
    p = mm.NormParams(2, 4)
    fs = taylor_profiles(U, derivs)
    batch = mm.report_translation_batch(fs, U, p)
    for i, got in enumerate(batch):
        row = taylor_profiles(U[i], derivs[:, i])
        assert _bits(got) == _bits(mm.report_translation(row, U[i], p))
        assert got.h_analytic == mm.mean_curvature_translation(row, U[i], p)
