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
from minmin.errors import DimensionMismatchError, SingularConfigurationError
from minmin.functions import C3Function, PowerColumns, ProfileColumns, TaylorColumns
from minmin.norms import birkhoff_normal_implicit, signed_pow
from minmin.reporting import VerificationReport
from minmin.sampling import (
    counter_rng,
    random_separable_config,
    random_separable_draws,
    random_translation_draws,
    taylor_profiles,
)
from minmin.separable import (
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
        h_analytic=_ref_mean_curvature(fs, x, p), h_oracle=h_oracle,
        tangency_defect=defect, tol=tol,
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


def test_a_batch_of_no_points_is_an_empty_stack():
    surface = example_surface("6.2", 2)
    batch = report_separable_batch(surface.fs, np.empty((0, 4)), surface.p)
    assert len(batch) == 0 and list(batch) == []
    assert batch.h_analytic.shape == batch.h_oracle.shape == (0,)
    assert batch.tangency_defect.shape == (0,)
    text = VerificationReport("verify", {}, batch, h_tol=1e-8).render()
    assert "points: 0\n" in text and "status: PASS" in text


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
    # the equator of the sphere: one slope vanishes, the chart still stands,
    # over the coordinates other than the pivot x[1], and the oracle sees H = 1
    sphere = fs[:2] + (C3Function.polynomial([-1.0, 0, 1.0]),)
    chart = SeparableChart(sphere, p, [[0.6, 0.8, 0.0]])
    assert np.array_equal(chart.point(chart.t0), [[0.6, 0.8, 0.0]])
    assert np.array_equal(chart.t0, [[0.6, 0.0]])
    (h,), (defect,) = mm.mean_curvature_oracle(chart, p)
    assert h == pytest.approx(1.0, abs=1e-9) and defect <= 1e-9


def test_chart_raises_where_a_slope_overflows():
    # f_1' = 4e300 x^3 is inf at x = 1e3; with it the chart's rates are NaN
    p = mm.NormParams(2, 3)
    table = PowerColumns([1e300, 1.0, -1.0], [0.0, 0.0, 0.0], 2)
    with pytest.raises(SingularConfigurationError, match="slope f' overflows"):
        SeparableChart(table, p, [[0.5, 0.5, 0.5], [1e3, 1.0, 1.0]])


@pytest.mark.parametrize("base", [
    pytest.param([0.6, 0.8, 0.0], id="one-point"),
    pytest.param([[[0.6, 0.8, 0.0]]], id="three-axes"),
    pytest.param([[0.6, 0.8]], id="short-rows"),
])
def test_chart_takes_a_stack_of_base_points_only(base):
    # one point is a stack of one, (1, dim): a bare point (dim,) is refused
    p = mm.NormParams(1, 3)
    sphere = (C3Function.polynomial([0, 0, 1.0]), C3Function.polynomial([0, 0, 1.0]),
              C3Function.polynomial([-1.0, 0, 1.0]))
    with pytest.raises(DimensionMismatchError, match=r"stack \(N, 3\)"):
        SeparableChart(sphere, p, base)


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


def _stencil_cells(pivots, dim):
    """The stencil cells each profile evaluates: parameter j moves c_j and
    the pivot k, by +h and by -h, so coordinate i is moved once at a point
    pivoted elsewhere and n times at a point pivoted at i."""
    n = dim - 1
    return [2 * int(np.sum(np.where(pivots == i, n, 1))) for i in range(dim)]


def test_batch_evaluates_the_base_slopes_once(monkeypatch):
    # the unit sphere at 5 points: f' at the base points once per profile, in
    # the chart, then one moved_slopes call, which makes one table call, and
    # the table evaluates each profile once on the cells of its column, of the
    # coordinates the stencil moves, 4n per point
    p = mm.NormParams(1, 3)
    calls = []
    fs = tuple(
        _CountingProfile(C3Function.polynomial(c), calls)
        for c in ([0, 0, 1.0], [0, 0, 1.0], [-1.0, 0, 1.0])
    )
    x = np.random.default_rng(3).uniform(0.2, 1.0, (5, 3))
    x /= np.linalg.norm(x, axis=1)[:, None]
    h_shapes, cell_shapes = [], []
    real, real_cells = SeparableChart.moved_slopes, ProfileColumns.slopes_at

    def moved_slopes(self, h):
        h_shapes.append(np.shape(h))
        return real(self, h)

    def slopes_at(self, y, col, row):
        cell_shapes.append(np.shape(y))
        return real_cells(self, y, col, row)

    monkeypatch.setattr(SeparableChart, "moved_slopes", moved_slopes)
    monkeypatch.setattr(ProfileColumns, "slopes_at", slopes_at)
    report_separable_batch(fs, x, p)
    assert h_shapes == [(5, p.n)]
    assert cell_shapes == [(2, 2, 5, p.n)]
    cells = _stencil_cells(np.argmax(np.abs(x), axis=1), p.dim)
    assert sum(cells) == 4 * p.n * 5
    for f, k in zip(fs, cells):
        assert [shape for who, shape in calls if who == id(f)] == [(5,), (k,)]


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
    # the pivot of each point is its coordinate of largest slope
    slopes = np.column_stack([f.d1(x[:, i]) for i, f in enumerate(surface.fs)])
    cells = _stencil_cells(np.argmax(np.abs(slopes), axis=1), surface.p.dim)
    calls.clear()
    report_separable_batch(surface.fs, x, surface.p)
    for f, k in zip(surface.fs, cells):
        # f, f' and f'' at the points, then f' at the oracle's stencil cells
        assert [shape for who, shape in calls if who == id(f)] == [
            (20,), (20,), (20,), (k,)]


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
    chart = surface.chart(_zero_sum(u))
    # parameter j moves u[j] and the pivot u[3] = -sum t: its tangent in x has
    # T[j, j] = tc = dx_j/du_j and T[3, j] = -dx_3/du_3 = -1/nu_3
    assert np.array_equal(chart.c, [[0, 1, 2], [0, 1, 2]])
    assert np.array_equal(chart.k, [3, 3])
    nu = chart.nu0
    T = np.zeros((2, 4, 3))
    j = np.arange(3)
    T[:, j, j] = chart.tc
    T[:, 3, :] = -1.0 / chart.moved0[1]
    h = 1e-5
    for j in range(3):
        e = np.eye(3)[j] * h
        x = [surface.in_u(_zero_sum(u + s * e)) for s in (1.0, -1.0)]
        fd = (x[0] - x[1]) / (2 * h)
        assert np.max(np.abs(T[:, :, j] - fd)) <= 1e-8
    # the tangents are orthogonal to the defining gradient
    assert np.max(np.abs(np.einsum("nd,ndj->nj", nu, T))) <= 1e-14


@pytest.mark.parametrize("m", (1, 2, 3))
def test_65_u_chart_has_unit_pivot_rate_and_inverse_slope_tangents(m):
    # the chart in u has speeds du_i/dx_i = nu_i, so g = nu/nu is exactly 1:
    # the pivot rate is exactly -1 and tc bitwise 1/nu0
    surface = example_surface("6.5", m)
    chart = surface.chart(surface.sample_u(counter_rng(9), 40))
    assert np.array_equal(chart.k, [3] * 40)
    assert np.all(chart.rate == -1.0)
    assert chart.tc.tobytes() == (1.0 / chart.nu0[:, :3]).tobytes()


def test_x_chart_rate_keeps_the_bits_of_the_slope_ratio():
    surface = example_surface("6.4", 2, r=3)
    chart = SeparableChart(surface.fs, surface.p, surface.sample(counter_rng(6), 20))
    assert chart.rate.tobytes() == (-chart.moved0[0] / chart.moved0[1]).tobytes()
    assert np.all(chart.tc == 1.0)


def test_65_u_chart_agrees_with_the_x_chart():
    # report_sample and sample draw the same rows from the same seed
    surface = example_surface("6.5", 2)
    reports = surface.report_sample(counter_rng(8), 12)
    points = surface.sample(counter_rng(8), 12)
    ref = report_separable_batch(surface.fs, points, surface.p)
    assert len(reports) == len(ref) == 12
    for r, q in zip(reports, ref):
        assert r.h_analytic == pytest.approx(q.h_analytic, abs=1e-15)
        assert r.h_oracle == pytest.approx(q.h_oracle, abs=1e-9)
        assert r.tangency_defect <= 1e-9 and q.tangency_defect <= 1e-9


# ---------------------------------------------------------------------------
# oracle-compare: one batch per (kind, m, n) against one report per configuration
# ---------------------------------------------------------------------------


def _command_reports(argv, monkeypatch, capsys):
    """The CurvatureReport stack a run of the command renders, in row order."""
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
    """oracle-compare --kind both drawn as it draws (per kind: every m, every
    n, then one stacked draw per n in ascending order), each configuration
    taken as its own row of its stack and reported by the single-point
    report_translation / report_separable."""
    rng = counter_rng(seed)
    reports = []
    for draw, report in ((random_translation_draws, mm.report_translation),
                         (random_separable_draws, mm.report_separable)):
        ms = rng.integers(1, 4, points).tolist()
        ns = (rng.integers(2, 5, points).tolist() if n_fixed is None
              else [n_fixed] * points)
        stacks = {n: draw(rng, n, ns.count(n)) for n in sorted(set(ns))}
        for k, (m, n) in enumerate(zip(ms, ns)):
            at, derivs = stacks[n]
            i = ns[:k].count(n)  # the configuration's row in its stack
            fs = taylor_profiles(at[i], derivs[:, i])
            reports.append(report(fs, at[i], mm.NormParams(m, n + 1), tol=1e-6))
    return reports


def _comparison_bits(r):
    return (np.float64(r.h_analytic).tobytes(), np.float64(r.h_oracle).tobytes(),
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
        assert _comparison_bits(g) == _comparison_bits(w)


def test_oracle_compare_batches_longer_than_a_chunk(monkeypatch, capsys):
    # a group of configurations is split into calls of at most one chunk of
    # report_separable_batch, whose charts take the stacked profiles whole
    argv = ["oracle-compare", "--kind", "both", "--points", "30", "--seed", "3"]
    whole = [_comparison_bits(r) for r in _command_reports(argv, monkeypatch, capsys)]
    monkeypatch.setattr(curvature, "_CHUNK_POINTS", 2)
    chunked = [_comparison_bits(r)
               for r in _command_reports(argv, monkeypatch, capsys)]
    assert chunked == whole


@pytest.mark.parametrize("n", (None, 3))
def test_oracle_compare_translation_half_of_both_is_the_translation_run(
        n, monkeypatch, capsys):
    # --kind both draws its translation configurations first, from the same
    # stream as --kind translation
    argv = ["oracle-compare", "--points", "25", "--seed", "11"] + (
        [] if n is None else ["--n", str(n)])
    both = _command_reports(argv + ["--kind", "both"], monkeypatch, capsys)
    alone = _command_reports(argv + ["--kind", "translation"], monkeypatch, capsys)
    assert len(both) == 2 * len(alone) == 50
    assert ([_comparison_bits(r) for r in both][:25]
            == [_comparison_bits(r) for r in alone])


def test_translation_batch_rows_equal_single_points():
    rng = counter_rng(19)
    U = rng.uniform(-1.0, 1.0, (5, 3))
    derivs = rng.uniform(0.3, 1.5, (4, 5, 3))
    p = mm.NormParams(2, 4)
    fs = taylor_profiles(U, derivs)
    batch = mm.report_translation_batch(fs, U, p)
    for i, got in enumerate(batch):
        row = taylor_profiles(U[i], derivs[:, i])
        assert _comparison_bits(got) == _comparison_bits(
            mm.report_translation(row, U[i], p))
        assert got.h_analytic == mm.mean_curvature_translation(row, U[i], p)


def _shared_profile_points(kind, n, count, rng):
    """(batch function, profiles, points) of count points of one random
    surface of the kind, whose profiles every point shares, so that a batch
    may span chunks: the Taylor profiles of one draw about points near it; a
    separable surface's last profile is the linear part of its draw, which
    puts each point on the surface by one division."""
    if kind == "translation":
        at, derivs = random_translation_draws(rng, n)
        U = at + rng.uniform(-0.05, 0.05, (count, n))
        return mm.report_translation_batch, taylor_profiles(at, derivs), U
    at, derivs = random_separable_draws(rng, n)
    fs = taylor_profiles(at[:n], derivs[:, :n])
    f0, slope = derivs[0, n], derivs[1, n]
    x = at[:n] + rng.uniform(-0.05, 0.05, (count, n))
    rest = sum(f(x[:, i]) for i, f in enumerate(fs))
    last = at[n] + (-rest - f0) / slope
    fs += (C3Function.linear(slope, f0 - slope * at[n]),)
    return mm.report_separable_batch, fs, np.column_stack([x, last])


@pytest.mark.parametrize("kind", ("translation", "separable"))
@pytest.mark.parametrize("n", (2, 3, 4))
def test_mixed_m_batch_equals_the_single_m_batches_of_its_rows(kind, n, monkeypatch):
    # runs of equal m in no order, m = 2 twice; chunks of 4 rows split the
    # runs [0, 5), [5, 9) and [9, 15) inside
    ms = np.repeat([2, 1, 3, 2], [5, 4, 6, 3])
    batch, fs, points = _shared_profile_points(kind, n, len(ms), counter_rng(40 + n))
    monkeypatch.setattr(curvature, "_CHUNK_POINTS", 4)
    mixed = batch(fs, points, mm.NormParams(1, n + 1), ms=ms)
    for start, stop in ((0, 5), (5, 9), (9, 15), (15, 18)):
        alone = batch(fs, points[start:stop], mm.NormParams(int(ms[start]), n + 1))
        for i, want in enumerate(alone):
            assert _comparison_bits(mixed[start + i]) == _comparison_bits(want)


def test_m_column_must_match_the_points():
    surface = example_surface("6.1", 2)
    points = surface.sample(counter_rng(3), 4)
    with pytest.raises(DimensionMismatchError, match="an m for each of 4 points"):
        report_separable_batch(surface.fs, points, surface.p, ms=[2, 2, 2])


def test_oracle_compare_builds_one_chart_per_kind_and_n(monkeypatch, capsys):
    charts = []
    real = SeparableChart.__init__

    def counting(self, fs, p, base_points):
        charts.append(len(base_points))
        assert isinstance(fs, TaylorColumns) and len(fs.x0) == len(base_points)
        real(self, fs, p, base_points)

    monkeypatch.setattr(SeparableChart, "__init__", counting)
    reports = _command_reports(["oracle-compare", "--points", "40", "--seed", "1"],
                               monkeypatch, capsys)
    # 2 kinds x n = 2, 3, 4, each chart over every m of its rows, its profiles
    # one table stacked by row
    assert len(charts) == 6 and sum(charts) == len(reports) == 80


@pytest.mark.parametrize("kind", ("translation", "separable"))
def test_row_stacked_batch_longer_than_a_chunk_is_its_chunks(kind):
    # 5,000 rows of profiles of their own: each chunk takes its own rows of
    # the table, so the batch is its 4,096- and 904-row batches end to end
    draw, batch = ((random_translation_draws, mm.report_translation_batch)
                   if kind == "translation"
                   else (random_separable_draws, mm.report_separable_batch))
    at, derivs = draw(counter_rng(23), 3, 5000)
    p = mm.NormParams(2, 4)
    whole = batch(taylor_profiles(at, derivs), at, p)
    parts = [batch(taylor_profiles(at[s], derivs[:, s]), at[s], p)
             for s in (slice(0, curvature._CHUNK_POINTS),
                       slice(curvature._CHUNK_POINTS, None))]
    for field in ("h_analytic", "h_oracle", "tangency_defect"):
        assert np.array_equal(getattr(whole, field),
                              np.concatenate([getattr(r, field) for r in parts]))
