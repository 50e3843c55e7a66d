import numpy as np
import pytest
from conftest import (
    classical_graph_mean_curvature,
    fd_derivative_error,
    fd_weingarten,
    translation_chart,
)

import minmin as mm
from minmin.curvature import failed_checks
from minmin.errors import OffSurfaceError, SingularConfigurationError
from minmin.functions import C3Function
from minmin.sampling import random_separable_config, random_translation_config


# ---------------------------------------------------------------------------
# translation: Weingarten and mean curvature
# ---------------------------------------------------------------------------


def test_weingarten_translation_flat_for_linear_profiles():
    for m in (1, 2):
        p = mm.NormParams(m, 3)
        fs = (C3Function.linear(0.7), C3Function.linear(-1.2))
        W = mm.weingarten_translation(fs, [0.4, -0.9], p)
        assert np.allclose(W.entries, 0.0)
        assert mm.mean_curvature_translation(fs, [0.4, -0.9], p) == 0.0


def test_weingarten_translation_euclidean_paraboloid():
    # f = u1^2/2 + u2^2/2 at (1,1), m = 1: entries equal -(E^-1 L) = Euclidean
    # shape-operator matrix with a global sign flip
    p = mm.NormParams(1, 3)
    fs = (C3Function.polynomial([0, 0, 0.5]), C3Function.polynomial([0, 0, 0.5]))
    u = np.array([1.0, 1.0])
    W = mm.weingarten_translation(fs, u, p).entries
    g = np.array([1.0, 1.0])
    E = np.eye(2) + np.outer(g, g)
    L = np.eye(2) / np.sqrt(3.0)
    expected = -np.linalg.solve(E, L)
    assert np.allclose(W, expected, atol=1e-14)
    s3 = 3.0 ** -1.5
    assert np.allclose(W, [[-2 * s3, s3], [s3, -2 * s3]], atol=1e-14)


def test_weingarten_translation_matches_normal_differencing():
    rng = np.random.default_rng(21)
    for m in (1, 2, 3):
        for n in (2, 3):
            fs, u, p = random_translation_config(rng, m, n)
            W = mm.weingarten_translation(fs, u, p).entries
            Wfd, defect = fd_weingarten(translation_chart(fs, p, u), p)
            assert np.max(np.abs(W - Wfd)) <= 1e-8
            assert defect <= 1e-8


def test_trace_identity_translation():
    rng = np.random.default_rng(22)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        fs, u, p = random_translation_config(rng, m, n)
        W = mm.weingarten_translation(fs, u, p)
        H = mm.mean_curvature_translation(fs, u, p)
        assert W.mean_curvature == pytest.approx(H, rel=1e-13, abs=1e-15)


def test_cubic_profiles_trace_identity():
    p = mm.NormParams(2, 4)
    fs = tuple(C3Function.polynomial([0, 0, 0, 1.0 / 3.0]) for _ in range(3))
    u = np.array([1.0, 1.0, 1.0])
    W = mm.weingarten_translation(fs, u, p)
    H = mm.mean_curvature_translation(fs, u, p)
    assert W.mean_curvature == pytest.approx(H, rel=1e-14)


def test_mean_curvature_scherk_vanishes():
    p = mm.NormParams(1, 3)
    fs = (C3Function.neg_log_cos(), C3Function.neg_log_cos().scaled(-1.0))
    for u in ([0.3, 0.4], [0.0, 0.0], [-1.1, 0.9]):
        assert abs(mm.mean_curvature_translation(fs, u, p)) <= 1e-10


def test_mean_curvature_paraboloid_value_and_oracle():
    # n = 2, m = 2, f_i = t^2/2 at (1, 1): frozen closed-form value and the
    # finite-difference oracle agree
    p = mm.NormParams(2, 3)
    fs = (C3Function.polynomial([0, 0, 0.5]), C3Function.polynomial([0, 0, 0.5]))
    u = np.array([1.0, 1.0])
    H = mm.mean_curvature_translation(fs, u, p)
    A = 3.0  # 1 + 1^(4/3) + 1^(4/3)
    expected = -(A ** (-5.0 / 4.0)) / (2 * 3) * (1.0 * (A - 1) + 1.0 * (A - 1))
    assert H == pytest.approx(expected, rel=1e-14)
    chart = translation_chart(fs, p, u)
    (h_oracle,), (defect,) = mm.mean_curvature_oracle(chart, p)
    assert abs(H - h_oracle) <= 1e-8
    assert defect <= 1e-8


def test_singular_slope_raises_for_m_ge_2_only():
    fs = (C3Function.polynomial([0, 0, 0.5]), C3Function.linear(1.0))
    u = np.array([0.0, 0.3])  # first slope vanishes at 0
    with pytest.raises(SingularConfigurationError):
        mm.mean_curvature_translation(fs, u, mm.NormParams(2, 3))
    with pytest.raises(SingularConfigurationError):
        mm.weingarten_translation(fs, u, mm.NormParams(2, 3))
    # at m = 1 the formula is polynomial in the slopes and evaluates fine
    H = mm.mean_curvature_translation(fs, u, mm.NormParams(1, 3))
    assert np.isfinite(H)


def test_euclidean_reduction_sign_fixed_once():
    # fix the global sign on f = u1^2/2 and check random graphs against the
    # classical first/second fundamental form value
    p = mm.NormParams(1, 3)
    fs0 = (C3Function.polynomial([0, 0, 0.5]), C3Function.polynomial([0.0]))
    u0 = np.array([0.4, -0.2])
    h_lib = mm.mean_curvature_translation(fs0, u0, p)
    h_classical = classical_graph_mean_curvature(
        [f.d1(t) for f, t in zip(fs0, u0)], [f.d2(t) for f, t in zip(fs0, u0)]
    )
    sign = h_lib / h_classical
    assert sign == pytest.approx(-1.0, rel=1e-12)
    rng = np.random.default_rng(23)
    for _ in range(100):
        n = int(rng.integers(2, 5))
        fs, u, pp = random_translation_config(rng, 1, n)
        d1 = [f.d1(t) for f, t in zip(fs, u)]
        d2 = [f.d2(t) for f, t in zip(fs, u)]
        h = mm.mean_curvature_translation(fs, u, pp)
        hc = classical_graph_mean_curvature(d1, d2)
        assert abs(h - sign * hc) <= 1e-9 * (1 + abs(h))


# ---------------------------------------------------------------------------
# separable: Weingarten and mean curvature
# ---------------------------------------------------------------------------


def test_separable_hyperplane_is_flat():
    p = mm.NormParams(2, 4)
    a = np.array([0.7, -1.1, 0.5, 0.9])
    x = np.array([1.0, 1.0, 1.0, -(a[0] + a[1] + a[2]) / a[3]])
    fs = tuple(C3Function.linear(ai) for ai in a)
    assert mm.mean_curvature_separable(fs, x, p) == 0.0
    W = mm.weingarten_separable(fs, x, p)
    assert np.allclose(W.entries, 0.0)


def test_separable_power_surface_point():
    # x1^2 + x2^2 - x3^2 - x4^2 = 0 at (1,1,1,1) is minimal
    s = mm.example_surface("6.2", m=1, r=2)
    x = np.array([1.0, 1.0, 1.0, 1.0])
    assert abs(mm.mean_curvature_separable(s.fs, x, s.p)) <= 1e-10
    W = mm.weingarten_separable(s.fs, x, s.p)
    assert abs(np.trace(W.entries)) <= 1e-10


def test_separable_sphere_m1_curvature_is_one():
    # unit sphere as a separable surface at m = 1: H = +1 with the outward
    # orientation, and the oracle agrees
    p = mm.NormParams(1, 3)
    fs = (
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([-1.0, 0, 1.0]),
    )
    x = np.array([0.3, 0.4, np.sqrt(1 - 0.09 - 0.16)])
    H = mm.mean_curvature_separable(fs, x, p)
    assert H == pytest.approx(1.0, rel=1e-12)
    rep = mm.report_separable(fs, x, p, tol=1e-6)
    assert rep.passed
    assert rep.h_oracle == pytest.approx(1.0, abs=1e-7)


def test_weingarten_separable_matches_normal_differencing():
    rng = np.random.default_rng(24)
    for m in (1, 2, 3):
        for n in (2, 3):
            fs, x, p = random_separable_config(rng, m, n)
            W = mm.weingarten_separable(fs, x, p).entries
            Wfd, defect = fd_weingarten(mm.SeparableChart(fs, p, x[None]), p)
            assert np.max(np.abs(W - Wfd)) <= 1e-8
            assert defect <= 1e-8


def test_trace_identity_separable():
    rng = np.random.default_rng(25)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        fs, x, p = random_separable_config(rng, m, n)
        W = mm.weingarten_separable(fs, x, p)
        H = mm.mean_curvature_separable(fs, x, p)
        assert W.mean_curvature == pytest.approx(H, rel=1e-13, abs=1e-15)


def test_separable_scaling_invariance():
    rng = np.random.default_rng(26)
    for _ in range(20):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 4))
        fs, x, p = random_separable_config(rng, m, n)
        lam = float(rng.uniform(0.2, 5.0))
        fs_scaled = tuple(f.scaled(lam) for f in fs)
        W = mm.weingarten_separable(fs, x, p).entries
        W2 = mm.weingarten_separable(fs_scaled, x, p).entries
        assert np.max(np.abs(W - W2)) <= 1e-9 * (1 + np.max(np.abs(W)))
        H = mm.mean_curvature_separable(fs, x, p)
        H2 = mm.mean_curvature_separable(fs_scaled, x, p)
        assert H2 == pytest.approx(H, rel=1e-9, abs=1e-12)


def test_off_surface_rejected():
    s = mm.example_surface("6.2", m=1, r=2)
    with pytest.raises(OffSurfaceError):
        mm.mean_curvature_separable(s.fs, [1.0, 1.0, 1.0, 1.5], s.p)


def test_on_surface_bound_is_relative_to_the_largest_term():
    # x1^2 + x2^2 - x3^2 - x4^2: the bound is 1e-6 max(1, max_i |f_i(x_i)|)
    s = mm.example_surface("6.2", m=1, r=2)
    big = np.sqrt(1e6 + 1e-3)  # terms 1e6, the sum about 1e-3: 1e-9 relative
    assert np.isfinite(mm.mean_curvature_separable(s.fs, [1e3, 1.0, big, 1.0], s.p))
    with pytest.raises(OffSurfaceError, match=r"exceeds tolerance 1\.000e\+00"):
        mm.mean_curvature_separable(s.fs, [1e3, 1.0, np.sqrt(1e6 - 2.0), 1.0], s.p)
    # every term at most 1: the absolute 1e-6 of before
    with pytest.raises(OffSurfaceError, match=r"exceeds tolerance 1\.000e-06"):
        mm.mean_curvature_separable(s.fs, [0.5, 0.5, 0.5, np.sqrt(0.25 - 3e-6)], s.p)


def test_separable_chart_slope_guard():
    p = mm.NormParams(1, 3)
    fs = (
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([-1.0, 0, 1.0]),
    )
    x = np.array([0.6, 0.8, 0.0])  # on surface, but f_3'(0) = 0
    with pytest.raises(SingularConfigurationError):
        mm.mean_curvature_separable(fs, x, p)


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_hyperplane():
    # x4 = 0.5 x1 - 0.3 x2 + 0.9 x3
    p = mm.NormParams(2, 4)
    fs = tuple(C3Function.linear(a) for a in (-0.5, 0.3, -0.9, 1.0))
    t = np.array([0.1, 0.2, -0.4])
    x = np.append(t, 0.5 * t[0] - 0.3 * t[1] + 0.9 * t[2])
    chart = mm.SeparableChart(fs, p, x[None])
    (h,), (defect,) = mm.mean_curvature_oracle(chart, p)
    assert abs(h) <= 1e-10
    assert defect <= 1e-10


def test_oracle_hemisphere_unit_curvature():
    # upper unit hemisphere x^2 + y^2 + z^2 - 1 = 0, z > 0, at m = 1: |H| = 1
    # (equals +1 with the upward orientation, where the normal is the position
    # vector)
    p = mm.NormParams(1, 3)
    fs = (
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([0, 0, 1.0]),
        C3Function.polynomial([-1.0, 0, 1.0]),
    )
    chart = mm.SeparableChart(fs, p, [[0.1, 0.2, np.sqrt(1.0 - 0.01 - 0.04)]])
    (h,), (defect,) = mm.mean_curvature_oracle(chart, p)
    assert abs(abs(h) - 1.0) <= 2e-4
    assert h == pytest.approx(1.0, abs=2e-4)
    assert defect <= 1e-6


def test_oracle_matches_translation_closed_form():
    p = mm.NormParams(2, 4)
    fs = tuple(C3Function.polynomial([0, 0, 0, 1.0 / 3.0]) for _ in range(3))
    u = np.array([1.1, 0.7, 1.4])
    H = mm.mean_curvature_translation(fs, u, p)
    chart = translation_chart(fs, p, u)
    (h,), (defect,) = mm.mean_curvature_oracle(chart, p)
    assert abs(H - h) <= 1e-6 * (1 + abs(H))
    assert defect <= 1e-6


def test_oracle_agreement_random_batches():
    rng = np.random.default_rng(27)
    for _ in range(40):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        fs, u, p = random_translation_config(rng, m, n)
        rep = mm.report_translation(fs, u, p, tol=1e-6)
        assert rep.passed, (m, n, rep.h_analytic, rep.h_oracle, rep.tangency_defect)
        fs, x, p = random_separable_config(rng, m, n)
        rep = mm.report_separable(fs, x, p, tol=1e-6)
        assert rep.passed, (m, n, rep.h_analytic, rep.h_oracle, rep.tangency_defect)


# h_analytic, h_oracle, tangency_defect, then the reason at tol = 1e-6 without
# an |H| bound and with h_tol = 1e-8
_VERDICT_CASES = [
    (1.0, 1.0 + 1.5e-6, 0.0, "-", "h"),  # |dH| = 1.5e-6 <= tol * (1 + |H|) = 2e-6
    (1.0, 1.0 + 3e-6, 0.0, "oracle", "h"),
    (1.0, 1.0, 2e-6, "defect", "h"),
    (1e-9, 1e-9, 0.0, "-", "-"),
    (1e-9, 1e-9, 2e-6, "defect", "defect"),
    (1e-9, 3e-6, 2e-6, "oracle", "oracle"),
    # every bound is inclusive
    (0.0, 1e-6, 1e-6, "-", "-"),
    (1e-8, 1e-8, 0.0, "-", "-"),
    # a NaN fails the check it enters
    (np.nan, 0.0, 0.0, "oracle", "h"),
    (0.0, np.nan, 0.0, "oracle", "oracle"),
    (0.0, 0.0, np.nan, "defect", "defect"),
]


def test_curvature_report_verdict_rule():
    h, h_oracle, defect, want, want_h = zip(*_VERDICT_CASES)
    stack = mm.CurvatureReport(
        h_analytic=np.array(h), h_oracle=np.array(h_oracle),
        tangency_defect=np.array(defect), tol=1e-6,
    )
    assert len(stack) == len(_VERDICT_CASES)
    # one rule for a stack and for each of its points
    assert failed_checks(stack, 1e-6).tolist() == list(want)
    assert failed_checks(stack, 1e-6, h_tol=1e-8).tolist() == list(want_h)
    assert stack.passed.tolist() == [w == "-" for w in want]
    for rep, w, w_h in zip(stack, want, want_h):
        reason = failed_checks(rep, 1e-6)
        assert isinstance(reason, str) and reason == w
        assert failed_checks(rep, 1e-6, h_tol=1e-8) == w_h
        assert rep.passed == (w == "-")


def test_c3_instances_validate_against_finite_differences():
    rng = np.random.default_rng(28)
    fs, u, _ = random_translation_config(rng, 2, 3)
    for f, t in zip(fs, u):
        assert fd_derivative_error(f, [t - 0.1, t, t + 0.1]) <= 1e-5
