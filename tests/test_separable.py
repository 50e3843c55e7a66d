import warnings

import numpy as np
import pytest
from conftest import fd_derivative_error

import minmin as mm
from minmin.curvature import separable_residual_sum
from minmin import separable
from minmin.errors import (
    ConstraintViolationError,
    DimensionMismatchError,
    DomainError,
    EmptyDomainError,
    NonpositiveProfileError,
)
from minmin.meshes import write_points_csv
from minmin.reporting import RunStats
from minmin.separable import (
    _QuadratureProfile,
    _x_antiderivative,
    _x_coordinates,
    composite_simpson,
    perturbed_example_surface,
    quadratic_case_verdict,
    sweep_quadratic_system,
)


def reference_affine_coeffs(p, q):
    """Hand-coded affine coefficient system for n = 3 or n = 4."""
    p = np.asarray(p, float)
    q = np.asarray(q, float)
    n = len(p) - 1
    total_p = p.sum()
    c0 = sum(q[j] * (total_p - p[j]) for j in range(n + 1))
    lin = []
    for l in range(n):
        others = sum(q[j] for j in range(n + 1) if j not in (l, n))
        lin.append(others * (q[l] - q[n]))
    return np.array([c0] + lin)


def reference_quadratic_coeffs(p, q, r):
    """Hand-coded quadratic-case coefficient expressions (14 entries)."""
    p1, p2, p3, p4 = p
    q1, q2, q3, q4 = q
    r1, r2, r3, r4 = r
    return np.array([
        q1 * (p2 + p3 + p4) + q2 * (p1 + p3 + p4) + q3 * (p1 + p2 + p4)
        + q4 * (p1 + p2 + p3),
        (q2 + q3) * (q1 - q4) + 2 * r1 * (p2 + p3 + p4) - 2 * r4 * (p1 + p2 + p3),
        (q1 + q3) * (q2 - q4) + 2 * r2 * (p1 + p3 + p4) - 2 * r4 * (p1 + p2 + p3),
        (q1 + q2) * (q3 - q4) + 2 * r3 * (p1 + p2 + p4) - 2 * r4 * (p1 + p2 + p3),
        (q2 + q3) * (r1 + r4) - q1 * r4 - q4 * r1,
        (q1 + q3) * (r2 + r4) - q2 * r4 - q4 * r2,
        (q1 + q2) * (r3 + r4) - q3 * r4 - q4 * r3,
        (q2 - q4) * r1 + (q1 - q4) * r2 + q3 * r4,
        (q3 - q4) * r1 + (q1 - q4) * r3 + q2 * r4,
        (q3 - q4) * r2 + (q2 - q4) * r3 + q1 * r4,
        r1 * r2 + r1 * r4 + r2 * r4,
        r1 * r3 + r1 * r4 + r3 * r4,
        r2 * r3 + r2 * r4 + r3 * r4,
        r4 * (r1 + r2 + r3),
    ])


def reference_exponential_coeffs(q, r):
    q1, q2, q3, q4 = q
    r1, r2, r3, r4 = r
    return np.array([
        2 * (q1 * q2 - r3 * r4),
        2 * (q3 * q4 - r1 * r2),
        2 * (q1 * q3 - r2 * r4),
        2 * (q2 * q4 - r1 * r3),
        2 * (q2 * q3 - r1 * r4),
        2 * (q1 * q4 - r2 * r3),
    ])


def random_zero_sum(rng, n, scale=0.4):
    u = rng.uniform(-scale, scale, n)
    return np.append(u, -u.sum())


# ---------------------------------------------------------------------------
# identity residual
# ---------------------------------------------------------------------------


def test_identity_residual_constant_profiles():
    xs = [mm.XProfile.affine(1.3, 0.0) for _ in range(4)]
    u = np.array([0.2, -0.1, 0.4, -0.5])
    assert mm.minimality_identity_residual(xs, u) == 0.0


def test_identity_residual_hyperbolic_profiles():
    xs, _ = mm.example_xprofiles("6.5")
    assert abs(
        mm.minimality_identity_residual(xs, [0.1, -0.2, 0.3, -0.2])
    ) <= 1e-10


def test_identity_residual_affine_minimal_data():
    xs, _ = mm.example_xprofiles("6.1")
    rng = np.random.default_rng(41)
    for _ in range(20):
        u = random_zero_sum(rng, 3)
        if any(x.value(v) <= 0 for x, v in zip(xs, u)):
            continue
        assert abs(mm.minimality_identity_residual(xs, u)) <= 1e-10


def test_identity_residual_validation():
    xs = [mm.XProfile.affine(1.0, 1.0) for _ in range(4)]
    with pytest.raises(ConstraintViolationError):
        mm.minimality_identity_residual(xs, [0.3, 0.3, 0.3, 0.3])
    with pytest.raises(NonpositiveProfileError):
        mm.minimality_identity_residual(xs, [-2.0, 0.5, 0.5, 1.0])


# ---------------------------------------------------------------------------
# ansatz extraction
# ---------------------------------------------------------------------------


def test_affine_system_minimal_data_is_zero():
    sys_ = mm.extract_affine_system(3, [1, 1, 1, 1], [1, -1, -1, 1])
    assert sys_.max_abs() == 0.0


def test_affine_system_equal_q_zero_sum_p():
    rng = np.random.default_rng(42)
    q0 = 1.3
    p = rng.uniform(-1, 1, 4)
    p[3] = -p[:3].sum()
    sys_ = mm.extract_affine_system(3, p, [q0] * 4)
    assert sys_.max_abs() <= 1e-14


def test_affine_system_n4_minimal_data_is_zero():
    sys_ = mm.extract_affine_system(4, [1, 1, 3, 3, 1], [1, 1, -2, -2, 1])
    assert sys_.max_abs() == 0.0


@pytest.mark.parametrize("n", (3, 4))
def test_affine_system_matches_displayed_form(n):
    rng = np.random.default_rng(43 + n)
    for _ in range(50):
        p = rng.uniform(-2, 2, n + 1)
        q = rng.uniform(0.2, 2.0, n + 1) * rng.choice([-1.0, 1.0], n + 1)
        got = np.array(list(mm.extract_affine_system(n, p, q).coefficients.values()))
        want = reference_affine_coeffs(p, q)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("n", (-1, 0, 1))
def test_affine_system_needs_three_profiles(n):
    # n + 1 profiles: NormParams, and so every surface, needs n >= 2
    with pytest.raises(DimensionMismatchError, match="n >= 2"):
        mm.extract_affine_system(n, [1.0] * (n + 1), [1.0] * (n + 1))


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("extract, args", [
    pytest.param(mm.extract_affine_system, (3, [_NAN, 1, 1, 1], [1, -1, -1, 1]),
                 id="affine-nan-p"),
    pytest.param(mm.extract_affine_system, (3, [1, 1, 1, 1], [1, -1, _INF, 1]),
                 id="affine-inf-q"),
    pytest.param(mm.extract_quadratic_system,
                 ([1] * 4, [1, -1, -1, 1], [0, 0, _NAN, 0]), id="quadratic-nan-r"),
    pytest.param(mm.extract_exponential_system, ([1, _NAN, 1, 1], [1] * 4),
                 id="exponential-nan-q"),
    # finite parameters whose scale max(1, |v|)^2 or terms overflow: the drop
    # rule abs(v) > 1e-13 * scale would drop every term
    pytest.param(mm.extract_affine_system, (3, [1e308, 1, 1, 1], [1, -1, -1, 1]),
                 id="affine-scale-overflows"),
    pytest.param(mm.extract_quadratic_system, ([1] * 4, [1, -1, -1, 1], [1e200] * 4),
                 id="quadratic-scale-overflows"),
    pytest.param(mm.extract_exponential_system, ([1.3e154] * 4, [1.3e154] * 4),
                 id="exponential-terms-overflow"),
])
def test_ansatz_refuses_non_finite_parameters_and_terms(extract, args):
    with pytest.raises(DomainError, match="must be finite"):
        extract(*args)


def test_quadratic_system_degenerates_to_affine():
    rng = np.random.default_rng(45)
    p = rng.uniform(-2, 2, 4)
    q = rng.uniform(0.3, 2.0, 4)
    sys_q = mm.extract_quadratic_system(p, q, [0.0] * 4)
    sys_a = mm.extract_affine_system(3, p, q)
    for tag, value in sys_a.coefficients.items():
        assert sys_q.coefficients[tag] == pytest.approx(value, abs=1e-13)
    for tag, value in sys_q.coefficients.items():
        if tag not in sys_a.coefficients:
            assert value == 0.0


def test_quadratic_system_matches_displayed_form():
    rng = np.random.default_rng(46)
    for _ in range(50):
        p = rng.uniform(-2, 2, 4)
        q = rng.uniform(-2, 2, 4)
        r = rng.uniform(-2, 2, 4)
        got = np.array(
            list(mm.extract_quadratic_system(p, q, r).coefficients.values())
        )
        want = reference_quadratic_coeffs(p, q, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


def test_quadratic_cubic_block_tag():
    rng = np.random.default_rng(47)
    p = rng.uniform(-1, 1, 4)
    q = rng.uniform(-1, 1, 4)
    r = rng.uniform(-1, 1, 4)
    sys_ = mm.extract_quadratic_system(p, q, r)
    assert sys_.coefficients["u1*u2*u3"] == pytest.approx(
        r[3] * (r[0] + r[1] + r[2]), rel=1e-12, abs=1e-14
    )
    assert sys_.coefficients["u1^2*u2+u1*u2^2"] == pytest.approx(
        r[0] * r[1] + r[0] * r[3] + r[1] * r[3], rel=1e-12, abs=1e-14
    )


def test_exponential_system_examples():
    assert mm.extract_exponential_system([1, 1, 1, 1], [1, 1, 1, 1]).max_abs() == 0.0
    assert mm.extract_exponential_system([1, 0, 0, 1], [0, 1, 1, 0]).max_abs() == 0.0
    # with r = 0 every tag carries twice a q-product: all six equal 2
    sys_ = mm.extract_exponential_system([1, 1, 1, 1], [0, 0, 0, 0])
    assert list(sys_.coefficients.values()) == [2.0] * 6


def test_exponential_system_matches_displayed_form():
    rng = np.random.default_rng(48)
    for _ in range(50):
        q = rng.uniform(-2, 2, 4)
        r = rng.uniform(-2, 2, 4)
        got = np.array(list(mm.extract_exponential_system(q, r).coefficients.values()))
        want = reference_exponential_coeffs(q, r)
        assert np.max(np.abs(got - want)) <= 1e-12 * (1 + np.max(np.abs(want)))


@pytest.mark.parametrize("kind", ("affine", "quadratic", "exponential"))
def test_reconstruction_matches_direct_identity(kind):
    rng = np.random.default_rng(49)
    for _ in range(50):
        if kind == "affine":
            p = rng.uniform(0.5, 2.0, 4)
            q = rng.uniform(0.1, 0.6, 4) * rng.choice([-1.0, 1.0], 4)
            sys_ = mm.extract_affine_system(3, p, q)
            xs = [mm.XProfile.affine(pi, qi) for pi, qi in zip(p, q)]
        elif kind == "quadratic":
            p = rng.uniform(0.8, 2.0, 4)
            q = rng.uniform(-0.4, 0.4, 4)
            r = rng.uniform(-0.3, 0.3, 4)
            sys_ = mm.extract_quadratic_system(p, q, r)
            xs = [mm.XProfile.quadratic(*t) for t in zip(p, q, r)]
        else:
            q = rng.uniform(0.2, 1.5, 4)
            r = rng.uniform(0.2, 1.5, 4)
            sys_ = mm.extract_exponential_system(q, r)
            xs = [mm.XProfile.exponential(qi, ri) for qi, ri in zip(q, r)]
        u = random_zero_sum(rng, 3)
        if any(x.value(v) <= 0 for x, v in zip(xs, u)):
            continue
        direct = mm.minimality_identity_residual(xs, u)
        assert sys_.evaluate(u) == pytest.approx(direct, rel=1e-10, abs=1e-10)


# ---------------------------------------------------------------------------
# quadratic case: no admissible solutions
# ---------------------------------------------------------------------------


def test_quadratic_sweep_finds_no_admissible_solution():
    rng = np.random.default_rng(50)
    candidates = sweep_quadratic_system(rng, restarts=25, iters=60)
    assert candidates, "the sweep should at least converge to affine solutions"
    for p, q, r, res in candidates:
        assert res < 1e-10
        assert np.max(np.abs(r)) <= 1e-6, (p, q, r)
        admissible, _ = quadratic_case_verdict(p, q, r)
        assert not admissible


def test_quadratic_branch_verdicts():
    ok, reason = quadratic_case_verdict([1, 1, 1, 1], [1, -1, -1, 1], [0, 0, 0, 0])
    assert not ok and "affine" in reason
    ok, reason = quadratic_case_verdict([1, 1, 1, 1], [1, 1, 1, 1],
                                        [0.5, 0.0, 0.0, 0.0])
    assert not ok
    ok, reason = quadratic_case_verdict([1, 1, 1, 1], [1, 1, 1, 1],
                                        [0.3, -0.2, -0.1, 0.4])
    assert not ok


# ---------------------------------------------------------------------------
# admissible domains
# ---------------------------------------------------------------------------


def test_case_i1_domain_is_empty():
    rng = np.random.default_rng(51)
    for _ in range(50):
        q0 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        p = rng.uniform(-1.5, 1.5, 4)
        p[3] = -p[:3].sum()
        xs = [mm.XProfile.affine(pi, q0) for pi in p]
        assert not mm.admissible_domain(xs).feasible


def test_case_iii1_domain_is_empty():
    rng = np.random.default_rng(52)
    for _ in range(50):
        q0 = float(rng.uniform(0.2, 2.0) * rng.choice([-1.0, 1.0]))
        p = rng.uniform(-1.5, 1.5, 5)
        p[4] = -p[:4].sum()
        xs = [mm.XProfile.affine(pi, q0) for pi in p]
        assert not mm.admissible_domain(xs).feasible


def test_example_domains_are_feasible():
    for ex in ("6.1", "6.3", "6.5", "6.6"):
        xs, _ = mm.example_xprofiles(ex)
        assert mm.admissible_domain(xs).feasible


def test_positive_intervals():
    assert mm.XProfile.affine(1.0, 2.0).positive_interval() == (-0.5, np.inf)
    assert mm.XProfile.affine(1.0, -2.0).positive_interval() == (-np.inf, 0.5)
    assert mm.XProfile.affine(-1.0, 0.0).positive_interval() is None
    assert mm.XProfile.exponential(1.0, 1.0).positive_interval() == (
        -np.inf, np.inf
    )
    lo, hi = mm.XProfile.exponential(1.0, -4.0).positive_interval()
    assert lo == pytest.approx(0.5 * np.log(4.0))
    assert hi == np.inf
    assert mm.XProfile.exponential(-1.0, -1.0).positive_interval() is None
    assert mm.XProfile.quadratic(1.0, 0.0, 1.0).positive_interval() == (
        -np.inf, np.inf
    )
    lo, hi = mm.XProfile.quadratic(1.0, 0.0, -1.0).positive_interval()
    assert (lo, hi) == (pytest.approx(-1.0), pytest.approx(1.0))


# ---------------------------------------------------------------------------
# patches
# ---------------------------------------------------------------------------


def test_patch_quadrature_matches_affine_closed_form():
    xs, signs = mm.example_xprofiles("6.1")
    for m in (1, 2):
        p = mm.NormParams(m, 4)
        axes = mm.feasible_axes(xs, 6, span=0.7)
        patch = mm.patch_from_xprofiles(xs, signs, axes, p)
        # closed form: x_i = (2m/q_i) X_i(u_i)^(1/2m)
        qs = [x.params[1] for x in xs]
        for idx in np.ndindex(patch.us.shape[:-1]):
            u = patch.us[idx]
            x = patch.points[idx]
            for i in range(4):
                want = (2 * m / qs[i]) * xs[i].value(u[i]) ** (1.0 / (2 * m))
                assert x[i] == pytest.approx(want, abs=5e-9)


@pytest.mark.parametrize("m", (1, 2))
def test_patch_61_implicit_relation(m):
    xs, signs = mm.example_xprofiles("6.1")
    p = mm.NormParams(m, 4)
    patch = mm.patch_from_xprofiles(xs, signs, mm.feasible_axes(xs, 7, span=0.7), p)
    pts = patch.flat_points()
    rel = (
        pts[:, 0] ** (2 * m) - pts[:, 1] ** (2 * m)
        - pts[:, 2] ** (2 * m) + pts[:, 3] ** (2 * m)
    )
    assert np.max(np.abs(rel)) <= 1e-6


@pytest.mark.parametrize("m", (1, 2))
def test_patch_63_implicit_relation(m):
    xs, signs = mm.example_xprofiles("6.3")
    p = mm.NormParams(m, 5)
    patch = mm.patch_from_xprofiles(xs, signs, mm.feasible_axes(xs, 4, span=0.6), p)
    pts = patch.flat_points()
    k = 2 * m
    rel = (
        pts[:, 0] ** k + pts[:, 1] ** k
        - 2 ** (k - 1) * (pts[:, 2] ** k + pts[:, 3] ** k) + pts[:, 4] ** k
    )
    assert np.max(np.abs(rel)) <= 1e-6


@pytest.mark.parametrize("m", (1, 2))
def test_patch_66_ratio_relation(m):
    xs, signs = mm.example_xprofiles("6.6")
    p = mm.NormParams(m, 4)
    axes = [np.linspace(-0.6, 0.6, 5)] * 3
    patch = mm.patch_from_xprofiles(xs, signs, axes, p)
    pts = patch.flat_points()
    ratio = pts[:, 1] * pts[:, 2] / (pts[:, 0] * pts[:, 3])
    assert np.max(np.abs(np.abs(ratio) - 1.0)) <= 1e-6


def test_patch_zero_sum_and_csv(tmp_path):
    xs, signs = mm.example_xprofiles("6.1")
    p = mm.NormParams(1, 4)
    patch = mm.patch_from_xprofiles(xs, signs, mm.feasible_axes(xs, 4, span=0.5), p)
    assert np.max(np.abs(patch.us.sum(axis=-1))) <= 1e-12
    out = tmp_path / "patch.csv"
    patch.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u1,u2,u3,u4,x1,x2,x3,x4"
    assert len(lines) == 1 + 4 ** 3


def test_patch_csv_bytes_match_per_value_formatting(tmp_path):
    xs, signs = mm.example_xprofiles("6.5")
    patch = mm.patch_from_xprofiles(xs, signs, mm.feasible_axes(xs, 5),
                                    mm.NormParams(2, 4))
    out = tmp_path / "patch.csv"
    patch.write_csv(out)
    want = "u1,u2,u3,u4,x1,x2,x3,x4\n" + "".join(
        ",".join(f"{v:.17g}" for v in list(uu) + list(xx)) + "\n"
        for uu, xx in zip(patch.us.reshape(-1, 4), patch.flat_points()))
    assert out.read_bytes() == want.encode()


def test_points_csv_formats_special_values_like_one_value_at_a_time(tmp_path):
    rows = np.array([[-0.0, np.inf, np.nan], [3.0, 5e-324, -1e300],
                     [0.1, -2.5e-17, 123456789.125]])
    out = tmp_path / "p.csv"
    write_points_csv(out, ["a", "b", "c"], list(rows.T))
    want = "a,b,c\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n"
                                for row in rows)
    assert out.read_text() == want
    write_points_csv(out, ["a"], [np.empty(0)])
    assert out.read_text() == "a\n"


def test_patch_empty_domain_raises():
    p = np.array([0.5, 0.25, 0.25, -1.0])
    xs = [mm.XProfile.affine(pi, 1.0) for pi in p]
    with pytest.raises(EmptyDomainError):
        mm.feasible_axes(xs, 5)
    with pytest.raises(EmptyDomainError):
        mm.patch_from_xprofiles(xs, (1, 1, 1, 1), [np.linspace(0, 1, 3)] * 3,
                                mm.NormParams(1, 4))


def test_patch_coordinate_that_overflows_is_domain_error():
    # X_1(0) = 1e-320 is positive, but its X^-gamma at m = 100 overflows, and
    # so does the quadrature of x_1 over the axis
    xs = [mm.XProfile.quadratic(1e-320, 1.0, 1.0)] + [mm.XProfile.affine(1.0, 0.0)] * 3
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="coordinate of the patch overflows a float"):
            mm.patch_from_xprofiles(xs, (1, 1, 1, 1), [np.array([0.0, 0.5])] * 3,
                                    mm.NormParams(100, 4))


@pytest.mark.parametrize("signs", ((2, 0, 1, 1), (1, -1, 1, 0.5)))
def test_patch_refuses_signs_other_than_plus_minus_one(signs):
    xs, _ = mm.example_xprofiles("6.1")
    axes = mm.feasible_axes(xs, 3)
    with pytest.raises(DomainError, match="signs must be"):
        mm.patch_from_xprofiles(xs, signs, axes, mm.NormParams(1, 4))


@pytest.mark.parametrize("ex,dim,span", (("6.1", 4, 0.7), ("6.3", 5, 1.0)))
def test_patch_matches_closed_form_antiderivative(ex, dim, span):
    # x_i(u) - x_i(u0) is the closed-form antiderivative difference, and the
    # patch anchors x_i(u0) at the antiderivative itself
    xs, signs = mm.example_xprofiles(ex)
    for m in (1, 2, 3):
        p = mm.NormParams(m, dim)
        axes = mm.feasible_axes(xs, 5, span=span)
        patch = mm.patch_from_xprofiles(xs, signs, axes, p)
        us = patch.us.reshape(-1, dim)
        pts = patch.flat_points()
        for i in range(dim):
            want = [signs[i] * _x_antiderivative(xs[i], u, m) for u in us[:, i]]
            assert np.max(np.abs(pts[:, i] - want)) <= 1e-9, (ex, m, i)


def test_patch_is_the_closed_form_near_a_root_of_x():
    # X_1 = 1 + u has a root at u = -1, where X^(-gamma) is so steep that a
    # 256-panel Simpson rule from the axis start misses the antiderivative by
    # about 1e-4 at u = -0.999
    xs, signs = mm.example_xprofiles("6.1")
    m = 3
    axes = [np.linspace(-0.999, -0.9, 6), np.linspace(-0.2, 0.2, 5),
            np.linspace(-0.2, 0.2, 5)]
    patch = mm.patch_from_xprofiles(xs, signs, axes, mm.NormParams(m, 4))
    us = patch.us.reshape(-1, 4)
    pts = patch.flat_points()
    for i in range(4):
        want = np.array([signs[i] * _x_antiderivative(xs[i], float(u), m)
                         for u in us[:, i]])
        assert np.max(np.abs(pts[:, i] - want)) <= 1e-13, i


def test_xprofile_value_arrays_match_scalars():
    u = np.linspace(-2.0, 2.0, 9)
    for xp in (mm.XProfile.affine(1.5, -0.5), mm.XProfile.quadratic(1.0, 0.3, 0.2),
               mm.XProfile.exponential(0.7, 1.3)):
        for ev in (xp.value, xp.deriv):
            got = ev(u.reshape(3, 3))
            assert got.shape == (3, 3)
            want = np.array([ev(float(v)) for v in u]).reshape(3, 3)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= 4 * np.finfo(float).eps * scale
            assert isinstance(ev(0.25), float)


def test_composite_simpson_array_endpoints():
    b = np.array([[0.5, 1.0], [-1.0, 0.0]])
    got = composite_simpson(np.exp, 0.0, b, 64)
    assert got.shape == (2, 2)
    for idx in np.ndindex(b.shape):
        assert got[idx] == pytest.approx(composite_simpson(np.exp, 0.0, b[idx], 64),
                                         rel=1e-14, abs=1e-15)
    assert got[1, 1] == 0.0


def test_simpson_reduces_each_row_on_its_own():
    rng = np.random.default_rng(64)
    b = rng.uniform(-3.6, 3.6, 300)
    full = composite_simpson(np.exp, 0.0, b, 128)
    for k in range(1, len(b) + 1):
        assert np.array_equal(composite_simpson(np.exp, 0.0, b[:k], 128), full[:k])
    assert all(composite_simpson(np.exp, 0.0, float(v), 128) == full[i]
               for i, v in enumerate(b[:20]))


@pytest.mark.parametrize("m", (1, 2, 3))
def test_quadrature_x_of_u_prefixes_are_bit_identical(m):
    f = _QuadratureProfile(mm.XProfile.exponential(1.0, 1.0), -1.0, m)
    u = np.random.default_rng(65).uniform(-3.6, 3.6, 300)
    full = f.x_of_u(u)
    for k in range(1, len(u) + 1):
        assert np.array_equal(f.x_of_u(u[:k]), full[:k])


def test_composite_simpson_accuracy():
    val = composite_simpson(np.exp, 0.0, 1.0, 64)
    assert val == pytest.approx(np.e - 1.0, rel=1e-8)
    # halving the panel width cuts the error ~16x (4th order)
    e1 = abs(composite_simpson(np.exp, 0.0, 1.0, 32) - (np.e - 1.0))
    e2 = abs(composite_simpson(np.exp, 0.0, 1.0, 64) - (np.e - 1.0))
    assert 10.0 <= e1 / e2 <= 22.0
    assert composite_simpson(np.exp, 1.0, 1.0) == 0.0


# ---------------------------------------------------------------------------
# example surfaces
# ---------------------------------------------------------------------------


EXAMPLES = [
    ("6.1", 2), ("6.2", 2), ("6.2", 3), ("6.3", 2), ("6.4", 2), ("6.4", 3),
    ("6.5", 2), ("6.6", 2), ("i-2", 2), ("iii-2", 2),
]


@pytest.mark.parametrize("ex,r", EXAMPLES)
def test_example_surfaces_are_minimal(ex, r):
    rng = np.random.default_rng(abs(hash(ex)) % 2**31)
    for m in (1, 2):
        s = mm.example_surface(ex, m, r)
        pts = s.sample(rng, 10)
        assert np.min(np.abs(pts)) >= 0.05
        for x in pts:
            assert abs(mm.mean_curvature_separable(s.fs, x, s.p)) <= 1e-8


@pytest.mark.parametrize("ex,r", EXAMPLES)
def test_sample_is_a_prefix_of_a_larger_sample(ex, r):
    s = mm.example_surface(ex, 2, r)
    big = s.sample(np.random.default_rng(60), 200)
    assert np.array_equal(big[:40], s.sample(np.random.default_rng(60), 40))


@pytest.mark.parametrize("ex,r", EXAMPLES)
def test_samples_lie_on_the_surface(ex, r):
    for m in (1, 2, 3):
        s = mm.example_surface(ex, m, r)
        x = s.sample(np.random.default_rng(61), 200)
        f = np.column_stack([fi(x[:, i]) for i, fi in enumerate(s.fs)])
        assert np.all(np.abs(f.sum(axis=1)) <= 1e-10 * (1 + np.abs(f).sum(axis=1)))


def test_sampler_counts_slices_and_gives_up():
    stats = RunStats()
    s = mm.example_surface("6.1", 2)
    s.sample(np.random.default_rng(62), 300, stats=stats)
    drawn = stats.counts["sampler slices drawn"]
    assert drawn % separable._SAMPLE_BLOCK == 0
    assert 0 < stats.counts["sampler slices rejected"] <= drawn - 300

    blocks = []

    def rejects_all(rng):
        blocks.append(rng)
        return np.empty((0, 4))

    never = separable.SeparableSurface("never", s.fs, s.p, rejects_all)
    with pytest.raises(DomainError):
        never.sample(np.random.default_rng(63), 2)
    # gives up at the first block boundary past 200 slices per point
    assert (len(blocks) - 1) * separable._SAMPLE_BLOCK < 400
    assert len(blocks) * separable._SAMPLE_BLOCK >= 400


def test_65_samples_go_through_the_base_block_loop(monkeypatch):
    # 6.5 draws its u rows through SeparableSurface.sample looked up when
    # called, so a wrapper patched onto it afterwards (as a tracer is) sees
    # each draw once
    seen = []
    real = separable.SeparableSurface.sample

    def counting(self, rng, count, stats=None):
        seen.append(count)
        return real(self, rng, count, stats)

    monkeypatch.setattr(separable.SeparableSurface, "sample", counting)
    s = mm.example_surface("6.5", 2)
    s.report_sample(np.random.default_rng(64), 5)
    assert seen == [5]
    assert s.sample(np.random.default_rng(64), 7).shape == (7, 4)
    assert seen == [5, 7]


def test_example_surface_oracle_spot_checks():
    rng = np.random.default_rng(55)
    for ex in ("6.2", "6.5", "6.6"):
        s = mm.example_surface(ex, 2, 2)
        x = s.sample(rng, 1)[0]
        rep = mm.report_separable(s.fs, x, s.p, tol=1e-6)
        assert rep.passed, (ex, rep.h_analytic, rep.h_oracle, rep.tangency_defect)


def test_i2_reduces_to_quartic_relation():
    rng = np.random.default_rng(56)
    p2, p3, p1 = rng.uniform(0.5, 1.5, 3)
    p4 = -p1 + p2 + p3
    s = mm.example_surface("i-2", 2, pq=(p1, p2, p3, p4, 1.3))
    pts = s.sample(rng, 10)
    k = 4
    rel = pts[:, 0] ** k - pts[:, 1] ** k - pts[:, 2] ** k + pts[:, 3] ** k
    assert np.max(np.abs(rel)) <= 1e-10


def test_iii2_constraint_checked():
    with pytest.raises(ConstraintViolationError):
        mm.example_surface("iii-2", 1, pq=(1, 1, 1, 1, 1, 1))
    with pytest.raises(ConstraintViolationError):
        mm.example_surface("i-2", 1, pq=(1, 1, 1, 2, 1))


def _frozen_affine_coefficients(example, m, pq):
    """The i-2 and iii-2 coefficients (a, b) as example_surface wrote them out
    before it read them from 6.1's and 6.3's X-profiles, kept unchanged."""
    if example == "i-2":
        p1, p2, p3, p4, q1 = pq
        c = (q1 / (2 * m)) ** (2 * m) / q1
        return [c, -c, -c, c], [-p1 / q1, p2 / q1, p3 / q1, -p4 / q1]
    p1, p2, p3, p4, p5, q1 = pq
    c = (q1 / (2 * m)) ** (2 * m) / q1
    d = -((q1 / m) ** (2 * m)) / (2 * q1)
    return [c, c, d, d, c], [-p1 / q1, -p2 / q1, p3 / (2 * q1), p4 / (2 * q1), -p5 / q1]


@pytest.mark.parametrize("m", (1, 2, 3, 5))
@pytest.mark.parametrize("example, size", (("i-2", 5), ("iii-2", 6)))
def test_affine_families_are_bitwise_the_frozen_formulas(example, size, m, monkeypatch):
    # the coefficients example_surface hands to _powersum_surface, whose
    # constraint on p is bypassed here so that any pq can be compared
    monkeypatch.setattr(separable, "_powersum_surface", lambda name, a, b, m: (a, b))
    rng = np.random.default_rng(64)
    default = (1.0, 1.0, 1.0, 1.0, 1.0) if size == 5 else (1.0, 1.0, 3.0, 3.0, 1.0, 1.0)
    cases = [None] + [
        tuple(rng.uniform(-3.0, 3.0, size - 1)) + (rng.choice([-1.0, 1.0])
                                                   * rng.uniform(0.05, 20.0),)
        for _ in range(50)
    ]
    for pq in cases:
        got = mm.example_surface(example, m, pq=None if pq is None else
                                 tuple(map(float, pq)))
        want = _frozen_affine_coefficients(example, m, default if pq is None
                                           else tuple(map(float, pq)))
        for g, w in zip(got, want):
            assert np.array(g).tobytes() == np.array(w).tobytes()


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("xprofile_id, example", (("6.1", "i-2"), ("6.3", "iii-2")))
def test_affine_patches_lie_on_their_closed_form_surfaces(xprofile_id, example, m):
    # i-2 and iii-2 at their default pq are the closed forms u_i = f_i(x_i) of
    # the X-profiles that mesh --example 6.1 and 6.3 integrate
    xs, signs = mm.example_xprofiles(xprofile_id)
    patch = mm.patch_from_xprofiles(xs, signs, mm.feasible_axes(xs, 6),
                                    mm.NormParams(m, len(xs)))
    surface = mm.example_surface(example, m)
    pts = patch.flat_points()
    total = sum(f(pts[:, i]) for i, f in enumerate(surface.fs))
    assert np.max(np.abs(total)) <= 1e-12


def test_coefficients_that_overflow_are_domain_errors():
    with pytest.raises(DomainError, match="overflows a float"):
        mm.example_surface("6.3", 600)
    with pytest.raises(DomainError, match="overflows a float"):
        perturbed_example_surface("6.4", 2000, 2)
    with pytest.raises(DomainError, match="overflows a float"):
        mm.example_surface("i-2", 1, pq=(1.0, 1.0, 1.0, 1.0, 1e200))
    # a finite coefficient or constant that a factor or a division makes infinite
    with pytest.raises(DomainError, match="must be finite"):
        perturbed_example_surface("6.4", 500, 2, factor=1e10)
    with pytest.raises(DomainError, match="must be finite"):
        mm.example_surface("iii-2", 1, pq=(1e308, 1.0, 1.0, 1.0, 1.0, 1e-10))


def test_iii3_is_permutation_of_iii2():
    # the third affine branch at n = 4 gives coefficients that are a coordinate
    # permutation of the second one, and its surface is minimal as well
    from minmin.separable import _powersum_surface

    for m in (1, 2):
        c = 2.0 ** (2 * m - 1)
        s2 = mm.example_surface("6.3", m)  # coefficients (1, 1, -c, -c, 1)
        a3 = [-c, 1.0, 1.0, 1.0, -c]
        s3 = _powersum_surface("iii-3", a3, [0.0] * 5, m)
        assert sorted([1.0, 1.0, -c, -c, 1.0]) == sorted(a3)
        rng = np.random.default_rng(57)
        for x in s3.sample(rng, 5):
            assert abs(mm.mean_curvature_separable(s3.fs, x, s3.p)) <= 1e-8
        for x in s2.sample(rng, 5):
            assert abs(mm.mean_curvature_separable(s2.fs, x, s2.p)) <= 1e-8


@pytest.mark.parametrize("example, r, lead", [
    ("6.1", 2, 1), ("6.2", 3, 3), ("6.3", 2, 1), ("6.4", 3, 3),
])
def test_perturbation_scales_the_leading_block_of_the_catalogue(example, r, lead):
    # f_i(1) = a_i: the perturbed surface has the catalogue's coefficients, the
    # first lead of them times factor
    for m in (1, 2, 3):
        a = np.array([f(1.0) for f in mm.example_surface(example, m, r).fs])
        for factor in (1.0, 1.1):
            s = perturbed_example_surface(example, m, r, factor=factor)
            got = np.array([f(1.0) for f in s.fs])
            assert np.array_equal(got, np.concatenate([a[:lead] * factor, a[lead:]]))


def test_perturbed_64_breaks_minimality():
    rng = np.random.default_rng(58)
    s = perturbed_example_surface("6.4", m=1, r=2, factor=1.1)
    pts = s.sample(rng, 20)
    hs = np.array([abs(mm.mean_curvature_separable(s.fs, x, s.p)) for x in pts])
    assert np.mean(hs > 1e-3) >= 0.9


def test_identity_bridge_x_space_vs_f_space():
    # the substituted identity equals 2m/(2m-1) times the separable residual
    rng = np.random.default_rng(59)
    for m in (1, 2, 3):
        beta = 2 * m / (2 * m - 1)
        # affine data: recover u from the profile map and compare residuals
        xs, signs = mm.example_xprofiles("6.5")
        fs = mm.example_surface("6.5", m).fs
        x = mm.example_surface("6.5", m).sample(rng, 1)[0]
        u = np.array([f(v) for f, v in zip(fs, x)])
        assert abs(u.sum()) <= 1e-9
        u[-1] = -u[:-1].sum()
        x_res = mm.minimality_identity_residual(xs, u)
        d1 = [f.d1(v) for f, v in zip(fs, x)]
        d2 = [f.d2(v) for f, v in zip(fs, x)]
        f_res = separable_residual_sum(d1, d2, m)
        assert x_res == pytest.approx(beta * f_res, rel=1e-9, abs=1e-9)


def test_quadrature_profile_roundtrip():
    for m in (1, 2):
        f = _QuadratureProfile(mm.XProfile.exponential(1.0, 1.0), 1.0, m)
        for u in (-1.2, -0.3, 0.0, 0.4, 1.7):
            x = f.x_of_u(u)
            assert f.u_of_x(x) == pytest.approx(u, abs=1e-12)
        assert fd_derivative_error(f, [-0.4, 0.1, 0.45]) <= 1e-5


def test_quadrature_profile_negative_sign_roundtrip():
    for m in (1, 2, 3):
        f = _QuadratureProfile(mm.XProfile.exponential(1.0, 1.0), -1.0, m)
        for u in (-3.5, -1.2, -0.3, 0.0, 0.4, 1.7, 3.5):
            x = f.x_of_u(u)
            assert (x < 0) == (u > 0) or u == 0.0
            assert f.u_of_x(x) == pytest.approx(u, abs=1e-12)
        # far out, where x(u) flattens
        x = f.x_of_u(7.0)
        assert f.u_of_x(x) == pytest.approx(7.0, abs=1e-10)
        assert f.d1(f.x_of_u(0.5)) < 0


@pytest.mark.parametrize("m", (1, 2, 3))
def test_quadrature_x_of_u_matches_fine_reference(m):
    # |u| <= 3.6 is the reach of the 6.5 sampler (three draws of |u| <= 1.2)
    f = _QuadratureProfile(mm.XProfile.exponential(1.0, 1.0), 1.0, m)
    g = (2 * m - 1) / (2 * m)
    for u in np.linspace(-3.6, 3.6, 25):
        ref = composite_simpson(lambda t: (2.0 * np.cosh(t)) ** (-g), 0.0, u, 4096)
        assert abs(f.x_of_u(u) - ref) <= 1e-10


@pytest.mark.parametrize("sign", (1.0, -1.0))
@pytest.mark.parametrize("m", (1, 2, 3))
def test_quadrature_x_of_u_is_the_patch_coordinate(m, sign):
    # a 6.5 profile's x(u) and a patch's coordinate from u0 = 0 share one rule
    xp = mm.XProfile.exponential(1.0, 1.0)
    f = _QuadratureProfile(xp, sign, m)
    us = np.linspace(-3.6, 3.6, 25)
    assert np.array_equal(f.x_of_u(us), _x_coordinates(xp, sign, us, 0.0, m))
    for u in (-3.6, -0.3, 0.0, 1.7):
        assert f.x_of_u(u) == _x_coordinates(xp, sign, u, 0.0, m)


def test_quadrature_u_of_x_independent_of_call_history():
    xp = mm.XProfile.exponential(1.0, 1.0)
    rng = np.random.default_rng(61)
    xs = list(rng.uniform(-1.1, 1.1, 40)) + [0.0, 1.13, -1.13]
    fresh = [_QuadratureProfile(xp, 1.0, 2).u_of_x(x) for x in xs]
    warm = _QuadratureProfile(xp, 1.0, 2)
    for x in rng.uniform(-1.1, 1.1, 300):
        warm.u_of_x(x)
    order = rng.permutation(len(xs))
    got = {}
    for k in order:
        got[k] = warm.u_of_x(xs[k])
    for k in order[::-1]:
        assert warm.u_of_x(xs[k]) == got[k]
    assert [got[k] for k in range(len(xs))] == fresh
    # one array call: each element's result does not depend on the others (it
    # stops where it would alone), and it is the float result up to the
    # rounding of numpy's array exp and pow
    xs = np.array(xs)
    at_once = warm.u_of_x(xs)
    shuffled = np.empty_like(at_once)
    shuffled[order] = warm.u_of_x(xs[order])
    assert np.array_equal(shuffled, at_once)
    assert np.array_equal([warm.u_of_x(xs[k:k + 1])[0] for k in range(len(xs))],
                          at_once)
    fresh = np.array(fresh)
    eps = np.finfo(float).eps
    assert np.all(np.abs(at_once - fresh) <= 32 * eps * np.maximum(1.0, np.abs(fresh)))


def test_quadrature_u_of_x_out_of_reach_is_domain_error():
    f = _QuadratureProfile(mm.XProfile.exponential(1.0, 1.0), 1.0, 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="outside the reach"):
            f.u_of_x(5.0)
        with pytest.raises(DomainError):
            f.u_of_x(float("nan"))
        # one element out of reach refuses the whole array
        with pytest.raises(DomainError, match="x = 5.0 outside the reach"):
            f.u_of_x(np.array([0.2, 5.0, -0.4]))
        with pytest.raises(DomainError, match="outside the reach"):
            f.u_of_x(np.array([[0.2, 5.0], [np.nan, -0.4]]))


def test_quadrature_u_of_x_raises_at_newton_cap(monkeypatch):
    monkeypatch.setattr(separable, "_NEWTON_ITERS", 1)
    f = _QuadratureProfile(mm.XProfile.exponential(1.0, 1.0), 1.0, 2)
    with pytest.raises(DomainError, match="did not converge"):
        f.u_of_x(0.7)
    with pytest.raises(DomainError, match="did not converge"):
        f.u_of_x(np.array([0.0, 0.7]))
