import numpy as np
import pytest
from conftest import STOP_CASES, fd_derivative_error

import minmin as mm
from minmin import translation
from minmin.errors import DomainError, IntegrationError
from minmin.functions import C3Function
from minmin.reporting import RunStats
from minmin.translation import STOP_REASONS, SampledProfile


def tan_closed_form(params, u):
    """Slope solution of the k = 1, m = 1 family: y' = (c0/2)(1 + y^2)."""
    c = params.c0 / 2.0
    phase = np.arctan(params.y0) - c * params.u0
    return np.tan(c * np.asarray(u) + phase)


# ---------------------------------------------------------------------------
# minimality residual
# ---------------------------------------------------------------------------


def test_residual_zero_for_hyperplane():
    for m in (1, 2, 3):
        ts = mm.TranslationSurface(
            profiles=(C3Function.linear(0.8), C3Function.linear(-0.6)),
            p=mm.NormParams(m, 3),
        )
        assert mm.minimality_residual(ts, [0.2, 1.4]) == 0.0


def test_residual_zero_for_scherk():
    ts = mm.TranslationSurface(
        profiles=(C3Function.neg_log_cos(+1.0), C3Function.neg_log_cos(-1.0)),
        p=mm.NormParams(1, 3),
    )
    assert abs(mm.minimality_residual(ts, [0.2, -0.3])) <= 1e-9


def test_residual_value_and_relation_to_h():
    # n = 3, m = 2, f_i = t^2/2 at (1,1,1): slopes 1, so X_i = 1, A = 4 and
    # each term is 1 * 1 * (A - 1) = 3 => residual 9
    p = mm.NormParams(2, 4)
    fs = tuple(C3Function.polynomial([0, 0, 0.5]) for _ in range(3))
    ts = mm.TranslationSurface(profiles=fs, p=p)
    u = [1.0, 1.0, 1.0]
    res = mm.minimality_residual(ts, u)
    assert res == pytest.approx(9.0, rel=1e-14)
    H = mm.mean_curvature_translation(fs, u, p)
    n, m = 3, 2
    A = 4.0
    assert res == pytest.approx(-n * (2 * m - 1) * A ** ((2 * m + 1) / (2 * m)) * H,
                                rel=1e-12)


def test_residual_vanishes_iff_h_vanishes():
    rng = np.random.default_rng(31)
    from minmin.sampling import random_translation_config

    for _ in range(30):
        m = int(rng.integers(1, 4))
        n = int(rng.integers(2, 5))
        fs, u, p = random_translation_config(rng, m, n)
        ts = mm.TranslationSurface(profiles=fs, p=p)
        res = mm.minimality_residual(ts, u)
        H = mm.mean_curvature_translation(fs, u, p)
        d1 = [f.d1(t) for f, t in zip(fs, u)]
        A = 1.0 + sum(mm.signed_pow(v, 2 * m, 2 * m - 1) for v in d1)
        factor = -n * (2 * m - 1) * A ** ((2 * m + 1) / (2 * m))
        assert res == pytest.approx(factor * H, rel=1e-11, abs=1e-13)


# ---------------------------------------------------------------------------
# profile ODE
# ---------------------------------------------------------------------------


def test_ode_params_validation():
    with pytest.raises(DomainError):
        mm.ProfileODEParams(c0=1.0, k=1, m=1, y0=0.0)
    with pytest.raises(DomainError):
        mm.ProfileODEParams(c0=1.0, k=1, m=1, y0=1.0, step=-1e-3)
    with pytest.raises(DomainError):
        mm.ProfileODEParams(c0=1.0, k=0, m=1, y0=1.0)


def test_surface_profile_count_checked():
    from minmin.errors import DimensionMismatchError

    with pytest.raises(DimensionMismatchError):
        mm.TranslationSurface(
            profiles=(C3Function.linear(1.0),), p=mm.NormParams(1, 3)
        )


def test_integrate_zero_constant_gives_linear_profile():
    params = mm.ProfileODEParams(c0=0.0, k=1, m=2, y0=0.8, u0=0.0,
                                 step=1e-2, max_steps=100)
    curve = mm.integrate_profile(params)
    assert np.allclose(curve.d1, 0.8)
    assert np.allclose(curve.d2, 0.0)
    assert np.allclose(curve.f, 0.8 * curve.u, atol=1e-12)
    assert curve.ode_residual_max <= 1e-12


def test_audit_that_never_ran_is_nan():
    # 3 samples leave no room for the 5-point stencil; 5 give it one centre
    def audit(max_steps):
        params = mm.ProfileODEParams(c0=1.0, k=1, m=1, y0=1.0, max_steps=max_steps)
        return mm.integrate_profile(params).ode_residual_max

    assert np.isnan(audit(1))
    assert 0.0 < audit(2) <= 1e-10


def test_integrate_matches_tangent_closed_form():
    # c0 = 2 makes the effective constant c0/(2m) = 1, so y = tan(u) through
    # y(0.1) = tan(0.1)
    params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=float(np.tan(0.1)), u0=0.1,
                                 step=1e-3, max_steps=1400)
    curve = mm.integrate_profile(params)
    exact = tan_closed_form(params, curve.u)
    sel = np.abs(exact) <= 10.0
    assert sel.sum() > 500
    assert np.max(np.abs(curve.d1[sel] - exact[sel])) <= 1e-6


def test_integrate_generic_c0_closed_form():
    params = mm.ProfileODEParams(c0=1.0, k=1, m=1, y0=float(np.tan(0.1)), u0=0.1,
                                 step=1e-3, max_steps=1500)
    curve = mm.integrate_profile(params)
    exact = tan_closed_form(params, curve.u)  # tan(u/2 + 0.05)
    sel = np.abs(exact) <= 10.0
    assert np.max(np.abs(curve.d1[sel] - exact[sel])) <= 1e-6


def test_integrate_m2_selfconsistency_audit():
    params = mm.ProfileODEParams(c0=1.0, k=2, m=2, y0=1.0, u0=0.0,
                                 step=5e-4, max_steps=1500)
    curve = mm.integrate_profile(params)
    assert np.max(np.abs(curve.d1)) <= 10.0
    assert curve.ode_residual_max <= 1e-8
    assert np.allclose(curve.d2, [params.rhs(y) for y in curve.d1])


def test_rhs_of_a_float_is_bitwise_the_frozen_scalar_formula():
    # the float branch rhs once had, a * (abs(y) ** e + k * y * y), frozen:
    # floats now take the array's np.float_power and must keep these bits
    rng = np.random.default_rng(41)
    ys = rng.normal(size=300) * rng.choice([1e-3, 1.0, 1e3], size=300)
    ys[:4] = [0.0, -0.0, 1.0, -1.0]
    for m in (1, 2, 3, 4):
        for k in (1, 2, 3):
            c0 = float(rng.uniform(-2.0, 2.0))
            params = mm.ProfileODEParams(c0=c0, k=k, m=m, y0=1.0)
            a, e = c0 / (2 * m), (2 * m - 2) / (2 * m - 1)
            frozen = np.array([a * (abs(y) ** e + k * y * y) for y in ys.tolist()])
            floats = np.array([params.rhs(y) for y in ys.tolist()])
            assert floats.tobytes() == frozen.tobytes(), (m, k)
            assert params.rhs(ys).tobytes() == frozen.tobytes(), (m, k)


def test_integrator_is_fourth_order():
    # halving the step cuts the endpoint error against tan by about 16x
    errs = []
    target_u = 0.9
    for step in (4e-3, 2e-3, 1e-3):
        params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=float(np.tan(0.2)),
                                     u0=0.2, step=step,
                                     max_steps=int(round((target_u - 0.2) / step)))
        curve = mm.integrate_profile(params)
        i = np.argmin(np.abs(curve.u - target_u))
        errs.append(abs(curve.d1[i] - np.tan(curve.u[i])))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    for order in orders:
        assert 3.8 <= order <= 4.2, (errs, orders)


def test_integrate_halts_at_zero_slope():
    # going backward from u0 = 0.1, tan reaches 0 at u = 0 and the run stops
    params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=float(np.tan(0.1)), u0=0.1,
                                 step=1e-3, max_steps=500)
    curve = mm.integrate_profile(params)
    assert curve.domain[0] >= -0.01
    assert np.all(curve.d1 > 0)


def test_integrate_blowup_guard_raises_on_unusable_step():
    params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=1e5, u0=0.0,
                                 step=0.5, max_steps=10)
    with pytest.raises(IntegrationError):
        mm.integrate_profile(params)


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_integrate_records_stop_reasons(case):
    kwargs, (backward, forward) = STOP_CASES[case]
    curve = mm.integrate_profile(mm.ProfileODEParams(**kwargs))
    assert curve.stop_reasons == {"backward": backward, "forward": forward}
    assert set(curve.stop_reasons.values()) <= set(STOP_REASONS)
    assert np.all(np.isfinite(curve.f)) and np.all(np.isfinite(curve.d1))


def test_stop_reason_max_steps_counts_the_work():
    stats = RunStats()
    params = mm.ProfileODEParams(c0=0.35, k=1, m=2, y0=0.5, max_steps=40)
    curve = mm.integrate_profile(params, stats)
    assert curve.stop_reasons == {"backward": "max_steps", "forward": "max_steps"}
    assert len(curve.u) == 81
    # per checked step: 4 rhs calls for the full step, 3 more for the first
    # half step (it reuses the full step's first stage) and 4 for the second
    assert stats.counts == {"accepted RK4 steps": 80, "RK4 rhs evaluations": 880}


def test_stop_reason_step_doubling_and_unusable_step():
    params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=1.0, max_steps=2000)
    assert mm.integrate_profile(params).stop_reasons["forward"] == "step_doubling"
    stats = RunStats()
    with pytest.raises(IntegrationError, match="backward: step_doubling, "
                                               "forward: step_doubling"):
        mm.integrate_profile(mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=1e5, step=0.5,
                                                 max_steps=10), stats)
    # one checked step each way, 11 rhs calls each
    assert stats.counts == {"accepted RK4 steps": 0, "RK4 rhs evaluations": 22}


def test_assembly_integrates_equal_profiles_once(monkeypatch):
    calls = []
    real = translation.integrate_profile

    def counting(params, stats=None):
        calls.append(params)
        return real(params, stats)

    monkeypatch.setattr(translation, "integrate_profile", counting)
    ts = mm.assemble_separated_surface(m=1, n=3, c0=1.0, inits=[(1.0, 0.0)] * 3,
                                       step=2e-3, max_steps=50)
    assert len(calls) == 1
    assert ts.profiles[0] is ts.profiles[1] is ts.profiles[2]
    ts = mm.assemble_separated_surface(m=1, n=2, c0=1.0, inits=[(1.0, 0.0)] * 2,
                                       step=2e-3, max_steps=50)
    # -c0 is the mirror image of +c0, integrated not at all
    assert len(calls) == 2
    assert ts.profiles[0].curve.params.c0 == -ts.profiles[1].curve.params.c0


def _curve_bits(curve):
    return ([a.tobytes() for a in (curve.u, curve.f, curve.d1, curve.d2)],
            np.float64(curve.ode_residual_max).tobytes(), curve.origin,
            list(curve.stop_reasons.items()))


def test_n2_assembly_mirrors_the_plus_c0_profile_bitwise():
    rng = np.random.default_rng(8)
    settings = [STOP_CASES[case][0] for case in ("sign_change", "blowup", "slope_floor")]
    settings += [dict(c0=float(rng.uniform(-3, 3)), k=1, m=int(rng.integers(1, 4)),
                      y0=float(rng.uniform(-2, 2)), u0=float(rng.uniform(-1, 1)),
                      max_steps=int(rng.integers(1, 300))) for _ in range(30)]
    for kwargs in settings:
        plus = mm.ProfileODEParams(**kwargs)
        ts = mm.assemble_separated_surface(
            m=plus.m, n=2, c0=plus.c0, inits=[(plus.y0, plus.u0)] * 2,
            step=plus.step, max_steps=plus.max_steps)
        first, second = (f.curve for f in ts.profiles)
        direct = mm.integrate_profile(mm.ProfileODEParams(**dict(kwargs, c0=-plus.c0)))
        assert _curve_bits(second) == _curve_bits(direct)
        assert _curve_bits(first) == _curve_bits(mm.integrate_profile(plus))
        assert second.stop_reasons == {"backward": first.stop_reasons["forward"],
                                       "forward": first.stop_reasons["backward"]}


def test_sampled_profile_interpolation_and_domain():
    params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=float(np.tan(0.3)), u0=0.3,
                                 step=1e-3, max_steps=700)
    prof = SampledProfile(mm.integrate_profile(params))
    rng = np.random.default_rng(32)
    lo, hi = prof.domain
    for u in rng.uniform(max(lo, 0.05), min(hi, 1.0), 30):
        assert prof.d1(u) == pytest.approx(np.tan(u), abs=1e-7)
        assert prof.d2(u) == pytest.approx(1 + np.tan(u) ** 2, rel=1e-6)
    with pytest.raises(DomainError):
        prof(hi + 0.5)


def test_profile_curve_csv(tmp_path):
    params = mm.ProfileODEParams(c0=1.0, k=2, m=2, y0=1.0, u0=0.0,
                                 step=1e-2, max_steps=20)
    curve = mm.integrate_profile(params)
    out = tmp_path / "profile.csv"
    curve.write_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "u,f,f_prime,f_double_prime"
    assert len(lines) == len(curve.u) + 1
    row = [float(v) for v in lines[1].split(",")]
    assert row[0] == pytest.approx(curve.u[0])


def test_profile_curve_csv_bytes_match_per_value_formatting(tmp_path):
    curve = mm.integrate_profile(mm.ProfileODEParams(
        c0=0.7, k=1, m=3, y0=0.4, u0=0.1, step=1e-3, max_steps=300))
    out = tmp_path / "profile.csv"
    curve.write_csv(out)
    want = "u,f,f_prime,f_double_prime\n" + "".join(
        ",".join(f"{v:.17g}" for v in row) + "\n"
        for row in zip(curve.u, curve.f, curve.d1, curve.d2))
    assert out.read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# separated assembly
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("m", (1, 2, 3))
@pytest.mark.parametrize("c0", (0.5, 1.0, 2.0))
def test_two_profile_assembly_is_minimal(m, c0):
    ts = mm.assemble_separated_surface(
        m=m, n=2, c0=c0, inits=[(1.0, 0.0), (1.0, 0.0)],
        step=1e-3, max_steps=900,
    )
    grid = mm.residual_grid(ts, ts.domain_axes(20))
    assert np.max(np.abs(grid)) <= 1e-7


def test_scherk_from_assembly_matches_closed_form():
    # m = 1, c0 = 2: the separated profiles are tan and -tan slopes
    ts = mm.assemble_separated_surface(
        m=1, n=2, c0=2.0, inits=[(np.tan(0.4), 0.4), (np.tan(0.4), 0.4)],
        step=1e-3, max_steps=600,
    )
    u = 0.7
    assert ts.profiles[0].d1(u) == pytest.approx(np.tan(u), abs=1e-7)
    # the opposite-sign profile solves y' = -(1 + y^2): y(u) = tan(0.8 - u)
    assert ts.profiles[1].d1(u) == pytest.approx(np.tan(0.8 - u), abs=1e-7)
    grid = mm.residual_grid(ts, ts.domain_axes(15))
    assert np.max(np.abs(grid)) <= 1e-7


@pytest.mark.parametrize("n,m", ((3, 1), (3, 2), (4, 1), (4, 2)))
def test_same_sign_assembly_is_obstructed(n, m):
    ts = mm.assemble_separated_surface(
        m=m, n=n, c0=1.0, inits=[(1.0, 0.0)] * n, step=2e-3, max_steps=400,
    )
    grid = mm.residual_grid(ts, ts.domain_axes(6))
    frac = np.mean(np.abs(grid) >= 1e-3)
    assert frac >= 0.9
    assert np.max(np.abs(grid)) > 1e-3


def test_same_sign_assembly_obstructed_n5_spot_check():
    ts = mm.assemble_separated_surface(
        m=1, n=5, c0=1.0, inits=[(1.0, 0.0)] * 5, step=2e-3, max_steps=200,
    )
    grid = mm.residual_grid(ts, ts.domain_axes(3))
    assert np.mean(np.abs(grid) >= 1e-3) >= 0.9


# ---------------------------------------------------------------------------
# cylinders
# ---------------------------------------------------------------------------


def test_cylinder_over_plane_is_plane():
    base = mm.TranslationSurface(
        profiles=(C3Function.linear(0.4), C3Function.linear(-0.7)),
        p=mm.NormParams(2, 3),
    )
    cyl = mm.cylinder_over(base, total_n=3, slopes=[0.5])
    assert cyl.p.dim == 4
    grid = mm.residual_grid(cyl, [np.linspace(-1, 1, 4)] * 3)
    assert np.max(np.abs(grid)) == 0.0


def test_cylinder_over_scherk_m1():
    base = mm.assemble_separated_surface(
        m=1, n=2, c0=2.0, inits=[(1.0, 0.0), (1.0, 0.0)], step=1e-3, max_steps=600,
    )
    cyl = mm.cylinder_over(base, total_n=3, slopes=[0.5])
    grid = mm.residual_grid(cyl, cyl.domain_axes(8))
    assert np.max(np.abs(grid)) <= 1e-6


def test_cylinder_over_m2_surface_total4():
    base = mm.assemble_separated_surface(
        m=2, n=2, c0=1.0, inits=[(1.0, 0.0), (1.0, 0.0)], step=1e-3, max_steps=700,
    )
    cyl = mm.cylinder_over(base, total_n=4, slopes=[0.5, -0.8])
    grid = mm.residual_grid(cyl, cyl.domain_axes(5))
    assert np.max(np.abs(grid)) <= 1e-6


def test_cylinder_rejects_zero_slopes():
    base = mm.assemble_separated_surface(
        m=1, n=2, c0=1.0, inits=[(1.0, 0.0), (1.0, 0.0)], step=2e-3, max_steps=200,
    )
    with pytest.raises(DomainError):
        mm.cylinder_over(base, total_n=3, slopes=[0.0])


def test_sampled_profile_is_valid_c3():
    params = mm.ProfileODEParams(c0=1.0, k=2, m=2, y0=1.0, u0=0.0,
                                 step=1e-3, max_steps=400)
    prof = SampledProfile(mm.integrate_profile(params))
    assert isinstance(prof, SampledProfile)
    lo, hi = prof.domain
    pts = np.linspace(lo + 0.05 * (hi - lo), hi - 0.05 * (hi - lo), 5)
    assert fd_derivative_error(prof, pts) <= 1e-5
