"""The float stepper and array-evaluated profiles against frozen copies of the
code they replaced.

The first reference below is the profile ODE integrator as it was when it
advanced a two-element numpy state, evaluated the right-hand side through the
scalar signed_pow, and filled f'' one sample at a time; with it the per-sample
SampledProfile evaluation and the per-node residual grid and vertex loops.  The
second is the fused float loop that tested every step as it took it, before the
stop tests ran once per block of steps as arrays.  They are kept here,
unchanged, as the references the new code must reproduce bit for bit: the
arithmetic of every element is the same, only its container changed.
"""

import math

import numpy as np
import pytest
from conftest import STOP_CASES

import minmin as mm
from minmin import meshes, translation
from minmin.errors import DomainError, IntegrationError
from minmin.functions import ProfileColumns
from minmin.norms import signed_pow
from minmin.translation import (
    GATE_BLOCK,
    SLOPE_CAP,
    SLOPE_FLOOR,
    STEP_RESIDUAL_CAP,
    STOP_REASONS,
    ProfileODEParams,
    SampledColumns,
    SampledProfile,
)

# ---------------------------------------------------------------------------
# frozen reference
# ---------------------------------------------------------------------------


def _ref_rhs(params, y):
    m = params.m
    return (params.c0 / (2 * m)) * (signed_pow(y, 2 * m - 2, 2 * m - 1)
                                    + params.k * y * y)


def _ref_rk4_step(rhs, state, h):
    k1 = rhs(state)
    k2 = rhs(state + 0.5 * h * k1)
    k3 = rhs(state + 0.5 * h * k2)
    k4 = rhs(state + h * k3)
    return state + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)


def _ref_integrate(params):
    """(u, f, d1, d2) of the old integrate_profile."""

    def rhs(state):
        return np.array([state[1], _ref_rhs(params, state[1])])

    sign0 = np.sign(params.y0)

    def run(direction):
        h = direction * params.step
        state = np.array([0.0, params.y0])
        out = []
        for _ in range(params.max_steps):
            full = _ref_rk4_step(rhs, state, h)
            half = _ref_rk4_step(rhs, _ref_rk4_step(rhs, state, h / 2), h / 2)
            if not np.all(np.isfinite(full)):
                break
            if abs(full[1] - half[1]) > STEP_RESIDUAL_CAP * (1.0 + abs(full[1])):
                break
            y = full[1]
            if abs(y) > SLOPE_CAP or abs(y) < SLOPE_FLOOR or np.sign(y) != sign0:
                break
            state = full
            out.append(state)
        return out

    with np.errstate(over="ignore", invalid="ignore"):
        fwd = run(+1.0)
        bwd = run(-1.0)
    if not fwd and not bwd:
        raise IntegrationError("no admissible step")
    h = params.step
    us, fs_, ys = [], [], []
    for i, st in enumerate(reversed(bwd)):
        us.append(params.u0 - (len(bwd) - i) * h)
        fs_.append(st[0])
        ys.append(st[1])
    us.append(params.u0)
    fs_.append(0.0)
    ys.append(params.y0)
    for i, st in enumerate(fwd):
        us.append(params.u0 + (i + 1) * h)
        fs_.append(st[0])
        ys.append(st[1])
    y = np.array(ys)
    d2 = np.array([_ref_rhs(params, v) for v in y])
    return np.array(us), np.array(fs_), y, d2


def _ref_sampled(curve, x, order):
    """Old per-sample SampledProfile evaluation: order 0 is f, 1 is f'."""
    c = curve
    h = c.params.step
    i = int(np.clip(np.floor((x - c.u[0]) / h), 0, len(c.u) - 2))
    t = (x - c.u[i]) / h
    v, s = (c.f, c.d1) if order == 0 else (c.d1, c.d2)
    h00 = (1 + 2 * t) * (1 - t) ** 2
    h10 = t * (1 - t) ** 2
    h01 = t * t * (3 - 2 * t)
    h11 = t * t * (t - 1)
    return h00 * v[i] + h10 * h * s[i] + h01 * v[i + 1] + h11 * h * s[i + 1]


def _ref_residual_grid(ts, axes):
    mesh = np.meshgrid(*axes, indexing="ij")
    out = np.empty(mesh[0].shape)
    for idx in np.ndindex(out.shape):
        u = [g[idx] for g in mesh]
        d1 = np.array([f.d1(t) for f, t in zip(ts.profiles, u)])
        d2 = np.array([f.d2(t) for f, t in zip(ts.profiles, u)])
        out[idx] = mm.translation_residual_sum(d1, d2, ts.p.m)
    return out


def _ref_vertices(ts, axes):
    u1, u2 = np.asarray(axes[0]), np.asarray(axes[1])
    verts = np.empty((u1.size, u2.size, 3))
    for i, a in enumerate(u1):
        for j, b in enumerate(u2):
            verts[i, j] = (a, b, float(sum(f(t) for f, t in zip(ts.profiles, (a, b)))))
    return verts


def _ref_integrate_direction(params: ProfileODEParams, direction: float):
    """Accepted f and y, in two lists, one way from u0, the reason it stopped,
    and the number of rhs evaluations it made.

    Each checked step is one classical RK4 step of (f, y)' = (y, rhs(y)) and,
    for the step-doubling gate, two RK4 half steps of y alone (the ODE is
    autonomous and the gate reads only y).  The full step and the first half
    step share their first stage, so a checked step evaluates rhs 11 times (4
    when the full step is not finite).  rhs is written out on its constants
    inside the loop, with the operand order of ProfileODEParams.rhs, so every
    stage keeps the bits of a call to it.  The stage arithmetic is on floats
    only: an int factor (k, the RK4 weight 2) is converted to the same double
    on every multiply, so taking it as a float once changes no bit.
    """
    a, e, k = params.rhs_constants()
    k = float(k)
    h = direction * float(params.step)
    half = h / 2
    # the stage factors 0.5*h and h/6 of the full step and of the half steps
    h2, h6 = 0.5 * h, h / 6.0
    q2, q6 = 0.5 * half, half / 6.0
    f, y = 0.0, float(params.y0)
    positive = y > 0
    fs, ys = [], []
    calls = 0
    for _ in range(params.max_steps):
        k1 = a * (abs(y) ** e + k * y * y)
        y2 = y + h2 * k1
        k2 = a * (abs(y2) ** e + k * y2 * y2)
        y3 = y + h2 * k2
        k3 = a * (abs(y3) ** e + k * y3 * y3)
        y4 = y + h * k3
        k4 = a * (abs(y4) ** e + k * y4 * y4)
        f1 = f + h6 * (y + 2.0 * y2 + 2.0 * y3 + y4)
        y1 = y + h6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        calls += 4
        if not (math.isfinite(f1) and math.isfinite(y1)):
            return fs, ys, "non_finite", calls
        # first half step, from the full step's k1
        y2 = y + q2 * k1
        k2 = a * (abs(y2) ** e + k * y2 * y2)
        y3 = y + q2 * k2
        k3 = a * (abs(y3) ** e + k * y3 * y3)
        y4 = y + half * k3
        k4 = a * (abs(y4) ** e + k * y4 * y4)
        ym = y + q6 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        # second half step
        j1 = a * (abs(ym) ** e + k * ym * ym)
        y2 = ym + q2 * j1
        k2 = a * (abs(y2) ** e + k * y2 * y2)
        y3 = ym + q2 * k2
        k3 = a * (abs(y3) ** e + k * y3 * y3)
        y4 = ym + half * k3
        k4 = a * (abs(y4) ** e + k * y4 * y4)
        yh = ym + q6 * (j1 + 2.0 * k2 + 2.0 * k3 + k4)
        calls += 7
        if abs(y1 - yh) > STEP_RESIDUAL_CAP * (1.0 + abs(y1)):
            return fs, ys, "step_doubling", calls
        if abs(y1) > SLOPE_CAP:
            return fs, ys, "blowup", calls
        if abs(y1) < SLOPE_FLOOR:
            return fs, ys, "slope_floor", calls
        if (y1 > 0) != positive:
            return fs, ys, "sign_change", calls
        f, y = f1, y1
        fs.append(f)
        ys.append(y)
    return fs, ys, "max_steps", calls


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_stepper_matches_numpy_reference_bitwise(m, k):
    # c0 = 1.5 with |y0| = 0.8 stops each way on one of the caps within the
    # step budget, so the sweep covers the stop tests as well as the steps
    for c0 in (1.5, -1.5):
        for y0 in (0.8, -0.8):
            params = mm.ProfileODEParams(c0=c0, k=k, m=m, y0=y0, u0=0.25,
                                         step=2e-3, max_steps=1500)
            u, f, d1, d2 = _ref_integrate(params)
            curve = mm.integrate_profile(params)
            for got, ref in ((curve.u, u), (curve.f, f), (curve.d1, d1),
                             (curve.d2, d2)):
                np.testing.assert_array_equal(got, ref)


@pytest.mark.parametrize("case", ["non_finite", "blowup", "slope_floor", "sign_change"])
def test_stepper_matches_numpy_reference_on_stop_cases(case):
    # the stop reasons the sweep above does not reach, each at its own
    # extreme: overflow of f, slopes near the caps and a slope through zero
    kwargs, _ = STOP_CASES[case]
    params = mm.ProfileODEParams(**kwargs)
    curve = mm.integrate_profile(params)
    assert case in curve.stop_reasons.values()
    for got, ref in zip((curve.u, curve.f, curve.d1, curve.d2), _ref_integrate(params)):
        np.testing.assert_array_equal(got, ref)


def test_sweep_reaches_several_stop_reasons():
    seen = set()
    for m in (1, 2, 3):
        for k in (1, 2, 3):
            for c0, y0 in ((1.5, 0.8), (1.5, -0.8)):
                params = mm.ProfileODEParams(c0=c0, k=k, m=m, y0=y0, u0=0.25,
                                             step=2e-3, max_steps=1500)
                seen.update(mm.integrate_profile(params).stop_reasons.values())
    assert {"step_doubling", "sign_change", "max_steps"} <= seen


def test_unusable_step_raises_like_the_reference():
    params = mm.ProfileODEParams(c0=2.0, k=1, m=1, y0=1e5, u0=0.0,
                                 step=0.5, max_steps=10)
    with pytest.raises(IntegrationError):
        _ref_integrate(params)
    with pytest.raises(IntegrationError, match="step_doubling"):
        mm.integrate_profile(params)


@pytest.mark.parametrize("m", [1, 2, 3])
def test_sampled_profile_array_matches_scalar_calls(m):
    params = mm.ProfileODEParams(c0=0.9, k=2, m=m, y0=0.6, u0=0.1,
                                 step=1e-3, max_steps=400)
    curve = mm.integrate_profile(params)
    prof = SampledProfile(curve)
    lo, hi = prof.domain
    rng = np.random.default_rng(5)
    # random points, the nodes themselves and both ends of the domain
    x = np.concatenate([rng.uniform(lo, hi, 300), curve.u[::37], [lo, hi]])
    for method in (prof.__call__, prof.d1, prof.d2):
        arr = method(x)
        assert arr.shape == x.shape
        np.testing.assert_array_equal(arr, [method(float(v)) for v in x])
        grid = method(x[:300].reshape(20, 15))
        np.testing.assert_array_equal(grid.ravel(), arr[:300])
    # x*x and pow(x, 2) differ in the last bit for about one square in a
    # thousand, so the old Hermite basis is checked on many points
    x = np.concatenate([rng.uniform(lo, hi, 10000), x])
    for order, method in enumerate((prof.__call__, prof.d1)):
        np.testing.assert_array_equal(method(x), [_ref_sampled(curve, v, order) for v in x])
    np.testing.assert_array_equal(prof.d2(x), [_ref_rhs(params, _ref_sampled(curve, v, 1))
                                               for v in x])


def test_sampled_profile_rejects_arrays_reaching_outside():
    prof = SampledProfile(mm.integrate_profile(mm.ProfileODEParams(
        c0=0.9, k=1, m=1, y0=0.6, step=1e-3, max_steps=100)))
    lo, hi = prof.domain
    with pytest.raises(mm.errors.DomainError, match="outside"):
        prof.d1(np.array([lo, 0.5 * (lo + hi), hi + 0.5]))
    with pytest.raises(mm.errors.DomainError, match="outside"):
        prof(np.array([np.nan]))


@pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 2)])
def test_residual_grid_matches_per_node_loop_bitwise(n, m):
    ts = mm.assemble_separated_surface(m=m, n=n, c0=1.0, inits=[(0.7, 0.05)] * n,
                                       step=1e-3, max_steps=300)
    axes = ts.domain_axes(7 if n == 2 else 4)
    np.testing.assert_array_equal(mm.residual_grid(ts, axes), _ref_residual_grid(ts, axes))


def test_translation_vertices_and_surface_match_per_node_loop_bitwise():
    ts = mm.assemble_separated_surface(m=2, n=2, c0=0.8, inits=[(0.6, -0.1)] * 2,
                                       step=1e-3, max_steps=300)
    axes = ts.domain_axes(9)
    verts = meshes.translation_vertices(ts, axes)
    np.testing.assert_array_equal(verts, _ref_vertices(ts, axes))


# ---------------------------------------------------------------------------
# block stepper against the fused loop
# ---------------------------------------------------------------------------


def _block_sweep():
    """The seeded sweep of ODE parameters: every m = 1..6 and k = 1..4 at
    every step and at step budgets on both sides of the block edges, with
    random signs and sizes of c0 and y0, then every STOP_CASES entry."""
    rng = np.random.default_rng(25)
    caps = (1, GATE_BLOCK - 1, GATE_BLOCK, GATE_BLOCK + 1, 3 * GATE_BLOCK + 7)
    sweep = []
    for m in range(1, 7):
        for k in range(1, 5):
            for step in (1e-3, 2e-3, 0.05, 0.5):
                for cap in caps:
                    sc, sy = rng.choice((-1.0, 1.0), size=2)
                    c0, y0, u0 = (float(v) for v in (sc * rng.uniform(0.2, 2.0),
                                                     sy * 10 ** rng.uniform(-2.0, 1.0),
                                                     rng.uniform(-0.5, 0.5)))
                    sweep.append(ProfileODEParams(c0=c0, k=k, m=m, y0=y0, u0=u0,
                                                  step=step, max_steps=cap))
    return sweep + [ProfileODEParams(**kwargs) for kwargs, _ in STOP_CASES.values()]


def _ref_audit(curve):
    """ode_residual_max as it was computed, with rhs evaluated again."""
    y = curve.d1
    h = curve.params.step
    if len(y) < 5:
        return math.nan
    d = (-y[4:] + 8 * y[3:-1] - 8 * y[1:-3] + y[:-4]) / (12 * h)
    rhs = curve.params.rhs(y[2:-2])
    return float(np.max(np.abs(d - rhs) / (1.0 + np.abs(rhs))))


def _caps_tripped(params, direction, ys):
    """The caps (blowup, slope_floor, sign_change) that the step after the
    accepted slopes ys trips, by the numpy reference step."""

    def rhs(state):
        return np.array([state[1], _ref_rhs(params, state[1])])

    y = ys[-1] if ys else params.y0
    with np.errstate(all="ignore"):
        y1 = _ref_rk4_step(rhs, np.array([0.0, y]), direction * params.step)[1]
    return {name for name, hit in (("blowup", abs(y1) > SLOPE_CAP),
                                   ("slope_floor", abs(y1) < SLOPE_FLOOR),
                                   ("sign_change", (y1 > 0) != (params.y0 > 0)))
            if hit}


def test_block_stepper_matches_fused_loop_bitwise():
    seen, gate_first = set(), []
    for params in _block_sweep():
        for direction in (-1.0, 1.0):
            ref = _ref_integrate_direction(params, direction)
            got = translation._integrate_direction(params, direction)
            assert got[2:] == ref[2:], (params, direction)
            for a, b in zip(got[:2], ref[:2]):
                np.testing.assert_array_equal(np.array(a, dtype=float).view(np.uint64),
                                              np.array(b, dtype=float).view(np.uint64))
            seen.add(ref[2])
            if ref[2] == "step_doubling" and _caps_tripped(params, direction, ref[1]):
                gate_first.append((params, direction))
        try:
            curve = mm.integrate_profile(params)
        except IntegrationError:
            continue
        np.testing.assert_array_equal(curve.ode_residual_max, _ref_audit(curve))
    assert seen == set(STOP_REASONS)
    # a step that fails the gate and a cap stops on the gate, the earlier test
    assert gate_first


def test_float_power_keeps_the_bits_of_python_pow():
    # the stop pass evaluates rhs on arrays with np.float_power, the stepper
    # on floats with **; both must be the C library's pow on every element.
    # np.power is not: its SIMD loop differs in the last bit on some CPUs
    rng = np.random.default_rng(11)
    v = np.concatenate([rng.choice((-1.0, 1.0), 10_000) * 10 ** rng.uniform(-320, 308, 10_000),
                        [0.0, 5e-324, 1e-300, 1.0, 1e300, np.inf, np.nan]])
    for m in range(1, 11):
        e = (2 * m - 2) / (2 * m - 1)
        got = np.float_power(np.abs(v), e)
        ref = np.array([abs(x) ** e for x in v.tolist()])
        differ = np.flatnonzero(got.view(np.uint64) != ref.view(np.uint64))
        assert differ.size == 0, (
            f"np.float_power differs from float ** at m = {m} on {differ.size} "
            f"values, first |y| = {abs(v[differ[0]])!r}: the block stop pass "
            "no longer reproduces the float stepper")


def test_zero_powers_are_one_exactly():
    # at m = 1 the exponent (2m - 2)/(2m - 1) is 0.0, and the stepper, the
    # stop pass, rhs and SampledColumns leave |y| ** 0.0 out as 1.0: pow must
    # give exactly 1.0 for every y, or they stop reproducing the power
    assert (2 * 1 - 2) / (2 * 1 - 1) == 0.0
    v = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -1e-310, 1.0, -3.5, 1e308,
         math.inf, -math.inf, math.nan, -math.nan]
    for x in v:
        assert x ** 0.0 == 1.0 and abs(x) ** 0.0 == 1.0, x
    got = np.float_power(np.abs(np.array(v)), 0.0)
    assert got.tobytes() == np.ones(len(v)).tobytes(), got


def test_negation_keeps_the_bits_of_abs_under_pow():
    # the float stepper takes |y| as y or -y; for every y but NaN that is
    # abs(y), whose power it must keep bit for bit (signed zeros, subnormals
    # and infinities included)
    rng = np.random.default_rng(12)
    v = np.concatenate([rng.choice((-1.0, 1.0), 2_000) * 10 ** rng.uniform(-320, 308, 2_000),
                        [0.0, -0.0, 5e-324, -5e-324, np.inf, -np.inf]]).tolist()
    for m in range(2, 8):
        e = (2 * m - 2) / (2 * m - 1)
        got = np.array([(x if x >= 0.0 else -x) ** e for x in v])
        ref = np.array([abs(x) ** e for x in v])
        assert got.tobytes() == ref.tobytes(), m


# ---------------------------------------------------------------------------
# SampledColumns against per-profile evaluation
# ---------------------------------------------------------------------------


def _inside(profiles, rng, count):
    """count random points (count, n) inside every column's domain, then the
    nodes and ends of each column."""
    cols = [rng.uniform(*f.domain, count) for f in profiles]
    nodes = [np.resize(f.curve.u[::7], count) for f in profiles]
    ends = [np.resize(f.domain, count) for f in profiles]
    return np.concatenate([np.stack(c, axis=-1) for c in (cols, nodes, ends)])


def _assert_table_is_its_profiles(table, x):
    loop = ProfileColumns(table.profiles)
    for got, ref in zip(table.derivatives(x), (loop.d1(x), loop.d2(x))):
        assert got.shape == x.shape
        np.testing.assert_array_equal(got.view(np.uint64), ref.view(np.uint64))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("n", [2, 3])
def test_sampled_columns_are_their_profiles_bitwise(n, m):
    # n = 2: a profile and its mirror image; n = 3: one curve in every column
    ts = mm.assemble_separated_surface(m=m, n=n, c0=0.9, inits=[(0.6, 0.05)] * n,
                                       step=1e-3, max_steps=400)
    assert isinstance(ts.columns, SampledColumns)
    if n == 3:
        assert len({id(f.curve) for f in ts.profiles}) == 1
    x = _inside(ts.profiles, np.random.default_rng(n + 10 * m), 2000)
    _assert_table_is_its_profiles(ts.columns, x)
    _assert_table_is_its_profiles(ts.columns, x[:1200].reshape(30, 40, n))
    axes = ts.domain_axes(9 if n == 2 else 5)
    np.testing.assert_array_equal(mm.residual_grid(ts, axes), _ref_residual_grid(ts, axes))


def test_sampled_columns_of_different_lengths_steps_and_m():
    # columns of 3 to 1201 nodes, three steps, and m = 1 next to m = 2 and 3
    curves = [mm.integrate_profile(ProfileODEParams(c0=c0, k=k, m=m, y0=y0, u0=u0,
                                                    step=step, max_steps=cap))
              for c0, k, m, y0, u0, step, cap in (
                  (0.9, 1, 1, 0.6, 0.1, 1e-3, 600), (-0.4, 2, 2, -1.3, -0.3, 2e-3, 1),
                  (1.5, 3, 3, 0.8, 0.25, 5e-3, 50), (0.3, 1, 2, 0.5, 0.0, 1e-3, 300))]
    assert len({len(c.u) for c in curves}) == 4
    table = SampledColumns(curves)
    x = _inside(table.profiles, np.random.default_rng(3), 3000)
    _assert_table_is_its_profiles(table, x)
    _assert_table_is_its_profiles(table, x[0])


def test_sampled_columns_raise_the_per_column_domain_error():
    ts = mm.assemble_separated_surface(m=2, n=3, c0=0.9, inits=[(0.6, 0.05)] * 3,
                                       step=1e-3, max_steps=100)
    lo, hi = ts.profiles[0].domain
    loop = ProfileColumns(ts.profiles)
    for bad in ([lo, 0.5 * (lo + hi), hi + 0.5], [lo, np.nan, hi],
                [[lo, lo, lo], [lo - 1.0, hi, hi]]):
        x = np.array(bad)
        with pytest.raises(DomainError, match="outside") as ref:
            loop.d1(x)
        for call in (ts.columns.d1, ts.columns.derivatives,
                     lambda x: mm.minimality_residual(ts, x)):
            with pytest.raises(DomainError) as got:
                call(x)
            assert str(got.value) == str(ref.value)


def test_a_surface_with_other_profiles_keeps_the_per_column_table():
    base = mm.assemble_separated_surface(m=1, n=2, c0=1.0, inits=[(0.7, 0.0)] * 2,
                                         step=1e-3, max_steps=200)
    ts = mm.cylinder_over(base, 3)
    assert type(ts.columns) is ProfileColumns
    x = np.stack([np.linspace(*base.profiles[i].domain, 11) for i in (0, 1)]
                 + [np.linspace(-1.0, 1.0, 11)], axis=-1)
    d1, d2 = ts.columns.derivatives(x)
    np.testing.assert_array_equal(d1, np.stack([f.d1(x[:, i]) for i, f in
                                                enumerate(ts.profiles)], axis=-1))
    np.testing.assert_array_equal(d2, np.stack([f.d2(x[:, i]) for i, f in
                                                enumerate(ts.profiles)], axis=-1))
