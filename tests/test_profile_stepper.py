"""The float stepper and array-evaluated profiles against a frozen copy of the
code they replaced.

The reference below is the profile ODE integrator as it was when it advanced a
two-element numpy state, evaluated the right-hand side through the scalar
signed_pow, and filled f'' one sample at a time; with it the per-sample
SampledProfile evaluation and the per-node residual grid and vertex loops.  It
is kept here, unchanged, as the reference the new code must reproduce bit for
bit: the arithmetic of every element is the same, only its container changed.
"""

import numpy as np
import pytest
from conftest import STOP_CASES

import minmin as mm
from minmin import meshes
from minmin.errors import IntegrationError
from minmin.norms import signed_pow
from minmin.translation import SLOPE_CAP, SLOPE_FLOOR, STEP_RESIDUAL_CAP

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
    prof = curve.to_c3()
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
    prof = mm.integrate_profile(mm.ProfileODEParams(
        c0=0.9, k=1, m=1, y0=0.6, step=1e-3, max_steps=100)).to_c3()
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
    u = verts[3, 5, :2]
    assert ts.value(u) == verts[3, 5, 2]
    np.testing.assert_array_equal(ts.grad(verts[..., :2])[3, 5], ts.grad(u))
    np.testing.assert_array_equal(ts.grad(u), [f.d1(float(t)) for f, t in zip(ts.profiles, u)])
