"""The quadrature path against frozen copies of the per-column code it replaced.

The references below are the profiles in u of a quadrature chart as they were
one C3Function per column (f' = sign X^gamma and f'' = gamma X' X^(2 gamma - 1)
evaluated on each column alone), and the patch coordinates as they were
integrated at every node of the whole grid.  They are kept here, unchanged:
QuadratureColumns must give their bits in one pass over every column, and an
OBJ slice (patch_slice) and the deduplicated CSV coordinates must give the
bits of the whole patch.
"""

import json

import numpy as np
import pytest

import minmin as mm
from minmin import cli, meshes, separable
from minmin.errors import DomainError
from minmin.functions import C3Function, ProfileColumns
from minmin.separable import (
    QuadratureColumns,
    _QuadratureProfile,
    composite_simpson,
    patch_slice,
    xprofiles_of,
)

# ---------------------------------------------------------------------------
# frozen reference
# ---------------------------------------------------------------------------


def _ref_profile_in_u(xp, sign, m):
    """One column's profile in u, as QuadratureSurface.in_u built it."""
    gamma = (2 * m - 1) / (2 * m)
    sign = float(sign)

    def d1(u):
        return sign * xp.value(u) ** gamma

    def d2(u):
        return gamma * xp.deriv(u) * xp.value(u) ** (2 * gamma - 1.0)

    return C3Function(lambda u: separable._x_coordinates(xp, sign, u, 0.0, m), d1, d2)


def _ref_x_coordinates(xp, sign, us, u0, m):
    """sign * x(u) at every element of us, one integral per element."""
    exact = separable._x_antiderivative(xp, us, m)
    if exact is not None:
        return sign * exact
    g = (2 * m - 1) / (2 * m)
    bs = np.asarray(us, dtype=float)
    out = np.empty(bs.shape)
    flat_b, flat_out = bs.reshape(-1), out.reshape(-1)
    per_call = 4096 // 257
    for start in range(0, flat_b.size, per_call):
        flat_out[start:start + per_call] = composite_simpson(
            lambda t: xp.value(t) ** (-g), u0, flat_b[start:start + per_call], 256)
    return sign * out


# ---------------------------------------------------------------------------
# one table pass in u
# ---------------------------------------------------------------------------

# (kind, coefficient rows): X-profiles positive on [-1.2, 1.2]
_KINDS = {
    "affine": [(2.0, 2.0, 3.0, 2.5), (0.7, -1.1, 0.4, -0.3)],
    "quadratic": [(1.5, 2.0, 1.2, 3.0), (0.3, -0.4, 0.1, 0.6), (0.2, 0.5, -0.1, 0.05)],
    "exponential": [(1.0, 0.4, 2.0, 1.5), (1.0, 1.3, 0.2, 0.5)],
}
_SIGNS = (1, -1, -1, 1)


def _table_and_reference(kind, m):
    xs = [getattr(mm.XProfile, kind)(*c) for c in zip(*_KINDS[kind])]
    table = QuadratureColumns(xs, _SIGNS, m)
    return table, xs, [_ref_profile_in_u(x, s, m) for x, s in zip(xs, _SIGNS)]


def _bits(a):
    """The shape and the bytes of a float array."""
    a = np.asarray(a, dtype=float)
    return a.shape, a.tobytes()


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_table_in_u_has_the_bits_of_the_per_column_profiles(kind, m):
    table, xs, ref = _table_and_reference(kind, m)
    u = np.random.default_rng(34).uniform(-1.2, 1.2, (50, 4))
    for name in ("d1", "d2"):
        want = np.column_stack([getattr(f, name)(u[:, i]) for i, f in enumerate(ref)])
        assert _bits(getattr(table, name)(u)) == _bits(want)
        # and every column view, on arrays of any shape
        for i, f in enumerate(table):
            got = getattr(f, name)(u[:, i].reshape(5, 10))
            assert _bits(got) == _bits(want[:, i].reshape(5, 10))
    values = table(u)
    for i, f in enumerate(ref):
        assert _bits(values[:, i]) == _bits(f(u[:, i]))


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_table_slopes_at_stencil_cells_have_the_per_column_bits(kind, m):
    table, _, ref = _table_and_reference(kind, m)
    rng = np.random.default_rng(35)
    y = rng.uniform(-1.2, 1.2, (2, 2, 7, 3))
    col = rng.integers(0, 4, (2, 7, 3))
    row = np.arange(7)[:, None]
    want = ProfileColumns(ref).slopes_at(y, col, row)
    assert _bits(table.slopes_at(y, col, row)) == _bits(want)


@pytest.mark.parametrize("m", [1, 2, 3])
@pytest.mark.parametrize("kind", sorted(_KINDS))
def test_column_views_at_floats_take_the_one_element_array_bits(kind, m):
    # a float argument is evaluated as a one-element column of the table, so
    # its bits are those of the arrays (numpy's array pow, not Python's)
    table, _, ref = _table_and_reference(kind, m)
    for i, f in enumerate(table):
        for u in (-1.1, -0.25, 0.0, 0.6, 1.15):
            for name in ("d1", "d2"):
                got = getattr(f, name)(u)
                assert type(got) is float
                assert got == getattr(ref[i], name)(np.array([u]))[0]


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_quadrature_profile_in_u_is_its_column_of_the_surface_table(m, sign):
    xp = mm.XProfile.exponential(1.0, 1.0)
    f = _QuadratureProfile(xp, sign, m)
    ref = _ref_profile_in_u(xp, sign, m)
    u = np.linspace(-3.6, 3.6, 41)
    assert _bits(f.in_u.d1(u)) == _bits(ref.d1(u))
    assert _bits(f.in_u.d2(u)) == _bits(ref.d2(u))
    assert _bits(f.in_u(u)) == _bits(f.x_of_u(u))
    surface = mm.example_surface("6.5", m)
    rows = surface.sample_u(np.random.default_rng(36), 30)
    for i, g in enumerate(surface.fs):
        assert _bits(surface.in_u.d1(rows)[:, i]) == _bits(g.in_u.d1(rows[:, i]))


def test_a_table_of_mixed_kinds_is_refused():
    with pytest.raises(ValueError):
        QuadratureColumns([mm.XProfile.affine(1.0, 1.0), mm.XProfile.exponential(1.0, 1.0)],
                          (1, 1), 2)


# ---------------------------------------------------------------------------
# patches: only what is written, once per distinct value
# ---------------------------------------------------------------------------


def _data(example):
    if example == "params":
        xs = xprofiles_of("exponential", [1.5, 0.7, 1.0, 2.0], [0.5, 1.2, 1.0, 0.3])
        return xs, (1, -1, 1, -1)
    return mm.example_xprofiles(example)


_VIEWS = [((a, b), proj) for a in range(3) for b in range(3) if a != b
          for proj in ((0, 1, 2), (2, 3, 0), (3, 1, 2))]


@pytest.mark.parametrize("m", [1, 2])
@pytest.mark.parametrize("example", ["6.1", "6.5", "6.6", "params"])
def test_obj_slice_has_the_bits_of_the_whole_patch(example, m):
    xs, signs = _data(example)
    p = mm.NormParams(m, len(xs))
    axes = mm.feasible_axes(xs, 5)
    patch = mm.patch_from_xprofiles(xs, signs, axes, p)
    for view, proj in [(None, None)] + _VIEWS:
        got = patch_slice(xs, signs, axes, p, view, proj)
        assert _bits(got) == _bits(meshes.patch_vertices(patch, view, proj))


def test_obj_slice_of_a_four_axis_patch_has_the_bits_of_the_whole_patch():
    xs, signs = mm.example_xprofiles("6.3")
    p = mm.NormParams(2, 5)
    axes = mm.feasible_axes(xs, 4)
    patch = mm.patch_from_xprofiles(xs, signs, axes, p)
    for a in range(4):
        for b in range(4):
            if a != b:
                for proj in ((0, 1, 4), (4, 3, 2), (a, 4, b)):
                    got = patch_slice(xs, signs, axes, p, (a, b), proj)
                    assert _bits(got) == _bits(meshes.patch_vertices(patch, (a, b), proj))


@pytest.mark.parametrize("example", ["6.1", "6.3", "6.5", "6.6", "params"])
def test_patch_coordinates_have_the_bits_of_per_node_integration(example):
    xs, signs = _data(example)
    p = mm.NormParams(2, len(xs))
    axes = mm.feasible_axes(xs, 6)
    patch = mm.patch_from_xprofiles(xs, signs, axes, p)
    u_last = patch.us[..., -1]
    want = _ref_x_coordinates(xs[-1], signs[-1], u_last, float(u_last.flat[0]), p.m)
    assert _bits(patch.points[..., -1]) == _bits(want)
    for i, a in enumerate(axes):
        xi = _ref_x_coordinates(xs[i], signs[i], a, float(a[0]), p.m)
        index = tuple(slice(None) if j == i else 0 for j in range(p.n))
        assert _bits(patch.points[index + (i,)]) == _bits(xi)


def test_patch_integrates_each_distinct_dependent_value_once(monkeypatch):
    integrals = []
    real = separable.composite_simpson

    def count(fn, a, b, panels=256):
        integrals.append(np.size(b))
        return real(fn, a, b, panels)

    monkeypatch.setattr(separable, "composite_simpson", count)
    xs, signs = mm.example_xprofiles("6.5")
    axes = mm.feasible_axes(xs, 12)
    patch = mm.patch_from_xprofiles(xs, signs, axes, mm.NormParams(2, 4))
    distinct = np.unique(patch.us[..., -1]).size
    assert distinct < 12 ** 3 // 4
    assert sum(integrals) == distinct + 3 * 12


def test_default_obj_of_65_never_integrates_its_dependent_coordinate(monkeypatch):
    shapes = []
    real = separable._x_coordinates

    def record(xp, sign, us, u0, m):
        shapes.append(np.shape(us))
        return real(xp, sign, us, u0, m)

    monkeypatch.setattr(separable, "_x_coordinates", record)
    xs, signs = mm.example_xprofiles("6.5")
    p = mm.NormParams(2, 4)
    patch_slice(xs, signs, mm.feasible_axes(xs, 6), p)
    assert shapes == [(6,)] * 3
    shapes.clear()
    patch_slice(xs, signs, mm.feasible_axes(xs, 6), p, (2, 0), (0, 3, 1))
    assert sorted(shapes) == [(6,), (6,), (6, 6)]


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.mark.parametrize("flags, message", [
    (["--project", "0,1,9"], "projection (0, 1, 9) invalid for dim 4"),
    (["--slice", "0,7"], "invalid slice axes (0, 7) for 3 parameters"),
    (["--slice", "2,2"], "invalid slice axes (2, 2) for 3 parameters"),
    (["--project", "3,3,1"], "projection (3, 3, 1) invalid for dim 4"),
])
def test_bad_view_is_refused_before_any_patch_work(flags, message, tmp_path,
                                                   monkeypatch, capsys):
    def never(*args, **kwargs):
        raise AssertionError("the patch was computed")

    monkeypatch.setattr(separable, "_patch", never)
    monkeypatch.chdir(tmp_path)
    code, stdout, err = run(["mesh", "--example", "6.5", "--m", "2", "--grid", "100",
                             *flags, "--out", "bad.obj"], capsys)
    assert (code, stdout, err) == (2, "", f"error: {message}\n")
    assert not list(tmp_path.iterdir())


_TEN = {"kind": "affine", "p": [1] * 10, "q": [1] * 9 + [-1]}


@pytest.mark.parametrize("argv", [
    ["--example", "6.6", "--m", "2", "--span", "700", "--grid", "3"],
    ["--example", "6.1", "--span", "1e308", "--grid", "3"],
    ["--params-file", "ten.json", "--span", "4.4e307", "--grid", "3"],
    ["--params-file", "signs.json", "--grid", "3"],
    ["--example", "6.5", "--grid", "100000000000000000000"],
])
def test_obj_and_csv_refuse_alike(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ten.json").write_text(json.dumps(_TEN))
    (tmp_path / "signs.json").write_text(json.dumps(
        {"kind": "affine", "p": [1, 1, 1, 1], "q": [1, 1, 1, 1], "signs": [1, 1, 1, 2]}))
    seen = set()
    for out in ("big.csv", "big.obj"):
        code, stdout, err = run(["mesh", *argv, "--out", out], capsys)
        seen.add((code, stdout, err))
        assert code == 2 and err.count("\n") == 1
        assert not (tmp_path / out).exists()
    assert len(seen) == 1


def test_obj_projection_is_the_csv_rows_at_the_middle_node(tmp_path, monkeypatch,
                                                           capsys):
    # the CI check: the OBJ's x1, x2, x4 are the CSV's at the middle u3 node
    monkeypatch.chdir(tmp_path)
    assert run(["mesh", "--example", "6.5", "--grid", "5", "--project", "0,1,3",
                "--out", "s.obj"], capsys)[0] == 0
    assert run(["mesh", "--example", "6.5", "--grid", "5", "--out", "p.csv"], capsys)[0] == 0
    rows = [line.split(",") for line in (tmp_path / "p.csv").read_text().splitlines()[1:]]
    want = [f"v {r[4]} {r[5]} {r[7]}" for r in rows[2::5]]
    got = [line for line in (tmp_path / "s.obj").read_text().splitlines()
           if line.startswith("v ")]
    assert got == want


def test_patch_view_refuses_what_patch_vertices_refused():
    with pytest.raises(DomainError, match="invalid slice axes"):
        meshes.patch_view((3, 3, 3), 4, (0, 3))
    with pytest.raises(DomainError, match="projection"):
        meshes.patch_view((3, 3, 3), 4, None, (0, 1, 4))
    index, swap, project = meshes.patch_view((3, 4, 5), 4, (2, 0))
    assert (index, swap, project) == ((slice(None), 2, slice(None)), True, (0, 1, 2))
