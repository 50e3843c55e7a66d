import numpy as np
import pytest
from conftest import fd_derivative_error, neg_log_cos

from minmin.errors import DimensionMismatchError, DomainError
from minmin.functions import C3Function, PowerColumns, TaylorColumns, profile_columns
from minmin.sampling import taylor_profiles
from minmin.separable import example_surface
from minmin.translation import (
    ProfileODEParams,
    SampledColumns,
    SampledProfile,
    integrate_profile,
)


def test_polynomial_derivatives():
    f = C3Function.polynomial([1.0, -2.0, 0.5, 3.0])  # 1 - 2x + 0.5x^2 + 3x^3
    x = 0.7
    assert f(x) == pytest.approx(1 - 2 * x + 0.5 * x**2 + 3 * x**3, rel=1e-15)
    assert f.d1(x) == pytest.approx(-2 + x + 9 * x**2, rel=1e-15)
    assert f.d2(x) == pytest.approx(1 + 18 * x, rel=1e-15)


def test_taylor_pins_derivatives():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x0 = float(rng.uniform(-1, 1))
        d = rng.uniform(-2, 2, 4)
        f = C3Function.taylor(x0, d)
        assert f(x0) == pytest.approx(d[0], abs=1e-14)
        assert f.d1(x0) == pytest.approx(d[1], abs=1e-14)
        assert f.d2(x0) == pytest.approx(d[2], abs=1e-14)


def test_taylor_rows_are_the_scalar_profiles_bit_for_bit():
    # every row and column of a table, and of its column profiles, is the
    # scalar C3Function.taylor of its point and derivatives
    rng = np.random.default_rng(5)
    N, dim = 7, 3
    x0 = rng.uniform(-1, 1, (N, dim))
    x0[3] = 0.0  # the scalar profile skips the shift by x0 = 0
    d = rng.uniform(-2, 2, (4, N, dim))
    table = TaylorColumns.taylor(x0, d)
    # the points themselves and the oracle's stencil shape (2n, N, dim), n = 3
    for x in (x0, x0 + rng.uniform(-0.1, 0.1, (6, N, dim))):
        for name in ("__call__", "d1", "d2"):
            got = getattr(table, name)(x)
            assert got.shape == x.shape
            for i in range(dim):
                column = getattr(table[i], name)(x[..., i])
                assert column.tobytes() == got[..., i].tobytes()
                for r in range(N):
                    row = getattr(C3Function.taylor(float(x0[r, i]), d[:, r, i]), name)
                    assert got[..., r, i].tobytes() == row(x[..., r, i]).tobytes()
    # a C3Function is one polynomial: coefficients stacked by row are refused
    with pytest.raises(DimensionMismatchError):
        C3Function.taylor(0.0, d[:, :1, 0])


def _cells(rng, x, spread):
    """Stencil-like cells of the points x (N, dim): y (2, 2, N, n) near x in
    the columns col (2, N, n), every row's in any order and repeated, with the
    rows (N, 1) broadcast over them."""
    N, dim = x.shape
    col, row = rng.integers(0, dim, (2, N, dim - 1)), np.arange(N)[:, None]
    y = x[row, col] + rng.uniform(-spread, spread, (2, 2, N, dim - 1))
    return y, col, row


def _assert_table_is_its_profiles(table, x, cells, stacked):
    """The table's f, f', f'' columns at x and its slopes at the cells are the
    bits of its per-column profiles, evaluated column by column and cell by
    cell; a profile stacked by row takes its column of x whole, with the
    cell's value in its row."""
    assert len(table) == len(list(table)) == x.shape[-1]
    for name in ("__call__", "d1", "d2"):
        got = getattr(table, name)(x)
        assert got.shape == x.shape
        for i, f in enumerate(table):
            assert got[..., i].tobytes() == getattr(f, name)(x[..., i]).tobytes()
    y, col, row = cells
    got = table.slopes_at(y, col, row)
    assert got.shape == y.shape
    col, row = np.broadcast_arrays(col, row)
    for cell in np.ndindex(y.shape):
        i, r = col[cell[1:]], row[cell[1:]]
        if stacked:
            column = x[:, i].copy()
            column[r] = y[cell]
            want = table[i].d1(column)[r]
        else:
            want = table[i].d1(np.array([y[cell]]))[0]
        assert got[cell].tobytes() == np.float64(want).tobytes()


def _products(x, k):
    """x^k as k - 1 products of x, 1.0 for k = 0."""
    y = 1.0 if k == 0 else x
    for _ in range(k - 1):
        y = y * x
    return y


@pytest.mark.parametrize("m", (1, 2, 3))
def test_power_columns_are_their_profiles_bit_for_bit(m):
    rng = np.random.default_rng(40 + m)
    a, b = rng.uniform(-2, 2, 4), np.array([0.5, -1.5, 2.0, -1.0])
    table = PowerColumns(a, b, m)
    k = 2 * m
    for f, ai, bi in zip(table, a, b):
        x = rng.uniform(-1.5, 1.5, 6)
        # a x^k + b, (a k) x^(k-1) and ((a k)(k-1)) x^(k-2), powers by products
        want = (ai * _products(x, k) + bi, (ai * k) * _products(x, k - 1),
                np.broadcast_to((ai * k) * (k - 1) * _products(x, k - 2), x.shape))
        for name, ref in zip(("__call__", "d1", "d2"), want):
            assert getattr(f, name)(x).tobytes() == ref.tobytes()
    x = rng.uniform(-1.5, 1.5, (5, 4))
    _assert_table_is_its_profiles(table, x, _cells(rng, x, 0.1), stacked=False)


def test_taylor_columns_are_their_profiles_bit_for_bit():
    # oracle-compare's stacks: one cubic per row and column, and the graph's
    # height column, whose f' is -1 and f'' +0.0 exactly at any argument
    rng = np.random.default_rng(6)
    N, k = 5, 3
    at, derivs = rng.uniform(-1, 1, (N, k)), rng.uniform(-2, 2, (4, N, k))
    table = taylor_profiles(at, derivs)
    assert isinstance(table, TaylorColumns)
    for i, f in enumerate(table):
        x = at[:, i] + rng.uniform(-0.1, 0.1, (3, N))
        for name in ("__call__", "d1", "d2"):
            got = getattr(f, name)(x)
            for r in range(N):
                ref = getattr(C3Function.taylor(at[r, i], derivs[:, r, i]), name)(x[:, r])
                assert got[:, r].tobytes() == ref.tobytes()
    x = np.column_stack([at, rng.uniform(-2, 2, N)])
    graph = table.graph()
    _assert_table_is_its_profiles(graph, x, _cells(rng, x, 0.1), stacked=True)
    t = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    heights = np.zeros((len(t), N, k + 1))
    heights[..., k] = t[:, None]
    want = np.repeat(C3Function.linear(-1.0)(t)[:, None], N, axis=1)
    assert graph(heights)[..., k].tobytes() == want.tobytes()
    assert np.all(graph.d1(heights)[..., k] == -1.0)
    d2 = graph.d2(heights)[..., k]
    assert np.all(d2 == 0.0) and not np.signbit(d2).any()
    cells = graph.slopes_at(np.broadcast_to(t[:, None, None], (len(t), N, 1)),
                            np.array([[k]]), np.arange(N)[:, None])
    assert np.all(cells == -1.0)


def test_generic_columns_are_their_profiles_bit_for_bit():
    # any other profiles, one call per column: 6.6's log_abs and an ODE profile
    rng = np.random.default_rng(8)
    curve = integrate_profile(ProfileODEParams(c0=1.0, k=1, m=2, y0=1.0, u0=0.0,
                                               step=1e-2, max_steps=40))
    fs = tuple(example_surface("6.6", 2).fs) + (SampledProfile(curve),)
    table = profile_columns(fs)
    assert profile_columns(table) is table and list(table) == list(fs)
    x = np.column_stack([rng.uniform(0.3, 1.5, (6, 4)) * rng.choice([-1, 1], (6, 4)),
                         rng.uniform(-0.3, 0.3, 6)])
    _assert_table_is_its_profiles(table, x, _cells(rng, x, 0.01), stacked=False)


def test_scaled_chain_rule():
    f = C3Function.polynomial([0.0, 1.0, 0.0, 2.0])
    lam = 1.7
    g = f.scaled(lam)
    x = 0.5
    assert g(x) == pytest.approx(lam * f(x), rel=1e-14)
    assert g.d1(x) == pytest.approx(lam * f.d1(x), rel=1e-14)
    assert g.d2(x) == pytest.approx(lam * f.d2(x), rel=1e-14)


def test_scaled_domain():
    f = C3Function.polynomial([0.0, 1.0])
    f.domain = (-1.0, 2.0)
    assert f.scaled(-3.0).domain == (-1.0, 2.0)


def test_neg_log_cos():
    f = neg_log_cos()
    x = 0.45
    assert f.d1(x) == pytest.approx(np.tan(x), rel=1e-15)
    assert f.d2(x) == pytest.approx(1 + np.tan(x) ** 2, rel=1e-14)
    assert fd_derivative_error(f, [0.1, -0.7, 1.1]) <= 1e-5


def _power_profile(coeff, m):
    """coeff x^(2m), the column profile of a one-column power-sum table."""
    return PowerColumns([coeff], [0.0], m)[0]


def test_power_even_and_log_abs():
    for m in (1, 2, 3):
        f = _power_profile(-1.5, m)
        x = 0.8
        assert f(x) == pytest.approx(-1.5 * x ** (2 * m), rel=1e-15)
        assert fd_derivative_error(f, [0.5, -1.2]) <= 1e-6
    g = C3Function.log_abs(2.0, 0.5)
    assert g(-2.0) == pytest.approx(2.0 * np.log(1.0), abs=1e-15)
    assert g.d1(-2.0) == pytest.approx(-1.0, rel=1e-15)
    assert fd_derivative_error(g, [0.4, -0.9, 2.0]) <= 1e-5


@pytest.mark.parametrize("m", [1, 2, 3])
def test_power_even_products_match_pow(m):
    # the integer powers are products of x: within a few ulps of pow, on
    # negative and positive bases alike
    x = np.linspace(-1.7, 1.9, 37)
    f = _power_profile(-1.5, m)
    k = 2 * m
    for got, want in ((f(x), -1.5 * x**k), (f.d1(x), -1.5 * k * x ** (k - 1)),
                      (f.d2(x), -1.5 * k * (k - 1) * x ** (k - 2))):
        assert np.allclose(got, want, rtol=4e-16 * k, atol=0.0)
        assert [f(float(t)) for t in x] == f(x).tolist()


def test_power_even_m1_second_derivative_is_constant():
    # at m = 1, f'' = 2 coeff x^0: the 0th power is the constant 1, for a
    # float and for every element of an array (x = 0 included), never x
    f = _power_profile(-1.5, 1)
    assert f.d2(0.7) == f.d2(0.0) == f.d2(-3.0) == -3.0
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert f.d2(x).tolist() == [-3.0] * 5
    assert f.d2(x.reshape(1, 5)).shape == (1, 5)
    assert f.d1(x).tolist() == (-3.0 * x).tolist()
    assert f(x).tolist() == (-1.5 * x * x).tolist()
    table = PowerColumns([-1.5, 2.0], [0.0, 1.0], 1)
    assert table.d2(np.zeros((3, 2))).tolist() == [[-3.0, 4.0]] * 3


# ---------------------------------------------------------------------------
# column views: a table's profile i reads its one-column table
# ---------------------------------------------------------------------------


def _assert_view_takes_floats_and_any_shape(f, x):
    """f, f' and f'' of the column profile f: a float at the float x, and an
    array of that shape, with the float's bits, at x repeated in any shape."""
    for name in ("__call__", "d1", "d2"):
        want = getattr(f, name)(x)
        assert type(want) is float
        for shape in ((), (1,), (4,), (2, 1, 3)):
            got = getattr(f, name)(np.full(shape, x))
            assert isinstance(got, np.ndarray) and got.shape == shape
            assert got.tobytes() == np.full(shape, want).tobytes()


@pytest.mark.parametrize("m", (1, 2, 3))
def test_power_column_views_take_floats_and_arrays_of_any_shape(m):
    table = PowerColumns([-1.5, 0.5, 2.0], [0.25, 0.0, -1.0], m)
    for i, (f, x) in enumerate(zip(table, (-0.7, 0.0, 1.3))):
        _assert_view_takes_floats_and_any_shape(f, x)
        assert f(x) == table(np.full((1, 3), x))[0, i]


def test_taylor_column_views_take_floats_and_arrays_of_any_shape():
    # one row: any argument; N rows: any array whose last axis holds the rows
    rng = np.random.default_rng(9)
    one = TaylorColumns.taylor(rng.uniform(-1, 1, (1, 3)),
                               rng.uniform(-2, 2, (4, 1, 3)))
    for f in one:
        _assert_view_takes_floats_and_any_shape(f, 0.3)
    N = 4
    table = TaylorColumns.taylor(rng.uniform(-1, 1, (N, 2)),
                                 rng.uniform(-2, 2, (4, N, 2)))
    for i, f in enumerate(table):
        for shape in ((N,), (1, N), (2, 3, N)):
            x = rng.uniform(-1, 1, shape)
            for name in ("__call__", "d1", "d2"):
                got = getattr(f, name)(x)
                assert got.shape == shape
                stacked = np.stack([x, x], axis=-1)
                assert got.tobytes() == getattr(table, name)(stacked)[..., i].tobytes()


def _curves():
    """Three ODE curves of different lengths, steps, m and domains."""
    return [integrate_profile(ProfileODEParams(c0=c0, k=k, m=m, y0=y0, u0=u0,
                                               step=step, max_steps=cap))
            for c0, k, m, y0, u0, step, cap in (
                (0.9, 1, 1, 0.6, 0.1, 1e-3, 60), (-0.4, 2, 2, -1.3, -0.3, 2e-3, 20),
                (1.5, 1, 3, 0.8, 0.25, 5e-3, 9))]


def test_sampled_column_views_take_floats_and_arrays_of_any_shape():
    table = SampledColumns(_curves())
    for f in table:
        assert isinstance(f, SampledProfile)
        lo, hi = f.domain
        for x in (lo, 0.3 * lo + 0.7 * hi, hi):
            _assert_view_takes_floats_and_any_shape(f, float(x))


def test_sampled_columns_raise_the_failing_columns_domain_error():
    # columns 1 and 2 are both outside their domains: the table raises the
    # error of column 1 alone, for its first element outside
    curves = _curves()
    table = SampledColumns(curves)
    (lo0, hi0), (lo1, hi1), (lo2, hi2) = (c.domain for c in curves)
    x = np.array([[lo0, lo1, hi2 + 1.0], [hi0, hi1 + 0.5, lo2], [hi0, lo1 - 2.0, lo2]])
    with pytest.raises(DomainError) as alone:
        SampledColumns(curves[1:2]).d1(x[:, 1:2])
    assert str(alone.value) == (f"u = {x[1, 1]} outside covered profile domain "
                                f"[{lo1}, {hi1}]")
    for call in (table, table.d1, table.d2, table.derivatives):
        with pytest.raises(DomainError) as got:
            call(x)
        assert str(got.value) == str(alone.value)


def test_linear():
    f = C3Function.polynomial([-1.0, 2.5])
    assert f(2.0) == 4.0
    assert f.d1(0.3) == 2.5
    assert f.d2(0.3) == 0.0
