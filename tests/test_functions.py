import numpy as np
import pytest
from conftest import fd_derivative_error

from minmin.functions import C3Function


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
    rng = np.random.default_rng(5)
    N = 7
    x0 = rng.uniform(-1, 1, N)
    x0[3] = 0.0  # the scalar profile skips the shift by x0 = 0
    d = rng.uniform(-2, 2, (4, N))
    stacked = C3Function.taylor(x0, d)
    rows = [C3Function.taylor(float(x0[i]), d[:, i]) for i in range(N)]
    # a float x0 with one column of derivatives is a batch of one
    one = C3Function.taylor(float(x0[0]), d[:, :1])
    # the points themselves and the oracle's stencil shape (2n, N), n = 3
    for x in (x0, x0 + rng.uniform(-0.1, 0.1, (6, N))):
        for name in ("__call__", "d1", "d2"):
            got = getattr(stacked, name)(x)
            assert got.shape == x.shape
            for i, row in enumerate(rows):
                assert got[..., i].tobytes() == getattr(row, name)(x[..., i]).tobytes()
            got = getattr(one, name)(x[..., :1])
            assert got.tobytes() == getattr(rows[0], name)(x[..., :1]).tobytes()


def test_taylor_rows_give_the_stack_slopes_bit_for_bit():
    # d1_rows(rows) evaluates f' of any rows, in any order and repeated, on an
    # array whose last axis runs over those rows
    rng = np.random.default_rng(6)
    N = 5
    x0 = rng.uniform(-1, 1, N)
    stacked = C3Function.taylor(x0, rng.uniform(-2, 2, (4, N)))
    rows = np.array([3, 0, 0, 4, 1, 3, 2])
    x = x0[rows] + rng.uniform(-0.1, 0.1, (2, len(rows)))
    got = stacked.d1_rows(rows)(x)
    for e, r in enumerate(rows):
        whole = x0.copy()
        whole[r] = x[0, e]
        assert got[0, e].tobytes() == stacked.d1(whole)[r].tobytes()
        whole[r] = x[1, e]
        assert got[1, e].tobytes() == stacked.d1(whole)[r].tobytes()
    # and so do its rescaled and shifted stacks
    for g in (stacked.scaled(-1.5, 0.5), stacked.shifted(2.0)):
        got = g.d1_rows(rows)(x)
        for e, r in enumerate(rows):
            whole = x0.copy()
            whole[r] = x[0, e]
            assert got[0, e].tobytes() == g.d1(whole)[r].tobytes()
    # a profile that is not stacked has one f' for every row
    f = C3Function.polynomial([1.0, 2.0])
    assert f.d1_rows(rows) == f.d1


def test_scaled_chain_rule():
    f = C3Function.polynomial([0.0, 1.0, 0.0, 2.0])
    lam, mu = 1.7, -0.6
    g = f.scaled(lam, mu)
    x = 0.5
    assert g(x) == pytest.approx(lam * f(mu * x), rel=1e-14)
    assert g.d1(x) == pytest.approx(lam * mu * f.d1(mu * x), rel=1e-14)
    assert g.d2(x) == pytest.approx(lam * mu**2 * f.d2(mu * x), rel=1e-14)


def test_scaled_domain():
    f = C3Function.polynomial([0.0, 1.0])
    f.domain = (-1.0, 2.0)
    g = f.scaled(1.0, 2.0)
    assert g.domain == (-0.5, 1.0)
    h = f.scaled(1.0, -1.0)
    assert h.domain == (-2.0, 1.0)


def test_neg_log_cos():
    f = C3Function.neg_log_cos()
    x = 0.45
    assert f.d1(x) == pytest.approx(np.tan(x), rel=1e-15)
    assert f.d2(x) == pytest.approx(1 + np.tan(x) ** 2, rel=1e-14)
    assert fd_derivative_error(f, [0.1, -0.7, 1.1]) <= 1e-5


def test_power_even_and_log_abs():
    for m in (1, 2, 3):
        f = C3Function.power_even(-1.5, m)
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
    f = C3Function.power_even(-1.5, m)
    k = 2 * m
    for got, want in ((f(x), -1.5 * x**k), (f.d1(x), -1.5 * k * x ** (k - 1)),
                      (f.d2(x), -1.5 * k * (k - 1) * x ** (k - 2))):
        assert np.allclose(got, want, rtol=4e-16 * k, atol=0.0)
        assert [f(float(t)) for t in x] == f(x).tolist()


def test_power_even_m1_second_derivative_is_constant():
    # at m = 1, f'' = 2 coeff x^0: the 0th power is the constant 1, for a
    # float and for every element of an array (x = 0 included), never x
    f = C3Function.power_even(-1.5, 1)
    assert f.d2(0.7) == f.d2(0.0) == f.d2(-3.0) == -3.0
    x = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert f.d2(x).tolist() == [-3.0] * 5
    assert f.d2(x.reshape(1, 5)).shape == (1, 5)
    assert f.d1(x).tolist() == (-3.0 * x).tolist()
    assert f(x).tolist() == (-1.5 * x * x).tolist()


def test_linear():
    f = C3Function.linear(2.5, -1.0)
    assert f(2.0) == 4.0
    assert f.d1(0.3) == 2.5
    assert f.d2(0.3) == 0.0
