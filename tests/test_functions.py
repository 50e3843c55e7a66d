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


def test_linear():
    f = C3Function.linear(2.5, -1.0)
    assert f(2.0) == 4.0
    assert f.d1(0.3) == 2.5
    assert f.d2(0.3) == 0.0
