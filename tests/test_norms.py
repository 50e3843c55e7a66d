import numpy as np
import pytest

import minmin as mm
from minmin.errors import (
    DegeneratePointError,
    DimensionMismatchError,
    DomainError,
)


def test_phi_values():
    assert mm.phi([1, 0, 0, 0], mm.NormParams(2, 4)) == 1.0
    assert mm.phi([1, 1, 1], mm.NormParams(1, 3)) == 3.0
    assert mm.phi([0.5, -0.5, 2], mm.NormParams(2, 3)) == pytest.approx(16.125, abs=0)


def test_norm_values():
    assert mm.norm_2m([3, 4, 0], mm.NormParams(1, 3)) == pytest.approx(5.0, rel=1e-15)
    for m in (1, 2, 3):
        assert mm.norm_2m([1, 0, 0, 0], mm.NormParams(m, 4)) == 1.0
    assert mm.norm_2m([1, 1, 1, 1], mm.NormParams(2, 4)) == pytest.approx(
        4.0 ** 0.25, rel=1e-15
    )


def test_norm_homogeneity_and_unit_rescale():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 6))
        p = mm.NormParams(m, dim)
        x = rng.uniform(-2, 2, dim)
        if np.all(x == 0):
            continue
        lam = float(rng.uniform(0.1, 3.0)) * float(rng.choice([-1.0, 1.0]))
        assert mm.norm_2m(lam * x, p) == pytest.approx(
            abs(lam) * mm.norm_2m(x, p), rel=1e-12
        )
        assert mm.phi(x / mm.norm_2m(x, p), p) == pytest.approx(1.0, rel=1e-12)


def test_triangle_inequality():
    rng = np.random.default_rng(12)
    for _ in range(100):
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 6))
        p = mm.NormParams(m, dim)
        x = rng.uniform(-2, 2, dim)
        y = rng.uniform(-2, 2, dim)
        assert mm.norm_2m(x + y, p) <= mm.norm_2m(x, p) + mm.norm_2m(y, p) + 1e-12


def test_grad_phi_values():
    assert np.allclose(mm.grad_phi([1, 0, 0], mm.NormParams(1, 3)), [2, 0, 0])
    assert np.allclose(mm.grad_phi([1, 1, 0], mm.NormParams(2, 3)), [4, 4, 0])
    assert np.allclose(mm.grad_phi([-1, 2, 0], mm.NormParams(2, 3)), [-4, 32, 0])


def test_grad_phi_matches_finite_differences():
    rng = np.random.default_rng(13)
    for m in (1, 2, 3):
        for dim in (3, 4, 5):
            p = mm.NormParams(m, dim)
            for _ in range(10):
                x = rng.uniform(-1.5, 1.5, dim)
                h = 1e-5 * max(1.0, float(np.max(np.abs(x))))
                g = mm.grad_phi(x, p)
                for i in range(dim):
                    e = np.zeros(dim)
                    e[i] = h
                    fd = (mm.phi(x + e, p) - mm.phi(x - e, p)) / (2 * h)
                    assert abs(g[i] - fd) <= 1e-6 * (1.0 + abs(fd))


def test_signed_pow_values():
    assert mm.signed_pow(-8.0, 1, 3) == pytest.approx(-2.0, rel=1e-15)
    assert mm.signed_pow(-2.0, 2, 1) == pytest.approx(4.0, rel=1e-15)
    # (|-32|^(1/5))^2 = 2^2
    assert mm.signed_pow(-32.0, 2, 5) == pytest.approx(4.0, rel=1e-15)
    assert mm.signed_pow(0.0, 3, 5) == 0.0
    assert mm.signed_pow(0.0, 0, 5) == 1.0
    assert mm.signed_pow(1.0, 0, 1) == 1.0


def test_signed_pow_errors():
    with pytest.raises(DomainError):
        mm.signed_pow(0.0, -2, 3)
    with pytest.raises(DomainError):
        mm.signed_pow(1.0, 1, 2)
    with pytest.raises(DomainError):
        mm.signed_pow(1.0, 1, -3)


def test_signed_pow_product_property():
    rng = np.random.default_rng(14)
    for _ in range(200):
        x = float(rng.uniform(0.05, 3.0) * rng.choice([-1.0, 1.0]))
        den = int(rng.choice([1, 3, 5, 7]))
        a = int(rng.integers(-4, 5))
        c = int(rng.integers(-4, 5))
        lhs = mm.signed_pow(x, a, den) * mm.signed_pow(x, c, den)
        rhs = mm.signed_pow(x, a + c, den)
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_signed_pow_positive_base_matches_pow():
    rng = np.random.default_rng(15)
    for _ in range(50):
        x = float(rng.uniform(0.01, 5.0))
        num = int(rng.integers(-5, 6))
        den = int(rng.choice([1, 3, 5]))
        assert mm.signed_pow(x, num, den) == pytest.approx(
            x ** (num / den), rel=1e-13
        )


def test_birkhoff_graph_flat():
    for m in (1, 2, 3):
        p = mm.NormParams(m, 4)
        bn = mm.birkhoff_normal_graph([0.0, 0.0, 0.0], p)
        assert np.allclose(bn.eta, [0, 0, 0, 1])
        assert bn.scale == 1.0


def test_birkhoff_graph_euclidean():
    p = mm.NormParams(1, 3)
    bn = mm.birkhoff_normal_graph([1.0, 1.0], p)
    assert np.allclose(bn.eta, np.array([-1.0, -1.0, 1.0]) / np.sqrt(3), atol=1e-15)


def test_birkhoff_graph_m2_unit_slope():
    # one unit slope, one flat direction: A = 2, eta = 2^(-1/4) (-1, 0, 1)
    p = mm.NormParams(2, 3)
    bn = mm.birkhoff_normal_graph([1.0, 0.0], p)
    assert bn.scale == pytest.approx(2.0 ** -0.25, rel=1e-15)
    assert np.allclose(bn.eta, 2.0 ** -0.25 * np.array([-1.0, 0.0, 1.0]))
    assert mm.phi(bn.eta, p) == pytest.approx(1.0, rel=1e-14)


def test_birkhoff_graph_unit_sphere_and_alignment():
    rng = np.random.default_rng(17)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 6))
        p = mm.NormParams(m, dim)
        g = rng.uniform(-2, 2, dim - 1)
        bn = mm.birkhoff_normal_graph(g, p)
        assert mm.phi(bn.eta, p) == pytest.approx(1.0, rel=1e-12)
        assert bn.eta[-1] > 0
        # grad(Phi) at eta is a positive multiple of (-g, 1)
        gp = mm.grad_phi(bn.eta, p)
        nu = np.append(-g, 1.0)
        factor = gp[-1]
        assert factor > 0
        assert np.allclose(gp, factor * nu, atol=1e-12 * max(1, np.max(np.abs(gp))))


def test_birkhoff_implicit_values():
    for m in (1, 2, 3):
        p = mm.NormParams(m, 4)
        bn = mm.birkhoff_normal_implicit([0.0, 0.0, 0.0, 1.0], p)
        assert np.allclose(bn.eta, [0, 0, 0, 1])
    p = mm.NormParams(1, 4)
    bn = mm.birkhoff_normal_implicit([1.0, 1.0, 1.0, 1.0], p)
    assert np.allclose(bn.eta, [0.5, 0.5, 0.5, 0.5])


def test_birkhoff_implicit_alignment():
    p = mm.NormParams(2, 3)
    grad_F = np.array([1.0, -1.0, 2.0])
    bn = mm.birkhoff_normal_implicit(grad_F, p)
    assert mm.phi(bn.eta, p) == pytest.approx(1.0, rel=1e-13)
    gp = mm.grad_phi(bn.eta, p)
    ratios = gp / grad_F
    assert np.all(ratios > 0)
    assert np.max(ratios) == pytest.approx(np.min(ratios), rel=1e-12)


def test_birkhoff_graph_implicit_agree():
    rng = np.random.default_rng(18)
    for _ in range(50):
        m = int(rng.integers(1, 4))
        dim = int(rng.integers(3, 6))
        p = mm.NormParams(m, dim)
        g = rng.uniform(-2, 2, dim - 1)
        eta_g = mm.birkhoff_normal_graph(g, p).eta
        eta_i = mm.birkhoff_normal_implicit(np.append(-g, 1.0), p).eta
        assert np.allclose(eta_g, eta_i, atol=1e-12)


def test_birkhoff_m1_is_euclidean_normal():
    rng = np.random.default_rng(19)
    for _ in range(50):
        dim = int(rng.integers(3, 6))
        p = mm.NormParams(1, dim)
        g = rng.uniform(-2, 2, dim - 1)
        nu = np.append(-g, 1.0)
        eta = mm.birkhoff_normal_graph(g, p).eta
        assert np.allclose(eta, nu / np.linalg.norm(nu), atol=1e-12)


def test_errors():
    p = mm.NormParams(2, 4)
    with pytest.raises(DimensionMismatchError):
        mm.phi([1, 2, 3], p)
    with pytest.raises(DimensionMismatchError):
        mm.birkhoff_normal_graph([1.0, 2.0], p)
    with pytest.raises(DegeneratePointError):
        mm.birkhoff_normal_implicit([0.0, 0.0, 0.0, 0.0], p)
    with pytest.raises(DomainError):
        mm.phi([1.0, np.nan, 0.0, 0.0], p)
    with pytest.raises(DomainError):
        mm.NormParams(0, 4)
    with pytest.raises(DomainError):
        mm.NormParams(1, 2)


def test_signed_pow_vec():
    out = mm.signed_pow(np.array([-8.0, 8.0, 0.0]), 1, 3)
    assert np.allclose(out, [-2.0, 2.0, 0.0])


def _frozen_scalar_signed_pow(x: float, num: int, den: int) -> float:
    """The float branch signed_pow once had, frozen: floats now take the array
    path, and must keep these bits."""
    if x == 0.0:
        return 0.0 if num > 0 else 1.0  # num < 0 is a domain error
    s = -1.0 if (x < 0.0 and num % 2 != 0) else 1.0
    return s * abs(x) ** (num / den)


def test_signed_pow_array_bitwise_equals_scalar():
    rng = np.random.default_rng(31)
    x = rng.normal(size=(40, 7)) * rng.choice([1e-3, 1.0, 1e3], size=(40, 7))
    x[0, :3] = [0.0, -0.0, 1.0]
    for m in (1, 2, 3, 4):
        for num, den in ((2 * m, 2 * m - 1), (1, 2 * m - 1), (-(2 * m - 2), 2 * m - 1),
                         (0, 2 * m - 1), (3, 5)):
            base = x if num >= 0 else x[1:]  # a zero base needs num >= 0
            out = mm.signed_pow(base, num, den)
            assert out.shape == base.shape
            scalar = np.array([_frozen_scalar_signed_pow(v, num, den)
                               for v in base.ravel().tolist()])
            assert out.tobytes() == scalar.tobytes(), (num, den)
            # a float gives a float, with the bits of its element
            floats = [mm.signed_pow(v, num, den) for v in base.ravel().tolist()]
            assert all(type(v) is float for v in floats)
            assert np.array(floats).tobytes() == scalar.tobytes(), (num, den)
            # a strided view gives the same bits as the contiguous array
            column = mm.signed_pow(base[:, 1], num, den)
            assert column.tobytes() == scalar[1::base.shape[1]].tobytes()
    with pytest.raises(DomainError):
        mm.signed_pow(np.array([1.0, 0.0]), -2, 3)
