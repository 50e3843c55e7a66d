"""The closed-form ansatz systems against a frozen copy of the expansion
engine they replaced.

The reference below is the dict-of-monomials engine of minmin.separable
(_poly_add, _poly_mul, _identity_terms and the two expanders) and its three
extractors as they were before the systems were written in closed form.  It is
kept here, unchanged apart from names, as the reference the closed forms must
reproduce: the same monomials after the drop rule, every coefficient within
1e-13 times the drop rule's scale, and the same refusals.
"""

import math

import numpy as np
import pytest

import minmin as mm
from minmin.errors import DimensionMismatchError, DomainError
from minmin.separable import (
    AnsatzSystem,
    _residuals_and_jacobian,
    quadratic_system_equations,
)

# ---------------------------------------------------------------------------
# frozen reference
# ---------------------------------------------------------------------------


def _poly_add(a: dict, b: dict, s: float = 1.0) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + s * v
    return out


def _poly_mul(a: dict, b: dict) -> dict:
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            k = tuple(x + y for x, y in zip(ka, kb))
            out[k] = out.get(k, 0.0) + va * vb
    return out


def _identity_terms(X, Xp, params) -> dict:
    """sum_j Xp_j (A - X_j) with A = sum_i X_i, for X_i and X_i' given as term
    dicts; terms of magnitude at most 1e-13 * scale are dropped, where
    scale = max(1, |params|)^2 over the profiles' parameters.  Raises
    DomainError unless every parameter (each is a coefficient of some X_i),
    scale and every term are finite: the rule would drop a NaN term, and every
    term under an infinite scale."""
    with np.errstate(over="ignore", invalid="ignore"):
        scale = max(1.0, max(abs(v) for v in params)) ** 2
        A = {}
        for Xi in X:
            A = _poly_add(A, Xi)
        total = {}
        for Xi, Xpi in zip(X, Xp):
            total = _poly_add(total, _poly_mul(Xpi, _poly_add(A, Xi, -1.0)))
    values = [scale, *total.values(), *(v for Xi in X for v in Xi.values())]
    if not all(map(math.isfinite, values)):
        raise DomainError("the parameters, their scale and the identity's terms "
                          "must be finite")
    return {k: v for k, v in total.items() if abs(v) > 1e-13 * scale}


def _expand_polynomial_identity(pqr, n: int) -> dict:
    """Expand the minimality identity for polynomial X_i over u_1..u_n.

    pqr is a list of n+1 coefficient tuples (constant, linear, quadratic);
    the last variable is eliminated by u_{n+1} = -(u_1 + ... + u_n).  Returns
    a dict mapping monomial exponent tuples to raw coefficients.
    """
    zero = (0,) * n

    def var(i: int) -> dict:
        if i < n:
            return {tuple(1 if j == i else 0 for j in range(n)): 1.0}
        return {tuple(1 if j == i2 else 0 for j in range(n)): -1.0 for i2 in range(n)}

    X, Xp = [], []
    for i, coeffs in enumerate(pqr):
        p0, q0, r0 = coeffs
        ui = var(i)
        Xi = _poly_add({zero: p0}, ui, q0)
        Xi = _poly_add(Xi, _poly_mul(ui, ui), r0)
        X.append(Xi)
        Xp.append(_poly_add({zero: q0}, ui, 2 * r0))
    return _identity_terms(X, Xp, [v for c in pqr for v in c])


def _expand_exponential_identity(q, r, n: int = 3) -> dict:
    """Expand the identity for X_i = q_i e^u + r_i e^-u over exponent vectors."""

    def term(i: int, sign: int) -> tuple:
        # exponent vector of e^(sign * u_i) after eliminating u_{n+1}
        if i < n:
            return tuple(sign if j == i else 0 for j in range(n))
        return tuple(-sign for _ in range(n))

    X, Xp = [], []
    for i in range(n + 1):
        X.append({term(i, +1): q[i], term(i, -1): r[i]})
        Xp.append({term(i, +1): q[i], term(i, -1): -r[i]})
    return _identity_terms(X, Xp, list(q) + list(r))


def _mono(n: int, *idx) -> tuple:
    e = [0] * n
    for i in idx:
        e[i] += 1
    return tuple(e)


def _ref_affine_system(n: int, p, q) -> AnsatzSystem:
    """Coefficients of the identity for affine X_i = p_i + q_i u_i, all q_i != 0.

    The identity collapses to constant + linear terms; the linear coefficient
    of u_l factors as (q_l - q_{n+1}) (sum of the remaining q).  It needs
    n >= 2, three profiles, as NormParams does.
    """
    if n < 2:
        raise DimensionMismatchError(f"an affine system needs n >= 2, got n = {n}")
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != (n + 1,) or q.shape != (n + 1,):
        raise DimensionMismatchError(f"need {n + 1} values of p and q")
    if np.any(q == 0.0):
        raise DomainError("affine profiles require q_i != 0")
    raw = _expand_polynomial_identity([(pi, qi, 0.0) for pi, qi in zip(p, q)], n)
    coeffs = {"1": raw.get((0,) * n, 0.0)}
    for l in range(n):
        coeffs[f"u{l + 1}"] = raw.get(_mono(n, l), 0.0)
    return AnsatzSystem(kind="affine", n=n, coefficients=coeffs, raw=raw)


_QUAD_TAGS = (
    "1",
    "u1", "u2", "u3",
    "u1^2", "u2^2", "u3^2",
    "u1*u2", "u1*u3", "u2*u3",
    "u1^2*u2+u1*u2^2", "u1^2*u3+u1*u3^2", "u2^2*u3+u2*u3^2",
    "u1*u2*u3",
)


def _ref_quadratic_system(p, q, r) -> AnsatzSystem:
    """Coefficients for quadratic X_i = p_i + q_i u_i + r_i u_i^2 (n = 3).

    Returns the fourteen canonical entries; mixed monomials are normalised by
    their multiplicity (2 for u_j u_k and the symmetric cubic pairs, 4 for
    u_1 u_2 u_3), so each entry is the common per-monomial coefficient.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (p.shape == q.shape == r.shape == (4,)):
        raise DimensionMismatchError("quadratic case needs 4 values of p, q, r")
    n = 3
    raw = _expand_polynomial_identity(list(zip(p, q, r)), n)
    scale = max(1.0, float(np.max(np.abs(np.concatenate([p, q, r]))))) ** 2
    coeffs = {"1": raw.get((0, 0, 0), 0.0)}
    for l in range(3):
        coeffs[f"u{l + 1}"] = raw.get(_mono(n, l), 0.0)
    for l in range(3):
        coeffs[f"u{l + 1}^2"] = raw.get(_mono(n, l, l), 0.0)
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        coeffs[f"u{a + 1}*u{b + 1}"] = raw.get(_mono(n, a, b), 0.0) / 2.0
    for (a, b) in ((0, 1), (0, 2), (1, 2)):
        c_ab = raw.get(_mono(n, a, a, b), 0.0)
        c_ba = raw.get(_mono(n, a, b, b), 0.0)
        if abs(c_ab - c_ba) > 1e-10 * scale:
            raise DomainError("symmetric cubic pair did not collapse; bad expansion")
        tag = f"u{a + 1}^2*u{b + 1}+u{a + 1}*u{b + 1}^2"
        coeffs[tag] = c_ab / 2.0
    coeffs["u1*u2*u3"] = raw.get((1, 1, 1), 0.0) / 4.0
    known = {
        (0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
        (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1),
        (2, 1, 0), (1, 2, 0), (2, 0, 1), (1, 0, 2), (0, 2, 1), (0, 1, 2),
        (1, 1, 1),
    }
    stray = [k for k in raw if k not in known]
    if stray:
        raise DomainError(f"unexpected monomials in quadratic expansion: {stray}")
    ordered = {tag: coeffs[tag] for tag in _QUAD_TAGS}
    return AnsatzSystem(kind="quadratic", n=3, coefficients=ordered, raw=raw)


_EXP_TAGS = (
    ("exp(+u1+u2)", (1, 1, 0)),
    ("exp(-u1-u2)", (-1, -1, 0)),
    ("exp(+u1+u3)", (1, 0, 1)),
    ("exp(-u1-u3)", (-1, 0, -1)),
    ("exp(+u2+u3)", (0, 1, 1)),
    ("exp(-u2-u3)", (0, -1, -1)),
)


def _ref_exponential_system(q, r) -> AnsatzSystem:
    """Coefficients for exponential X_i = q_i e^u + r_i e^-u (n = 3).

    The identity collapses to six exponentials e^(+/-(u_i + u_j)); each tag
    carries twice a difference of a q-product and an r-product.
    """
    q = np.asarray(q, dtype=float)
    r = np.asarray(r, dtype=float)
    if not (q.shape == r.shape == (4,)):
        raise DimensionMismatchError("exponential case needs 4 values of q and r")
    raw = _expand_exponential_identity(q, r)
    known = {vec for _, vec in _EXP_TAGS}
    stray = [k for k in raw if k not in known]
    if stray:
        raise DomainError(f"unexpected exponentials in expansion: {stray}")
    coeffs = {tag: raw.get(vec, 0.0) for tag, vec in _EXP_TAGS}
    return AnsatzSystem(kind="exponential", n=3, coefficients=coeffs, raw=raw)


# ---------------------------------------------------------------------------
# closed forms against the reference
# ---------------------------------------------------------------------------


def _scale(*params) -> float:
    return max(1.0, float(np.max(np.abs(np.concatenate(params))))) ** 2


def _assert_same_system(got, want, scale):
    assert list(got.coefficients) == list(want.coefficients)
    assert set(got.raw) == set(want.raw)
    for key, value in want.raw.items():
        assert abs(got.raw[key] - value) <= 1e-13 * scale, key
    for tag, value in want.coefficients.items():
        assert abs(got.coefficients[tag] - value) <= 1e-13 * scale, tag


def _random_draws(rng, kind, n, count):
    """count parameter sets of one kind: generic ones, and ones whose
    coefficients nearly or exactly vanish (the drop rule's cases)."""
    for i in range(count):
        if kind == "affine":
            p = rng.uniform(-2.0, 2.0, n + 1)
            q = rng.uniform(0.2, 2.0, n + 1) * (2.0 * rng.integers(0, 2, n + 1) - 1.0)
            if i % 4 == 1:  # equal q and zero-sum p: every coefficient vanishes
                q[:] = q[0]
                p[-1] = -p[:-1].sum()
            yield (n, p, q)
        elif kind == "quadratic":
            p, q, r = rng.uniform(-2.0, 2.0, (3, 4))
            if i % 4 == 1:  # the affine case: the r-only coefficients vanish
                r[:] = 0.0
            elif i % 4 == 2:  # r_1 = r_2 = r_3 = 0: the cubic block keeps r_4 terms
                r[:3] = 0.0
            yield (p, q, r)
        else:
            q, r = rng.uniform(-2.0, 2.0, (2, 4))
            if i % 4 == 1:  # 6.5's hyperbolic profiles, scaled: all six vanish
                q[:] = r[:] = q[0]
            yield (q, r)


_EXTRACT = {
    "affine": (mm.extract_affine_system, _ref_affine_system),
    "quadratic": (mm.extract_quadratic_system, _ref_quadratic_system),
    "exponential": (mm.extract_exponential_system, _ref_exponential_system),
}


@pytest.mark.parametrize("kind, n", [("affine", 2), ("affine", 3), ("affine", 4),
                                     ("affine", 5), ("quadratic", 3),
                                     ("exponential", 3)])
def test_closed_forms_match_the_frozen_engine(kind, n):
    rng = np.random.default_rng(2300 + 10 * n + len(kind))
    extract, reference = _EXTRACT[kind]
    for args in _random_draws(rng, kind, n, 200):
        params = args[1:] if kind == "affine" else args
        _assert_same_system(extract(*args), reference(*args), _scale(*params))


@pytest.mark.parametrize("kind, args", [
    ("affine", (3, [1, 1, 1, 1], [1, -1, -1, 1])),  # 6.1
    ("affine", (4, [1, 1, 3, 3, 1], [1, 1, -2, -2, 1])),  # 6.3
    ("affine", (2, [0.5, -0.25, -0.25], [1.5, 1.5, 1.5])),
    ("quadratic", ([1, 1, 1, 1], [1, -1, -1, 1], [0, 0, 0, 0])),
    ("exponential", ([1, 1, 1, 1], [1, 1, 1, 1])),  # 6.5
    ("exponential", ([1, 0, 0, 1], [0, 1, 1, 0])),  # 6.6
])
def test_exact_zero_systems_stay_positive_zero(kind, args):
    extract, reference = _EXTRACT[kind]
    got = extract(*args)
    assert got.raw == reference(*args).raw == {}
    for value in got.coefficients.values():
        # +0.0, never -0.0: the report prints it as +0.000000000000e+00
        assert value == 0.0 and math.copysign(1.0, value) == 1.0
        assert f"{value:+.12e}" == "+0.000000000000e+00"


def test_dropped_coefficients_read_positive_zero():
    # r = 0 zeroes the r-only entries, some as -0.0 before the drop rule
    sys_ = mm.extract_quadratic_system([0.3, -1.2, 0.7, 0.4], [-0.5, 1.1, 0.9, -1.3],
                                       [0.0, -0.0, 0.0, -0.0])
    for tag in ("u1^2", "u1*u2", "u1^2*u2+u1*u2^2", "u1*u2*u3"):
        assert math.copysign(1.0, sys_.coefficients[tag]) == 1.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("kind, args", [
    ("affine", (3, [_NAN, 1, 1, 1], [1, -1, -1, 1])),
    ("affine", (3, [1, 1, 1, 1], [1, -1, _INF, 1])),
    ("quadratic", ([1] * 4, [1, -1, -1, 1], [0, 0, _NAN, 0])),
    ("exponential", ([1, _NAN, 1, 1], [1] * 4)),
    ("affine", (3, [1e308, 1, 1, 1], [1, -1, -1, 1])),
    ("quadratic", ([1] * 4, [1, -1, -1, 1], [1e200] * 4)),
    # finite scale, but the doubled products 2 q_i q_j overflow
    ("exponential", ([1.3e154] * 4, [1.3e154] * 4)),
])
def test_refusals_keep_the_engine_messages(kind, args):
    extract, reference = _EXTRACT[kind]
    with pytest.raises(DomainError) as want:
        reference(*args)
    with pytest.raises(DomainError) as got:
        extract(*args)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("kind, args", [
    ("affine", (3, [1, 1, 1], [1, -1, -1, 1])),
    ("affine", (1, [1, 1], [1, 1])),
    ("quadratic", ([1] * 4, [1] * 3, [0] * 4)),
    ("exponential", ([1] * 4, [1] * 5)),
])
def test_shape_refusals_keep_the_engine_messages(kind, args):
    extract, reference = _EXTRACT[kind]
    with pytest.raises(DimensionMismatchError) as want:
        reference(*args)
    with pytest.raises(DimensionMismatchError) as got:
        extract(*args)
    assert str(got.value) == str(want.value)


def test_evaluate_matches_the_engine_system():
    rng = np.random.default_rng(2323)
    for _ in range(50):
        p, q, r = rng.uniform(-1.0, 1.0, (3, 4))
        u = rng.uniform(-0.5, 0.5, 3)
        u = np.append(u, -u.sum())
        got = mm.extract_quadratic_system(p, q, r).evaluate(u)
        want = _ref_quadratic_system(p, q, r).evaluate(u)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-13)


# ---------------------------------------------------------------------------
# the sweep's Jacobian
# ---------------------------------------------------------------------------


def _equations(theta):
    return quadratic_system_equations(theta[:4], theta[4:8], theta[8:])


def test_equations_are_the_extracted_coefficients():
    rng = np.random.default_rng(7)
    for _ in range(20):
        theta = rng.uniform(-2.0, 2.0, 12)
        want = list(_ref_quadratic_system(theta[:4], theta[4:8], theta[8:])
                    .coefficients.values())
        assert np.max(np.abs(_equations(theta) - want)) <= 1e-13 * _scale(theta)


def test_sweep_jacobian_matches_a_central_difference():
    rng = np.random.default_rng(11)
    theta = rng.uniform(-2.0, 2.0, (6, 12))
    f, jac = _residuals_and_jacobian(theta)
    assert f.shape == (6, 14) and jac.shape == (6, 14, 12)
    h = 1e-6
    for k, t in enumerate(theta):
        assert np.array_equal(f[k], _equations(t))
        fd = np.column_stack([(_equations(t + h * e) - _equations(t - h * e)) / (2 * h)
                              for e in np.eye(12)])
        assert np.max(np.abs(jac[k] - fd)) <= 1e-8


def test_sweep_jacobian_is_exact_for_the_quadratic_forms():
    # c(theta) = theta^T Q theta: Q by polarisation of the closed form, and the
    # Jacobian 2 Q theta
    eye = np.eye(12)
    diag = np.array([_equations(e) for e in eye])  # (12, 14)
    Q = np.empty((14, 12, 12))
    for i in range(12):
        for j in range(12):
            Q[:, i, j] = (_equations(eye[i] + eye[j]) - diag[i] - diag[j]) / 2.0
    Q[:, range(12), range(12)] = diag.T
    rng = np.random.default_rng(13)
    theta = rng.uniform(-2.0, 2.0, (4, 12))
    _, jac = _residuals_and_jacobian(theta)
    want = 2.0 * np.einsum("kij,nj->nki", Q, theta)
    assert np.max(np.abs(jac - want)) <= 1e-13
