"""Jet engine checks: exact derivative propagation against finite differences."""

import numpy as np
import pytest

from tannolab import jets as J
from tannolab.fd import fd_gradient, fd_hessian, fd_third


def _field(x):
    u = 1 + x[0] * x[0] + x[1] * x[2] + 0.3 * x[2]
    return (2 * J.log(u) + J.sin(x[0] * x[1]) / u
            + J.sqrt(u) * J.exp(0.1 * x[2]) - x[1] ** 3 + J.powf(u, 0.7))


def _field_value(q):
    u = 1 + q[..., 0] * q[..., 0] + q[..., 1] * q[..., 2] + 0.3 * q[..., 2]
    return (2 * np.log(u) + np.sin(q[..., 0] * q[..., 1]) / u
            + np.sqrt(u) * np.exp(0.1 * q[..., 2]) - q[..., 1] ** 3 + u ** 0.7)


@pytest.fixture(scope="module")
def sample_point():
    rng = np.random.default_rng(0)
    return rng.normal(size=3) * 0.4


def test_value_matches_plain_evaluation(sample_point):
    T = J.eval_scalar_expr(_field, sample_point, 3)
    assert T[0] == pytest.approx(_field_value(sample_point), abs=1e-15)


def test_gradient_matches_fd(sample_point):
    T = J.eval_scalar_expr(_field, sample_point, 1)
    fd = fd_gradient(_field_value, sample_point)
    assert np.max(np.abs(T[1] - fd)) < 1e-9


def test_hessian_matches_fd(sample_point):
    T = J.eval_scalar_expr(_field, sample_point, 2)
    fd = fd_hessian(_field_value, sample_point)
    assert np.max(np.abs(T[2] - fd)) < 1e-8


def test_third_matches_fd(sample_point):
    T = J.eval_scalar_expr(_field, sample_point, 3)
    fd = fd_third(_field_value, sample_point)
    assert np.max(np.abs(T[3] - fd)) < 1e-7


def test_derivative_tensors_are_symmetric(sample_point):
    T = J.eval_scalar_expr(_field, sample_point, 3)
    assert np.allclose(T[2], T[2].T, atol=1e-14)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(T[3], T[3].transpose(perm), atol=1e-13)


def test_polynomial_exact_to_order_five():
    rng = np.random.default_rng(3)
    p = rng.normal(size=3)

    def poly(x):
        return x[0] ** 2 * x[1] ** 2 * x[2]

    T = J.eval_scalar_expr(poly, p, 5)
    # All fifth partials vanish except permutations of (0,0,1,1,2) -> 4.
    assert T[5][0, 0, 1, 1, 2] == pytest.approx(4.0, abs=1e-12)
    assert T[5][2, 1, 0, 1, 0] == pytest.approx(4.0, abs=1e-12)
    assert T[4][0, 0, 1, 1] == pytest.approx(4.0 * p[2], rel=1e-13)
    assert T[3][0, 0, 2] == pytest.approx(2.0 * p[1] ** 2, rel=1e-13)


def test_reciprocal_and_division(sample_point):
    def fn(x):
        return 1.0 / (2 + x[0] * x[0])

    def val(q):
        return 1.0 / (2 + q[..., 0] * q[..., 0])

    T = J.eval_scalar_expr(fn, sample_point, 3)
    assert T[0] == pytest.approx(val(sample_point), rel=1e-15)
    assert np.max(np.abs(T[3] - fd_third(val, sample_point))) < 1e-8


def test_integer_power_matches_repeated_multiplication(sample_point):
    x = J.seed_coordinates(sample_point, 4)
    a = (1 + x[0] + x[1]) ** 4
    b = (1 + x[0] + x[1]) * (1 + x[0] + x[1])
    b = b * b
    for ta, tb in zip(a.terms, b.terms):
        assert np.allclose(ta, tb, atol=1e-12)


def test_matrix_inverse_jets(sample_point):
    def mat(x):
        return [[2 + x[0] * x[0], x[0] * x[1]],
                [x[0] * x[1], 1 + J.sin(x[1])]]

    G = J.eval_matrix_expr(mat, sample_point[None], 3)
    H = J.tinv(G, 3)
    GH = J.tconv(G, H, "ab,bc->ac", 3)
    assert np.allclose(GH[0], np.eye(2)[None], atol=1e-14)
    for m in (1, 2, 3):
        assert np.max(np.abs(GH[m])) < 1e-13


def test_tconv_respects_leibniz_on_scalars():
    rng = np.random.default_rng(5)
    p = rng.normal(size=2) * 0.3
    x = J.seed_coordinates(p, 3)
    f = J.exp(x[0] * x[1])
    g = 1 + x[0] ** 2
    prod = f * g

    def val(q):
        return np.exp(q[..., 0] * q[..., 1]) * (1 + q[..., 0] ** 2)

    assert np.max(np.abs(prod.terms[3] - fd_third(val, p))) < 1e-7


def test_constant_jets_are_exact_zero():
    c = J.Jet.constant(3.5, 4, 3)
    assert c.terms[0] == 3.5
    for m in (1, 2, 3):
        assert not c.terms[m].any()
