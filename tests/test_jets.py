"""Jet engine checks: exact derivative propagation against finite differences,
and the monomial-basis engine against a full-tensor Leibniz reference."""

import itertools
import subprocess
import sys

import numpy as np
import pytest

from tannolab import jets as J
from tannolab.fd import fd_gradient, fd_hessian, fd_third
from tannolab.manifolds import cpn_height_function, random_polynomial_field


def _field(x):
    u = 1 + x[0] * x[0] + x[1] * x[2] + 0.3 * x[2]
    w = 2 + x[0] * x[1]
    return (2 * J.log(u) + J.log(w) / u + x[0] / w ** 2 - x[1] ** 3
            + x[2] * u ** -2)


def _field_value(q):
    u = 1 + q[..., 0] * q[..., 0] + q[..., 1] * q[..., 2] + 0.3 * q[..., 2]
    w = 2 + q[..., 0] * q[..., 1]
    return (2 * np.log(u) + np.log(w) / u + q[..., 0] / w ** 2 - q[..., 1] ** 3
            + q[..., 2] * u ** -2)


def _expr_terms(fn, p, order):
    """Derivative list of a Jet-arithmetic callable at p, (d,) or (N, d),
    with a point axis iff p has one."""
    c = J.eval_coeffs(fn, p, order)
    return J.expand(c[0] if np.ndim(p) == 1 else c, np.shape(p)[-1], order)


@pytest.fixture(scope="module")
def sample_point():
    rng = np.random.default_rng(0)
    return rng.normal(size=3) * 0.4


def test_value_matches_plain_evaluation(sample_point):
    T = _expr_terms(_field, sample_point, 3)
    assert T[0] == pytest.approx(_field_value(sample_point), abs=1e-15)


def test_gradient_matches_fd(sample_point):
    T = _expr_terms(_field, sample_point, 1)
    fd = fd_gradient(_field_value, sample_point)
    assert np.max(np.abs(T[1] - fd)) < 1e-9


def test_hessian_matches_fd(sample_point):
    T = _expr_terms(_field, sample_point, 2)
    fd = fd_hessian(_field_value, sample_point)
    assert np.max(np.abs(T[2] - fd)) < 1e-8


def test_third_matches_fd(sample_point):
    T = _expr_terms(_field, sample_point, 3)
    fd = fd_third(_field_value, sample_point)
    assert np.max(np.abs(T[3] - fd)) < 1e-7


def test_derivative_tensors_are_symmetric(sample_point):
    T = _expr_terms(_field, sample_point, 3)
    assert np.allclose(T[2], T[2].T, atol=1e-14)
    for perm in ((0, 2, 1), (1, 0, 2), (2, 1, 0)):
        assert np.allclose(T[3], T[3].transpose(perm), atol=1e-13)


def test_polynomial_exact_to_order_five():
    rng = np.random.default_rng(3)
    p = rng.normal(size=3)

    def poly(x):
        return x[0] ** 2 * x[1] ** 2 * x[2]

    T = _expr_terms(poly, p, 5)
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

    T = _expr_terms(fn, sample_point, 3)
    assert T[0] == pytest.approx(val(sample_point), rel=1e-15)
    assert np.max(np.abs(T[3] - fd_third(val, sample_point))) < 1e-8


def test_integer_power_matches_repeated_multiplication(sample_point):
    x = J.seed_coordinates(sample_point, 4)
    a = (1 + x[0] + x[1]) ** 4
    b = (1 + x[0] + x[1]) * (1 + x[0] + x[1])
    b = b * b
    for ta, tb in zip(a.terms, b.terms):
        assert np.allclose(ta, tb, atol=1e-12)


def test_powers_are_integers_only(sample_point):
    x = J.seed_coordinates(sample_point, 2)
    with pytest.raises(TypeError):
        (1 + x[0]) ** 0.5


def test_matrix_inverse_jets(sample_point):
    x = J.seed_coordinates(sample_point[None], 3)
    rows = [[2 + x[0] * x[0], x[0] * x[1]],
            [x[0] * x[1], 1 + J.log(2 + x[1])]]
    # Matrix jet with axes [z, row, col, derivatives...].
    G = [np.stack([np.stack([e.terms[m] for e in row], axis=1)
                   for row in rows], axis=1) for m in range(4)]
    g = J.compress(G, 3, 3)
    GH = J.cprod_terms(g, J.cinv(g, 3, 3), "ab,bc->ac", 3, 3)
    assert np.allclose(GH[0], np.eye(2)[None], atol=1e-14)
    for m in (1, 2, 3):
        assert np.max(np.abs(GH[m])) < 1e-13


def test_tconv_respects_leibniz_on_scalars():
    rng = np.random.default_rng(5)
    p = rng.normal(size=2) * 0.3
    x = J.seed_coordinates(p, 3)
    f = J.log(2 + x[0] * x[1])
    g = 1 + x[0] ** 2
    prod = f * g

    def val(q):
        return np.log(2 + q[..., 0] * q[..., 1]) * (1 + q[..., 0] ** 2)

    assert np.max(np.abs(prod.terms[3] - fd_third(val, p))) < 1e-7


def test_constant_jets_are_exact_zero():
    c = J.Jet.constant(3.5, 4, 3)
    assert c.terms[0] == 3.5
    for m in (1, 2, 3):
        assert not c.terms[m].any()


def test_import_builds_no_tables():
    # Product tables are built on first use, so importing costs nothing.
    code = ("import tannolab, tannolab.cli\n"
            "from tannolab import jets\n"
            "cached = [f for f in (jets._table, jets._padded_table, "
            "jets._degree_pairs, jets._full_index) if f.cache_info().currsize]\n"
            "raise SystemExit(len(cached))")
    assert subprocess.run([sys.executable, "-c", code]).returncode == 0


# ---------------------------------------------------------------------------
# The monomial engine against the full-tensor Leibniz rule.
# ---------------------------------------------------------------------------

_DERIV_LETTERS = "ABCDEFGHMN"


def _reference_leibniz_term(A, B, spec, m, j_min=0):
    """Order-m Leibniz term summed over full derivative tensors:
    (A.B)_{i1..im} = sum over subsets S of A_{iS} B_{iS^c}, as einsum outer
    products scattered onto every subset of the m derivative axes."""
    lhs, rhs = spec.split("->")
    a_spec, b_spec = lhs.split(",")
    out = 0.0
    for j in range(max(j_min, m - len(B) + 1), min(m, len(A) - 1) + 1):
        script = ("z" + a_spec + _DERIV_LETTERS[:j] + ",z" + b_spec
                  + _DERIV_LETTERS[j:m] + "->z" + rhs + _DERIV_LETTERS[:m])
        base = np.einsum(script, A[j], B[m - j])
        lead = base.ndim - m
        for subset in itertools.combinations(range(m), j):
            comp = [p for p in range(m) if p not in subset]
            src = [0] * m
            for k, pos in enumerate(subset):
                src[pos] = k
            for k, pos in enumerate(comp):
                src[pos] = j + k
            out = out + base.transpose(tuple(range(lead))
                                       + tuple(lead + q for q in src))
    return out


def _random_symmetric(rng, lead, d, m):
    """A tensor of shape lead + (d,)*m whose entries depend only on the
    multiset of the trailing indices, with random values."""
    if m == 0:
        return rng.normal(size=lead)
    grid = np.sort(np.indices((d,) * m).reshape(m, -1).T, axis=1)
    _, inverse = np.unique(grid, axis=0, return_inverse=True)
    values = rng.normal(size=lead + (int(inverse.max()) + 1,))
    return values[..., inverse.ravel()].reshape(lead + (d,) * m)


def _random_jet(rng, lead, d, order):
    return [_random_symmetric(rng, lead, d, m) for m in range(order + 1)]


def _assert_close(terms, reference, rtol=1e-13):
    assert len(terms) == len(reference)
    for m, (t, r) in enumerate(zip(terms, reference)):
        assert t.shape == r.shape, f"term {m} shape"
        assert np.max(np.abs(t - r)) <= rtol * np.max(np.abs(r)), f"term {m}"


D, ORDER, N = 6, 6, 2


@pytest.mark.parametrize("spec, lead_a, lead_b", [
    (",->", (N,), (N,)),
    ("ab,bc->ac", (N, 2, 3), (N, 3, 2)),
    ("ab,a->b", (N, 3, 2), (N, 3)),
    (",ab->ab", (N,), (N, 2, 2))])
def test_products_match_full_tensor_leibniz(spec, lead_a, lead_b):
    rng = np.random.default_rng(11)
    A = _random_jet(rng, lead_a, D, ORDER)
    B = _random_jet(rng, lead_b, D, ORDER)
    reference = [_reference_leibniz_term(A, B, spec, m) for m in range(ORDER + 1)]
    b = J.compress(B, D, ORDER)
    _assert_close(J.cprod_terms(J.compress(A, D, ORDER), b, spec, D, ORDER),
                  reference)
    # A shorter factor stands for zero higher terms.
    short = [_reference_leibniz_term(A[:3], B, spec, m) for m in range(ORDER + 1)]
    _assert_close(J.cprod_terms(J.compress(A[:3], D, 2), b, spec, D, ORDER), short)


def _generic_positive(x):
    """A degree-6 polynomial touching every coordinate, positive near 0."""
    s = x[0] + 0.5 * x[1] - 0.3 * x[2] + 0.2 * x[3] * x[4] + 0.4 * x[5]
    return 2 + s + 0.3 * s * s + 0.1 * (x[1] * x[2] - x[3]) ** 3 * s ** 3


def _reference_reciprocal(u):
    h = [1.0 / u[0]]
    for m in range(1, len(u)):
        s = _reference_leibniz_term(u, h, ",->", m, j_min=1)
        h.append(-h[0].reshape(h[0].shape + (1,) * m) * s)
    return h


def _reference_log(u):
    v = _reference_reciprocal(u)
    grad = [u[m + 1] for m in range(len(u) - 1)]
    return [np.log(u[0])] + [_reference_leibniz_term(v, grad, ",a->a", m - 1)
                             for m in range(1, len(u))]


def test_reciprocal_and_log_match_full_tensor_leibniz():
    P = np.random.default_rng(12).uniform(-0.3, 0.3, size=(N, D))
    u = _expr_terms(_generic_positive, P, ORDER)
    _assert_close(_expr_terms(lambda x: 1 / _generic_positive(x), P, ORDER),
                  _reference_reciprocal(u))
    _assert_close(_expr_terms(lambda x: J.log(_generic_positive(x)), P, ORDER),
                  _reference_log(u))


def test_matrix_inverse_matches_full_tensor_leibniz():
    rng = np.random.default_rng(13)
    G = _random_jet(rng, (N, 3, 3), D, ORDER)
    G[0] = G[0] + 4 * np.eye(3)
    H = [np.linalg.inv(G[0])]
    for m in range(1, ORDER + 1):
        S = _reference_leibniz_term(G, H, "ab,bc->ac", m, j_min=1)
        H.append(-np.einsum("zab,zbc...->zac...", H[0], S))
    _assert_close(J.expand(J.cinv(J.compress(G, D, ORDER), D, ORDER), D, ORDER), H)


@pytest.mark.parametrize("field", [random_polynomial_field(4, 17),
                                   cpn_height_function(2, 1)],
                         ids=["cubic", "cp2_height1"])
@pytest.mark.parametrize("k", [1, 2])
def test_partials_match_tgrad_of_expanded_jets(field, k):
    # The coefficient at gamma of d^beta F, (gamma + beta)!/gamma! F_{gamma+beta},
    # expanded, against k gradients of the field's derivative list.
    d, top = field.dim, 3
    P = np.random.default_rng(14).uniform(-0.5, 0.5, size=(N, d))
    fj = field.jets(P, top + k)
    F = J.compress(fj, d, top + k)
    index, factor = J.partials(d, k, top)
    # The gradient's list is the field's shifted by one: trailing axes are
    # symmetric, so the first one reads as the gradient component.
    want = fj[k:]
    got = J.expand(np.take(F, index, axis=-1) * factor, d, top)
    _assert_close(got, want)
    if k == 1:
        _assert_close(J.expand(J.cgrad(F, d), d, top), want)
