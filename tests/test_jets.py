"""Jet engine checks: exact derivative propagation against finite differences,
and the monomial-basis engine against a full-tensor Leibniz reference."""

import itertools
import subprocess
import sys
import weakref

import numpy as np
import pytest

from tannolab import jets as J
from tannolab.charts import KahlerChart, _first_kind
from tannolab.errors import SingularMetric
from tannolab.fd import fd_gradient, fd_hessian, fd_third
from tannolab.manifolds import (cpn_height_function, fubini_study_chart,
                                random_polynomial_field, sample_points)


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
    GH = J.expand(J.cprod([g, J.cinv(g, 3, 3)], "ab,bc->ac", 3, 3), 3, 3)
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
    _assert_close(J.expand(J.cprod([J.compress(A, D, ORDER), b], spec, D, ORDER),
                           D, ORDER), reference)
    # A shorter factor stands for zero higher terms.
    short = [_reference_leibniz_term(A[:3], B, spec, m) for m in range(ORDER + 1)]
    _assert_close(J.expand(J.cprod([J.compress(A[:3], D, 2), b], spec, D, ORDER),
                           D, ORDER), short)


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


# ---------------------------------------------------------------------------
# Solves: v with g v = b, degree by degree, and the inverse as its identity
# case.
# ---------------------------------------------------------------------------

_SOLVE_CHARTS = ["cp1", "cp2", "cp3", "cp11"]


def _metric_at(request, name, top, count=5):
    """A chart's metric coefficients through ``top`` at seeded points."""
    if name in ("cp11", "flat11"):
        chart = request.getfixturevalue(name)
    else:
        chart = fubini_study_chart(int(name[2])).rescaled(0.25)
    P = np.array(sample_points(chart, count, 9, 0.7 * chart.domain_radius))
    return chart, P, chart.metric_coeffs(P, top)


def _right_hand_sides(rng, g, d, top):
    """A vector and a matrix right-hand side for g, through ``top``."""
    n, k = len(g), g.shape[1]
    return [rng.normal(size=(n, k, J.size(d, top))),
            rng.normal(size=(n, k, 3, J.size(d, top)))]


def _reference_cinv(g, d, order, inv0):
    """g^-1 by the inverse's own recursion, h_m = -h_0 sum_{j>=1} g_j h_{m-j},
    written apart from csolve."""
    tg = min(J.top_of(d, g.shape[-1]), order)
    h = np.zeros((len(inv0), J.size(d, order) + 1) + inv0.shape[1:])
    h[:, 0] = inv0
    if tg:
        axes, _, nk, _ = J._plan("ab,bc->ac")
        x = J._stack(g, d, tg, axes, nk)
        for m in range(1, order + 1):
            table = J._padded_table(d, m, 1, min(tg, m), m - 1)
            S = J._pair_matmul(x, h, table,
                               np.empty((len(h), len(table[0])) + inv0.shape[1:]))
            h[:, J.size(d, m - 1):J.size(d, m)] = -np.matmul(inv0[:, None], S)
    return np.ascontiguousarray(np.moveaxis(h[:, :-1], 1, -1))


@pytest.mark.parametrize("name", _SOLVE_CHARTS)
def test_solve_matches_the_inverse_times_b(request, name):
    chart, _, g = _metric_at(request, name, 4)
    d, rng = chart.dim, np.random.default_rng(41)
    for order in range(5):
        for b in _right_hand_sides(rng, g, d, order):
            spec = "ab,b->a" if b.ndim == 3 else "ab,bc->ac"
            want = J.cprod([J.cinv(g, d, order), b], spec, d, order)
            got = J.csolve(g, [b], d, order)
            assert got.shape == want.shape == b.shape
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("name", _SOLVE_CHARTS)
def test_solve_batch_and_prefix_bits(request, name):
    # Each point gets the bits it gets alone, and order k is a bit-exact
    # prefix of order k + 1.
    chart, _, g = _metric_at(request, name, 4)
    d, rng = chart.dim, np.random.default_rng(42)
    for b in _right_hand_sides(rng, g, d, 4):
        whole = [J.csolve(g, [b], d, order) for order in range(5)]
        for i in range(len(g)):
            assert np.array_equal(J.csolve(g[i:i + 1], [b[i:i + 1]], d, 4),
                                  whole[4][i:i + 1])
        for order in range(4):
            assert np.array_equal(whole[order],
                                  whole[order + 1][..., :J.size(d, order)])


@pytest.mark.parametrize("name", _SOLVE_CHARTS)
def test_inverse_keeps_its_bits(request, name):
    # cinv is csolve on the identity: it gives the bits of the inverse's own
    # recursion, and so does the chart's g^-1 (metric_inv_jets).
    chart, P, g = _metric_at(request, name, 4)
    d = chart.dim
    inv0 = np.linalg.inv(g[..., 0])
    for order in range(5):
        want = _reference_cinv(g, d, order, inv0)
        assert np.array_equal(J.cinv(g, d, order, inv0), want)
        ref = J.expand(_reference_cinv(g[..., :J.size(d, order)], d, order, inv0),
                       d, order)
        for got, term in zip(chart.metric_inv_jets(P, order), ref, strict=True):
            assert np.array_equal(got, term)


@pytest.mark.parametrize("name", _SOLVE_CHARTS + ["flat11"])
def test_gamma_solve_equals_the_inverse_times_the_first_kind_symbols(request,
                                                                     name):
    # Gamma is one solve with g of the first-kind symbols: at the points
    # it has the bits of cinv's g^-1 times them, and through order 2 it is
    # within 1e-13 of that product.
    chart, P, g = _metric_at(request, name, 3)
    d = chart.dim
    want = J.cprod([J.cinv(g, d, 2), _first_kind(J.cgrad(g, d))],
                   "kl,lij->kij", d, 2)
    assert np.array_equal(chart.at(P, 1).gamma0, want[..., 0])
    got = chart.at(P, 3).gamma_coeffs(2)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_solve_on_a_singular_metric_raises():
    chart = KahlerChart.from_constant(np.diag([1.0, 1e-14]), name="degenerate")
    geo = chart.at(np.zeros((1, 2)), 1)
    with pytest.raises(SingularMetric):
        geo.solve_coeffs([np.ones((1, 2, 3))], 1)
    with pytest.raises(SingularMetric):
        geo.ginv0
    with pytest.raises(SingularMetric):
        geo.gamma_coeffs()


def test_a_solve_frees_its_right_hand_side_once_stacked(monkeypatch):
    # The solve empties the list it is given, so a right-hand side nothing
    # else refers to is gone before the degree loop runs.
    rng = np.random.default_rng(44)
    g = _random_coeffs(rng, (3, 3), 3, 2)
    g[..., 0] += 4 * np.eye(3)
    rhs = [_random_coeffs(rng, (3, 2), 3, 2)]
    ref, seen, stack = weakref.ref(rhs[0]), [], J._stack

    def spy(*args):
        seen.append(ref())
        return stack(*args)

    monkeypatch.setattr(J, "_stack", spy)
    J.csolve(g, rhs, 3, 2)
    assert rhs == [] and seen == [None]


def test_solve_with_a_constant_metric_scales_b():
    # A constant g has no degree >= 1 terms: v_m = g_0^-1 b_m at every degree.
    rng = np.random.default_rng(43)
    g0 = np.diag([2.0, 4.0, 4.0, 8.0])
    g = np.repeat(g0[None, :, :, None], 3, axis=0)
    b = rng.normal(size=(3, 4, J.size(4, 2)))
    assert np.array_equal(J.csolve(g, [b], 4, 2), b / np.diag(g0)[:, None])


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


# ---------------------------------------------------------------------------
# Tensor-valued products: the gather budget, the block layout, ownership.
# ---------------------------------------------------------------------------

_SPECS = [(",->", (), ()), ("ab,bc->ac", (2, 3), (3, 4)),
          ("ab,bc->ca", (2, 3), (3, 4)), ("kij,k->ij", (3, 2, 2), (3,)),
          (",ab->ab", (), (2, 3))]


def _random_coeffs(rng, lead, d, top, n=4):
    return rng.normal(size=(n,) + lead + (J.size(d, top),))


def _products_under_budget(budget, monkeypatch):
    """cprod (and its expansion) and cinv on seeded random coefficient
    arrays, and Gamma on CP(1)-CP(3), with GATHER_CHUNK set to ``budget``."""
    monkeypatch.setattr(J, "GATHER_CHUNK", budget)
    rng = np.random.default_rng(31)
    d, order = 3, 4
    out = []
    for spec, lead_a, lead_b in _SPECS:
        a = _random_coeffs(rng, lead_a, d, order)
        b = _random_coeffs(rng, lead_b, d, order - 1)
        out.append(J.cprod([a, b], spec, d, order))
        out.extend(J.expand(J.cprod([a, b], spec, d, order), d, order))
    g = _random_coeffs(rng, (3, 3), d, order)
    g[..., 0] += 4 * np.eye(3)
    out.append(J.cinv(g, d, order))
    for n in (1, 2, 3):
        chart = fubini_study_chart(n)
        P = np.array(sample_points(chart, 20, 5))
        for order in (1, 2):
            out.extend(J.expand(chart.at(P, order + 1).gamma_coeffs(order),
                                chart.dim, order))
    return out


def test_products_do_not_depend_on_the_gather_budget(monkeypatch):
    # GATHER_CHUNK = 1 takes every output alone; 1 << 40 takes each degree
    # in one run; the default splits Gamma's degree-2 block on CP(3).
    default = J.GATHER_CHUNK
    reference = _products_under_budget(default, monkeypatch)
    for budget in (1, 1 << 40):
        got = _products_under_budget(budget, monkeypatch)
        assert len(got) == len(reference)
        for a, b in zip(got, reference):
            assert a.shape == b.shape and np.array_equal(a, b), budget


@pytest.mark.parametrize("spec, lead_a, lead_b", _SPECS)
def test_product_blocks_equal_the_expanded_product(spec, lead_a, lead_b):
    # The product's degree blocks are cprod's coefficients; a degree-0 or
    # -1 block is its own derivative term without a copy, and every block
    # expands to expand(cprod(...)) bit for bit.
    rng = np.random.default_rng(32)
    d, order = 3, 4
    a = _random_coeffs(rng, lead_a, d, 2)
    b = _random_coeffs(rng, lead_b, d, 1)       # the product ends at degree 3
    product = J.cprod([a, b], spec, d, order)
    want = J.expand(product, d, order)
    blocks = list(J._products([a, b], spec, d, order))
    assert len(blocks) == 4 and len(want) == order + 1 and not want[-1].any()
    assert np.array_equal(np.concatenate(blocks, axis=-1), product)
    for m, block in enumerate(blocks):
        term = J._expand_degree(block, d, m)
        assert np.shares_memory(term, block) == (m < 2), m
        assert term.shape == want[m].shape and np.array_equal(term, want[m]), m


def test_a_product_frees_its_factors_once_stacked():
    # The product empties the list it is given, so a factor nothing else
    # refers to is gone before the first block is made.
    rng = np.random.default_rng(33)
    for spec, lead_a, lead_b in _SPECS:
        factors = [_random_coeffs(rng, lead_a, 3, 2),
                   _random_coeffs(rng, lead_b, 3, 2)]
        refs = [weakref.ref(c) for c in factors]
        blocks = J._products(factors, spec, 3, 2)
        next(blocks)
        assert factors == [] and all(r() is None for r in refs), spec
