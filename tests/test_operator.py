"""Extended operator algebra: star products, spectra, projectors."""

import tracemalloc

import numpy as np
import pytest

from conftest import points_on
from tannolab import jets as J
from tannolab.calculus import bar_form, frob, nabla_scalar, raise_lower
from tannolab.charts import KahlerChart
from tannolab.errors import (DimensionMismatch, IllConditioned, NoRealSplit,
                             NotProjector)
from tannolab.fields import ConstField, ScalarField
from tannolab.manifolds import (cpn_height_function, fubini_study_chart,
                                 sample_points,
                                random_polynomial_field)
from tannolab.operator import (EIGEN_TOL, EigenstructureReport,
                               PolynomialReal, _eigenstructure, _operator,
                               assemble_L, eigenstructure_at,
                               minimal_polynomial, poly_star,
                               product_block_check, projector_from_solution,
                               spectra, spectrum, star_power, star_product)
from tannolab.tanno import TannoProblem, system_residual
from tannolab.verify import CheckContext, SuiteConfig, run_suite


@pytest.fixture(scope="module")
def cp1_problem(fs1_unit, height1):
    return TannoProblem(fs1_unit, height1, 1.0)


@pytest.fixture(scope="module")
def cp1_points(fs1_unit):
    return points_on(fs1_unit, 10, seed=31)


@pytest.fixture(scope="module")
def cp1_projector(cp1_problem, cp1_points):
    return projector_from_solution(cp1_problem, cp1_points)


class TestAssembleL:
    def test_returns_the_operator_array(self, cp1_problem, cp1_points):
        P = np.array(cp1_points)
        geo = cp1_problem.chart.at(P, 1)
        ref = _operator(cp1_problem.f.taylor(P, 2), geo.g0, geo.gamma0,
                        cp1_problem.chart.J)
        for p, expected in ((P, ref), (P[0], ref[0])):
            L = assemble_L(cp1_problem, p)
            assert type(L) is np.ndarray and np.array_equal(L, expected)

    def test_constant_is_identity_bitwise(self, fs1_unit, fs2_unit, flat11):
        for chart in (fs1_unit, fs2_unit, flat11):
            prob = TannoProblem(chart, ConstField(chart.dim, -0.5), 1.0)
            for p in points_on(chart, 3, seed=32):
                L = assemble_L(prob, p)
                assert np.array_equal(L, np.eye(chart.dim + 2))

    def test_zero_field_gives_zero_matrix(self, fs1_unit):
        prob = TannoProblem(fs1_unit, ConstField(2, 0.0), 1.0)
        L = assemble_L(prob, np.zeros(2))
        assert not L.any()

    def test_block_diagonal_at_critical_point(self, fs1_unit, height1):
        # grad f = 0 at the origin: corner blocks vanish and the matrix is
        # blockdiag(mu Id_2, a^i_j).
        prob = TannoProblem(fs1_unit, height1, 1.0)
        L = assemble_L(prob, np.zeros(2))
        assert not L[0, 2:].any() and not L[2:, 0].any()
        assert not L[1, 2:].any() and not L[2:, 1].any()
        assert L[0, 0] == L[1, 1] == pytest.approx(-2.0)
        assert np.allclose(L[2:, 2:], 2.0 * np.eye(2), atol=1e-12)

    def test_block_layout_matches_parts(self, cp1_problem, cp1_points):
        # Each block against the calculus layer: mu = -2f, f_i, fbar_i and
        # their raised forms, and a^i_j = g^{-1}(-Hess f) - 2f delta.
        chart, f = cp1_problem.chart, cp1_problem.f
        for p in cp1_points[:3]:
            L = assemble_L(cp1_problem, p)
            grad = nabla_scalar(chart, f, p, 1)
            grad_bar = bar_form(chart, grad, p)
            hess = nabla_scalar(chart, f, p, 2).components
            ahat = (np.linalg.inv(chart.metric(p)) @ -hess
                    - 2.0 * f(p) * np.eye(chart.dim))
            assert L[0, 0] == L[1, 1] == -2.0 * f(p)
            assert L[0, 1] == L[1, 0] == 0.0
            for block, expect in [
                    (L[0, 2:], grad.components),
                    (L[1, 2:], grad_bar.components),
                    (L[2:, 0], raise_lower(chart, grad, p, 0, "up").components),
                    (L[2:, 1], raise_lower(chart, grad_bar, p, 0, "up").components),
                    (L[2:, 2:], ahat)]:
                np.testing.assert_allclose(block, expect, rtol=1e-12, atol=1e-14)


class TestStarProduct:
    def test_unit_element(self, fs1_unit, height1):
        unit = star_product(fs1_unit, ConstField(2, -0.5), height1)
        for p in points_on(fs1_unit, 3, seed=33):
            assert unit(p) == height1(p)

    def test_constants(self, fs1_unit):
        prod = star_product(fs1_unit, ConstField(2, 3.0), ConstField(2, -2.0))
        assert prod(np.zeros(2)) == pytest.approx(12.0)

    def test_commutative(self, fs1_unit, height1):
        other = cpn_height_function(1, 1)
        ab = star_product(fs1_unit, height1, other)
        ba = star_product(fs1_unit, other, height1)
        for p in points_on(fs1_unit, 4, seed=34):
            assert ab(p) == pytest.approx(ba(p), rel=1e-13, abs=1e-15)

    def test_bilinear(self, fs1_unit, height1):
        other = cpn_height_function(1, 1)
        lhs = star_product(fs1_unit, height1, 2.0 * other + 0.5 * height1)
        for p in points_on(fs1_unit, 3, seed=35):
            expect = (2.0 * star_product(fs1_unit, height1, other)(p)
                      + 0.5 * star_product(fs1_unit, height1, height1)(p))
            assert lhs(p) == pytest.approx(expect, rel=1e-12, abs=1e-14)

    def test_dimension_mismatch(self, fs1_unit):
        with pytest.raises(DimensionMismatch):
            star_product(fs1_unit, ConstField(2, 1.0), ConstField(4, 1.0))

    def test_star_power_one_is_f(self, fs1_unit, height1):
        assert star_power(fs1_unit, height1, 1) is height1

    def test_star_power_constant(self, fs1_unit):
        sq = star_power(fs1_unit, ConstField(2, 0.7), 2)
        assert sq(np.zeros(2)) == pytest.approx(-2 * 0.7 ** 2)

    def test_star_power_validates_k(self, fs1_unit, height1):
        with pytest.raises(ValueError):
            star_power(fs1_unit, height1, 0)


class TestStarPowerOperator:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_matches_matrix_power_cp1(self, cp1_problem, cp1_points, k):
        chart = cp1_problem.chart
        fk = star_power(chart, cp1_problem.f, k)
        probk = TannoProblem(chart, fk, 1.0)
        for p in cp1_points[:5]:
            Lk = assemble_L(probk, p)
            L1 = assemble_L(cp1_problem, p)
            assert frob(Lk - np.linalg.matrix_power(L1, k)) < 1e-7

    def test_matches_matrix_power_cp2(self, fs2_unit, height2):
        prob = TannoProblem(fs2_unit, height2, 1.0)
        pts = points_on(fs2_unit, 3, seed=36)
        for k in (2, 3):
            fk = star_power(fs2_unit, height2, k)
            probk = TannoProblem(fs2_unit, fk, 1.0)
            for p in pts:
                Lk = assemble_L(probk, p)
                L1 = assemble_L(prob, p)
                assert frob(Lk - np.linalg.matrix_power(L1, k)) < 1e-7


def _reference_star(chart, P, fj, Hj, order):
    """F*H = -2 FH - 1/2 g^{ab} F_{,a} H_{,b} through ``order`` from
    derivative lists, F and H through order + 1: each product compresses its
    factors and expands its result."""
    d = chart.dim

    def product(A, B, spec):
        return J.expand(J.cprod([J.compress(A, d, order), J.compress(B, d, order)],
                                spec, d, order), d, order)

    ginv = J.expand(J.cinv(chart.metric_coeffs(P, order), d, order), d, order)
    lifted = product(ginv, fj[1:], "ab,a->b")
    cross = product(lifted, Hj[1:], "b,b->")
    return [-2.0 * a - 0.5 * b for a, b in zip(product(fj, Hj, ",->"), cross)]


def _assert_terms_close(got, want, rtol):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert np.max(np.abs(a - b)) <= rtol * np.max(np.abs(b))


class TestStarChain:
    @pytest.mark.parametrize("chart_name", ["fs1_unit", "fs2_unit", "flat11", "cp11"])
    def test_matches_public_jet_operations(self, request, chart_name):
        # The chain on the fields' coefficients against F*H written on
        # derivative lists: f^{*k} for k = 2..4 as nested products, and one
        # product with a second cubic H.
        chart = request.getfixturevalue(chart_name)
        d, order, kmax = chart.dim, 2, 4
        f = random_polynomial_field(d, 51)
        H = random_polynomial_field(d, 52)
        P = np.array(points_on(chart, 5, seed=41))
        top = order + kmax - 1
        fj = f.jets(P, top)
        ref = fj
        for k in range(2, kmax + 1):
            ref = _reference_star(chart, P, fj, ref, top - k + 1)
            _assert_terms_close(star_power(chart, f, k).jets(P, order),
                                ref[:order + 1], 1e-13)
        _assert_terms_close(star_product(chart, f, H).jets(P, order),
                            _reference_star(chart, P, f.jets(P, order + 1),
                                            H.jets(P, order + 1), order), 1e-13)

    def test_chain_memory_is_bounded(self):
        # lem2's chain on CP(3): the lift g^{ab} f_{,a} is one solve with g
        # through order 4 in coefficient form.  It peaked at 26.9 MB traced
        # when g and g^-1 were full tensors, at 11.0 MB with 2 MB gathers, and
        # at 6.33 MB while it built g^-1 through order 4; 4.22 MB since.
        chart = fubini_study_chart(3).rescaled(0.25)
        P = np.array(sample_points(chart, 200, 7))[:20]
        chain = star_power(chart, cpn_height_function(3, 0), 4)
        chain.levels(P, 2)                  # builds the cached tables
        tracemalloc.start()
        try:
            chain.levels(P, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.4e6

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_star_power_matches_nested_products_bitwise(self, n):
        # From order 3 on, the outer product reads coefficients of degree 3
        # and 4 of the inner one, whose round trip through a! is not exact:
        # the inner chain must hand them over unexpanded.
        chart = fubini_study_chart(n).rescaled(0.25)
        f = cpn_height_function(n, 0)
        P = np.array(points_on(chart, 4, seed=38))
        for k in (2, 3, 4):
            nested = star_product(chart, f, star_power(chart, f, k - 1))
            for order in (0, 2, 3):
                for a, b in zip(star_power(chart, f, k).jets(P, order),
                                nested.jets(P, order)):
                    assert np.array_equal(a, b)

    @pytest.mark.parametrize("n", [1, 3])
    def test_levels_are_the_star_powers_bitwise(self, n):
        chart = fubini_study_chart(n).rescaled(0.25)
        f = cpn_height_function(n, 0)
        P = np.array(points_on(chart, 4, seed=40))
        levels = star_power(chart, f, 4).levels(P, 2)
        assert len(levels) == 3
        for k, level in enumerate(levels, 2):
            own = star_power(chart, f, k).taylor(P, 2)
            assert level.shape == own.shape == (len(P), J.size(chart.dim, 2))
            assert np.array_equal(level, own)

    @pytest.mark.parametrize("coeffs", [(0.3, -1.2, 0.7), (0.5, 0.0, -2.0, 1.5)],
                             ids=["degree2", "degree3"])
    def test_horner_matches_sum_of_powers(self, cp1_problem, cp1_points, coeffs):
        chart, f = cp1_problem.chart, cp1_problem.f
        P = np.array(cp1_points)
        horner = poly_star(chart, f, PolynomialReal(coeffs)).jets(P, 2)
        powers = [star_power(chart, f, j).jets(P, 2) for j in range(1, len(coeffs))]
        for m in range(3):
            expect = sum(c * fj[m] for c, fj in zip(coeffs[1:], powers))
            if m == 0:
                expect = expect - 0.5 * coeffs[0]
            assert np.max(np.abs(horner[m] - expect)) <= 1e-13 * np.max(np.abs(expect))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_one_chart_and_one_field_evaluation_per_call(self, fs2, height2,
                                                         monkeypatch, k):
        metric_calls, field_calls, list_calls = [], [], []
        metric_coeffs, field_taylor = KahlerChart.metric_coeffs, type(height2)._taylor
        field_jets = ScalarField.jets

        def spy_metric(chart, p, order):
            metric_calls.append(order)
            return metric_coeffs(chart, p, order)

        def spy_field(field, p, order):
            if field is height2:
                field_calls.append(order)
            return field_taylor(field, p, order)

        def spy_jets(field, p, order):
            if field is height2:
                list_calls.append(order)
            return field_jets(field, p, order)

        monkeypatch.setattr(KahlerChart, "metric_coeffs", spy_metric)
        monkeypatch.setattr(type(height2), "_taylor", spy_field)
        monkeypatch.setattr(ScalarField, "jets", spy_jets)
        P = np.array(points_on(fs2, 3, seed=39))
        for chain in (star_power(fs2, height2, k),
                      poly_star(fs2, height2, PolynomialReal((1.0,) * (k + 1)))):
            metric_calls.clear()
            field_calls.clear()
            chain.jets(P, 2)
            assert field_calls == [2 + k - 1]
            assert len(metric_calls) == 1
            # The chain reads f's coefficients, never its derivative list.
            assert list_calls == []


class TestPolyStar:
    def test_identity_polynomial(self, fs1_unit, height1):
        P = PolynomialReal((0.0, 1.0))
        out = poly_star(fs1_unit, height1, P)
        for p in points_on(fs1_unit, 3, seed=37):
            assert out(p) == height1(p)

    def test_constant_polynomial(self, fs1_unit, height1):
        P = PolynomialReal((1.0,))
        out = poly_star(fs1_unit, height1, P)
        assert out(np.zeros(2)) == -0.5

    def test_operator_polynomial_action(self, cp1_problem, cp1_points):
        P = PolynomialReal((0.5, 0.25))     # (t + 2) / 4
        chart = cp1_problem.chart
        fP = poly_star(chart, cp1_problem.f, P)
        probP = TannoProblem(chart, fP, 1.0)
        for p in cp1_points[:5]:
            LP = assemble_L(probP, p)
            L = assemble_L(cp1_problem, p)
            assert frob(LP - P.eval_matrix(L)) < 1e-7

    def test_closure_under_polynomials(self, cp1_problem, cp1_points):
        chart = cp1_problem.chart
        for coeffs in ((0.5, 0.25), (0.0, 0.0, 1.0), (1.0, -1.0, 0.5)):
            fP = poly_star(chart, cp1_problem.f, PolynomialReal(coeffs))
            probP = TannoProblem(chart, fP, 1.0)
            for p in cp1_points[:4]:
                assert max(system_residual(probP, p)) < 1e-7


class TestProductBlock:
    def test_self_product_op_eq_automatic(self, cp1_problem, cp1_points):
        rep = product_block_check(cp1_problem, cp1_problem, cp1_points[0])
        assert rep.block_residual < 1e-10
        assert rep.op_eq_holds
        assert rep.shape_residual < 1e-10

    def test_identity_factor(self, fs1_unit, height1):
        chart = fs1_unit
        id_prob = TannoProblem(chart, ConstField(2, -0.5), 1.0)
        other = TannoProblem(chart, height1, 1.0)
        p = points_on(chart, 1, seed=38)[0]
        rep = product_block_check(id_prob, other, p)
        assert rep.block_residual < 1e-12
        assert rep.op_eq_holds
        LF = assemble_L(other, p)
        Lid = assemble_L(id_prob, p)
        assert np.allclose(Lid @ LF, LF, atol=1e-14)

    def test_arbitrary_fields_block_identity(self, fs2_unit):
        # The block formula is pure matrix algebra: it must hold for any
        # smooth pair, solution or not.
        pa = TannoProblem(fs2_unit, random_polynomial_field(4, seed=39), 1.0)
        pb = TannoProblem(fs2_unit, random_polynomial_field(4, seed=40), 1.0)
        for p in points_on(fs2_unit, 3, seed=41):
            rep = product_block_check(pa, pb, p)
            assert rep.block_residual < 1e-10

    def test_independent_pair_reports_violation(self, fs2_unit):
        pa = TannoProblem(fs2_unit, random_polynomial_field(4, seed=42), 1.0)
        pb = TannoProblem(fs2_unit, random_polynomial_field(4, seed=43), 1.0)
        p = points_on(fs2_unit, 1, seed=44)[0]
        rep = product_block_check(pa, pb, p)
        assert not rep.op_eq_holds
        assert rep.shape_residual is None
        assert rep.op_eq_linear > 1e-3

    def test_dimension_mismatch(self, fs1_unit, fs2_unit, height1, height2):
        with pytest.raises(DimensionMismatch):
            product_block_check(TannoProblem(fs1_unit, height1, 1.0),
                                TannoProblem(fs2_unit, height2, 1.0),
                                np.zeros(2))


class TestSpectrum:
    def test_identity(self):
        out = spectrum(np.eye(4))
        assert out.clusters == [(1.0, 4)]
        assert not out.complex_pairs

    def test_two_clusters(self):
        out = spectrum(np.diag([2.0, 2.0, -2.0, -2.0]))
        assert out.clusters == [(-2.0, 2), (2.0, 2)]

    def test_complex_pairs_reported_separately(self):
        M = np.array([[0.0, -1.0], [1.0, 0.0]])
        out = spectrum(M)
        assert not out.clusters
        assert len(out.complex_pairs) == 1
        z, mult = out.complex_pairs[0]
        assert z == pytest.approx(1j)

    def test_constancy_over_solution(self, cp1_problem, cp1_points):
        base = spectrum(assemble_L(cp1_problem, cp1_points[0])).clusters
        assert [m for _, m in base] == [2, 2]
        assert base[0][0] == pytest.approx(-2.0, abs=1e-9)
        assert base[1][0] == pytest.approx(2.0, abs=1e-9)
        for p in cp1_points[1:]:
            s = spectrum(assemble_L(cp1_problem, p)).clusters
            assert all(abs(a - b) < 1e-6 for (a, _), (b, _) in zip(s, base))

    def test_cp2_spectrum(self, fs2_unit, height2):
        prob = TannoProblem(fs2_unit, height2, 1.0)
        s = spectrum(assemble_L(prob, np.zeros(4))).clusters
        assert s[0] == (pytest.approx(-8.0 / 3.0), 2)
        assert s[1] == (pytest.approx(4.0 / 3.0), 4)


def _spectrum_one_at_a_time(M, cluster_tol=None):
    """(clusters, complex pairs, radius) of M the way the spectrum layer
    clustered before it was batched: one eigenvalue call per matrix, then
    one pass over the sorted real values and one over the upper pairs."""
    ev = np.linalg.eigvals(M)
    radius = float(np.max(np.abs(ev))) if ev.size else 0.0
    tol = cluster_tol if cluster_tol is not None else 1e-6 * max(1.0, radius)
    real = np.abs(ev.imag) <= tol
    groups = []
    for v in np.sort(ev[real].real):
        if groups and v - groups[-1][-1] <= tol:
            groups[-1].append(v)
        else:
            groups.append([v])
    pairs = []
    upper = ev[~real & (ev.imag > 0)]
    for z in upper[np.argsort(upper.real)]:
        if pairs and abs(z - pairs[-1][0]) <= tol:
            pairs[-1] = (pairs[-1][0], pairs[-1][1] + 1)
        else:
            pairs.append((complex(z), 1))
    return [(float(np.mean(g)), len(g)) for g in groups], pairs, radius


def _conjugated(rng, eigenvalue_blocks):
    """A random similarity transform of the block-diagonal matrix with the
    given blocks: numbers become 1x1 blocks, (a, b) pairs the rotation
    block with eigenvalues a +- ib."""
    blocks = [np.array([[x]]) if np.isscalar(x) else
              np.array([[x[0], -x[1]], [x[1], x[0]]]) for x in eigenvalue_blocks]
    m = sum(len(b) for b in blocks)
    D = np.zeros((m, m))
    k = 0
    for b in blocks:
        D[k:k + len(b), k:k + len(b)] = b
        k += len(b)
    S = np.eye(m) + 0.3 * rng.normal(size=(m, m))
    return S @ D @ np.linalg.inv(S)


def _stack(kind, rng):
    if kind == "distinct_real":
        return np.array([_conjugated(rng, rng.normal(size=6) * 3)
                         for _ in range(12)])
    if kind == "repeated":
        # Projector-like: eigenvalues 0 and 1 (and mu) with multiplicities,
        # perturbed by rounding only.
        return np.array([_conjugated(rng, [1.0] * k + [0.0] * (7 - k) + [mu])
                         for k, mu in zip(range(1, 7), rng.uniform(size=6))])
    if kind == "complex":
        return np.array([_conjugated(rng, [(a, b), (a, b), (c, 1.0)])
                         for a, b, c in rng.normal(size=(8, 3))])
    # "mixed": real and complex rows in one stack, all 6 x 6.
    return np.concatenate([
        _stack("distinct_real", rng), _stack("complex", rng),
        np.array([_conjugated(rng, [2.0, 2.0, (0.5, 1.5), -1.0, -1.0])
                  for _ in range(4)]),
        np.array([np.eye(6), np.zeros((6, 6)), np.diag([1.0, 1, 1, 0, 0, 0])])])


class TestSpectra:
    @pytest.mark.parametrize("cluster_tol", [None, 1e-3])
    @pytest.mark.parametrize("kind", ["distinct_real", "repeated", "complex",
                                      "mixed"])
    def test_equals_one_matrix_at_a_time(self, kind, cluster_tol):
        Ms = _stack(kind, np.random.default_rng(len(kind)))
        out = spectra(Ms, cluster_tol)
        assert len(out) == len(Ms)
        for M, spec in zip(Ms, out):
            assert spec == spectrum(M, cluster_tol)
            ref = _spectrum_one_at_a_time(M, cluster_tol)
            assert (spec.clusters, spec.complex_pairs, spec.radius) == ref

    def test_stacks_see_every_case(self):
        rng = np.random.default_rng(3)
        merged = [s for s in spectra(_stack("repeated", rng))
                  if any(m > 1 for _, m in s.clusters)]
        paired = [s for s in spectra(_stack("complex", rng))
                  if any(m > 1 for _, m in s.complex_pairs)]
        assert merged and paired

    def test_empty_stack(self):
        assert spectra(np.empty((0, 4, 4))) == []


class TestMinimalPolynomial:
    def test_identity_matrix(self):
        P = minimal_polynomial(np.eye(4))
        assert np.allclose(P.coeffs, (-1.0, 1.0))

    def test_projector_matrix(self):
        M = np.diag([1.0, 1.0, 0.0, 0.0])
        P = minimal_polynomial(M)
        assert np.allclose(P.coeffs, (0.0, -1.0, 1.0))  # t(t-1)

    def test_monic_and_annihilating(self, cp1_problem, cp1_points):
        L = assemble_L(cp1_problem, cp1_points[0])
        P = minimal_polynomial(L)
        assert P.coeffs[-1] == 1.0
        assert frob(P.eval_matrix(L)) < 1e-6 * max(1.0, frob(L)) ** P.degree

    def test_constant_coefficients_across_points(self, cp1_problem, cp1_points):
        polys = [minimal_polynomial(assemble_L(cp1_problem, p)).coeffs
                 for p in cp1_points]
        base = np.array(polys[0])
        for cs in polys[1:]:
            assert np.max(np.abs(np.array(cs) - base)) < 1e-5

    def test_complex_pair_factor(self):
        # A rotation block has eigenvalues +-i: its factor is t^2 + 1, so
        # with [2] the polynomial is (t^2 + 1)(t - 2) = t^3 - 2t^2 + t - 2.
        M = np.zeros((3, 3))
        M[0, 1], M[1, 0], M[2, 2] = -1.0, 1.0, 2.0
        P = minimal_polynomial(M)
        assert np.allclose(P.coeffs, (-2.0, 1.0, -2.0, 1.0), rtol=0,
                           atol=1e-12)

    def test_near_multiple_eigenvalues_merge_cleanly(self):
        # A gap far below the cluster tolerance is one cluster, not an error.
        M = np.diag([1.0, 1.0 + 1e-9, 5.0])
        P = minimal_polynomial(M, tol=1e-6)
        assert P.degree == 2

    def test_marginally_separated_clusters_raise(self):
        # Distinct clusters closer than the safety margin are rejected.
        M = np.diag([1.0, 1.0 + 2e-5, 5.0])
        with pytest.raises(IllConditioned):
            minimal_polynomial(M, tol=1e-6)


class TestProjector:
    def test_cp1_lagrange_polynomial(self, cp1_projector):
        P, f_proj = cp1_projector
        assert np.allclose(P.coeffs, (0.5, 0.25), atol=1e-9)

    def test_projected_field_closed_form(self, cp1_projector, height1):
        _, f_proj = cp1_projector
        rng = np.random.default_rng(45)
        for _ in range(5):
            p = rng.normal(size=2) * 0.6
            assert f_proj(p) == pytest.approx(height1(p) / 4.0 - 0.25,
                                              rel=1e-12, abs=1e-14)

    def test_idempotent_everywhere(self, fs1_unit, cp1_projector, cp1_points):
        _, f_proj = cp1_projector
        probP = TannoProblem(fs1_unit, f_proj, 1.0)
        for p in cp1_points:
            L = assemble_L(probP, p)
            assert frob(L @ L - L) < 1e-7
            assert frob(L) > 1e-3 and frob(L - np.eye(4)) > 1e-3

    def test_mu_in_unit_interval(self, cp1_projector, cp1_points):
        _, f_proj = cp1_projector
        for p in cp1_points:
            mu = -2.0 * f_proj(p)
            assert -1e-12 <= mu <= 1.0 + 1e-12

    def test_constant_solution_rejected(self, fs1_unit, cp1_points):
        prob = TannoProblem(fs1_unit, ConstField(2, -0.5), 1.0)
        with pytest.raises(NoRealSplit):
            projector_from_solution(prob, cp1_points)

    def test_sample_shape_validated(self, fs2_unit, height2):
        prob = TannoProblem(fs2_unit, height2, 1.0)
        # (4, 2) on a dim-4 chart is four 2-vectors, not two points.
        with pytest.raises(ValueError, match="dimension"):
            projector_from_solution(prob, np.full((4, 2), 0.1))
        with pytest.raises(ValueError, match="at least one"):
            projector_from_solution(prob, [])

    def test_cp2_projector_rank_is_even_in_range(self, fs2_unit, height2):
        prob = TannoProblem(fs2_unit, height2, 1.0)
        pts = points_on(fs2_unit, 5, seed=46)
        P, f_proj = projector_from_solution(prob, pts)
        probP = TannoProblem(fs2_unit, f_proj, 1.0)
        L = assemble_L(probP, pts[0])
        trace = float(np.trace(L))
        assert trace == pytest.approx(round(trace), abs=1e-8)
        assert round(trace) % 2 == 0
        assert 2 <= round(trace) <= 2 * fs2_unit.dim


def _positive(pairs):
    """A multiplicity table from (value, multiplicity) entries: equal values
    merged, those not positive dropped."""
    table = {}
    for v, m in pairs:
        table[v] = table.get(v, 0) + m
    return {v: m for v, m in table.items() if m > 0}


#: Wrong eigenvalue tables of a^i_j, as (value, multiplicity) entries of
#: (mu, n, k); lem6 must reject each on some CP(n) projector.
WRONG_TABLES = {
    "mu_for_1_minus_mu": lambda mu, n, k: [(1.0, 2 * k), (0.0, 2 * n - 2 * k - 2),
                                           (mu, 2)],
    "0_and_1_swapped": lambda mu, n, k: [(1.0, 2 * n - 2 * k - 2), (0.0, 2 * k),
                                         (1.0 - mu, 2)],
    "k_plus_1": lambda mu, n, k: [(1.0, 2 * k + 2), (0.0, 2 * n - 2 * k - 4),
                                  (1.0 - mu, 2)],
    "k_minus_1": lambda mu, n, k: [(1.0, 2 * k - 2), (0.0, 2 * n - 2 * k),
                                   (1.0 - mu, 2)],
    "mu_max_row_everywhere": lambda mu, n, k: [(1.0, 2 * k), (0.0, 2 * n - 2 * k)],
    "mu_min_row_everywhere": lambda mu, n, k: [(1.0, 2 * k + 2),
                                               (0.0, 2 * n - 2 * k - 2)],
}


class TestEigenstructure:
    def test_interior_cp1(self, fs1_unit, cp1_projector, cp1_points):
        _, f_proj = cp1_projector
        probP = TannoProblem(fs1_unit, f_proj, 1.0)
        for p in cp1_points[:5]:
            rep = eigenstructure_at(probP, p)
            mu = rep.mu
            if not (1e-5 < mu < 1 - 1e-5):
                continue
            assert rep.classification == "interior"
            assert rep.k_param == 0
            assert rep.clusters == [(pytest.approx(1.0 - mu, abs=1e-8), 2)]

    def test_mu_min_at_origin_cp1(self, fs1_unit, cp1_projector):
        _, f_proj = cp1_projector
        probP = TannoProblem(fs1_unit, f_proj, 1.0)
        rep = eigenstructure_at(probP, np.zeros(2))
        assert rep.classification == "mu_min"
        assert rep.clusters == [(pytest.approx(1.0, abs=1e-10), 2)]
        assert rep.k_param == 0

    def test_mu_max_at_origin_axis1_cp1(self, fs1_unit):
        f1 = cpn_height_function(1, 1)
        prob = TannoProblem(fs1_unit, f1, 1.0)
        pts = points_on(fs1_unit, 5, seed=47)
        _, f_proj = projector_from_solution(prob, pts)
        probP = TannoProblem(fs1_unit, f_proj, 1.0)
        rep = eigenstructure_at(probP, np.zeros(2))
        assert rep.classification == "mu_max"
        assert rep.clusters == [(pytest.approx(0.0, abs=1e-10), 2)]

    def test_interior_cp2_multiplicity_table(self, fs2_unit, height2):
        prob = TannoProblem(fs2_unit, height2, 1.0)
        pts = points_on(fs2_unit, 6, seed=48)
        _, f_proj = projector_from_solution(prob, pts)
        probP = TannoProblem(fs2_unit, f_proj, 1.0)
        rep = eigenstructure_at(probP, pts[0])
        assert rep.classification == "interior"
        assert rep.k_param == 1
        expected = rep.expected_clusters(2)
        actual = {round(v, 6): m for v, m in rep.clusters}
        assert sum(actual.values()) == 4
        assert actual[round(1.0 - rep.mu, 6)] == 2

    def test_batch_of_operators_matches_public_reports(
            self, fs1_unit, cp1_projector, cp1_points):
        _, f_proj = cp1_projector
        probP = TannoProblem(fs1_unit, f_proj, 1.0)
        pts = np.vstack([np.zeros(2), cp1_points])
        Ls = assemble_L(probP, pts)
        reports = eigenstructure_at(probP, pts)
        assert _eigenstructure(Ls) == reports
        assert {r.classification for r in reports} >= {"mu_min", "interior"}

    def test_non_projector_rejected(self, cp1_problem, cp1_points):
        with pytest.raises(NotProjector):
            eigenstructure_at(cp1_problem, cp1_points[0])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_formula_gives_the_extremal_rows(self, n):
        # The mu-max and mu-min rows of the paper's table are the formula
        # at mu = 1 and mu = 0, for every k of a non-trivial projector.
        for k in range(n):
            mu_max = EigenstructureReport(1.0, [], "mu_max", k)
            mu_min = EigenstructureReport(0.0, [], "mu_min", k)
            assert mu_max.expected_clusters(n) == _positive(
                [(1.0, 2 * k), (0.0, 2 * n - 2 * k)])
            assert mu_min.expected_clusters(n) == _positive(
                [(1.0, 2 * k + 2), (0.0, 2 * n - 2 * k - 2)])

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_k_is_the_count_of_unit_eigenvalues(self, n):
        # k from the projector's trace equals the former count: the
        # eigenvalues of L within 10 EIGEN_TOL of 1 are 2k + 2.  Each height
        # projector, and its complement I - L, which has another k.
        for axis in range(n + 1):
            ctx = CheckContext.from_config(SuiteConfig(
                chart={"name": "fubini_study", "n": n},
                solution=f"height:{axis}", c=0.25, seed=7))
            Ls = ctx.projector[2]
            for L in (Ls, np.eye(2 * n + 2) - Ls):
                counted = [(sum(m for v, m in s.clusters
                                if abs(v - 1.0) <= 10 * EIGEN_TOL) - 2) // 2
                           for s in spectra(L, EIGEN_TOL)]
                assert [r.k_param for r in _eigenstructure(L)] == counted

    @staticmethod
    def _verdicts(monkeypatch, table):
        """lem6's PASS on CP(1) height:0, CP(2) height:1 and CP(3) height:0
        at seed 7, with ``table`` in place of the formula."""
        monkeypatch.setattr(
            EigenstructureReport, "expected_clusters",
            lambda rep, n: _positive(table(rep.mu, n, rep.k_param)))
        passed = []
        for n, solution in ((1, "height:0"), (2, "height:1"), (3, "height:0")):
            record = run_suite(SuiteConfig(
                chart={"name": "fubini_study", "n": n}, solution=solution,
                c=0.25, seed=7, checks=["lem6.eigenstructure"])).checks[0]
            assert record.status == "ok"
            passed.append(record.passed)
        return passed

    def test_formula_as_a_table_passes(self, monkeypatch):
        # The control of the test below: the formula itself, patched in the
        # same way, passes all three.
        assert self._verdicts(monkeypatch, lambda mu, n, k: [
            (1.0, 2 * k), (0.0, 2 * n - 2 * k - 2), (1.0 - mu, 2)]) == [True] * 3

    @pytest.mark.parametrize("wrong", list(WRONG_TABLES), ids=list(WRONG_TABLES))
    def test_wrong_table_fails_the_check(self, monkeypatch, wrong):
        assert not all(self._verdicts(monkeypatch, WRONG_TABLES[wrong]))


class TestPolynomialReal:
    def test_from_roots_and_eval(self):
        P = PolynomialReal.from_roots([1.0, -2.0])
        assert P(1.0) == 0.0 and P(-2.0) == 0.0
        assert P(0.0) == pytest.approx(-2.0)

    def test_trailing_zeros_trimmed(self):
        P = PolynomialReal((1.0, 2.0, 0.0, 0.0))
        assert P.degree == 1

    def test_monic(self):
        P = PolynomialReal((2.0, 4.0)).monic()
        assert P.coeffs == (0.5, 1.0)

    def test_matrix_evaluation(self):
        M = np.diag([1.0, 2.0])
        P = PolynomialReal((0.0, 0.0, 1.0))
        assert np.allclose(P.eval_matrix(M), M @ M)
