"""Cross-module invariants and edge cases not tied to a single operation."""

import numpy as np
import pytest

from conftest import points_on
from tannolab.calculus import frob, kahler_residuals
from tannolab.charts import KahlerChart, as_points
from tannolab.errors import SingularMetric
from tannolab.manifolds import (cpn_height_function, flat_kahler_chart,
                                fubini_study_chart, random_polynomial_field,
                                sample_points)
from tannolab.operator import (assemble_L, product_block_check, star_product,
                               star_power)
from tannolab.tanno import TannoProblem
from tannolab.verify import VerificationReport, emit_report


@pytest.mark.parametrize("chart_factory", [
    lambda: flat_kahler_chart(1, 1),
    lambda: flat_kahler_chart(1, 2),
    lambda: fubini_study_chart(1),
    lambda: fubini_study_chart(2),
], ids=["flat11", "flat12", "fs1", "fs2"])
def test_kahler_residuals_hundred_points(chart_factory):
    chart = chart_factory()
    for p in sample_points(chart, 100, seed=99,
                           radius=0.75 * chart.domain_radius):
        assert max(kahler_residuals(chart, p)) < 1e-9


def test_star_product_is_not_associative(fs1_unit):
    # Bilinear and commutative but NOT associative; the left-nested power
    # order is semantically load-bearing for the operator identities.
    F = random_polynomial_field(2, seed=61)
    H = random_polynomial_field(2, seed=62)
    K = random_polynomial_field(2, seed=63)
    left = star_product(fs1_unit, star_product(fs1_unit, F, H), K)
    right = star_product(fs1_unit, F, star_product(fs1_unit, H, K))
    p = np.array([0.4, -0.3])
    assert abs(left(p) - right(p)) > 1e-6


def test_left_nested_star_power_matches_product_of_operators(fs1_unit, height1):
    # f * f^{*2} realizes L^3; the identity is what fixes the nesting order.
    prob = TannoProblem(fs1_unit, height1, 1.0)
    f3 = star_product(fs1_unit, height1, star_power(fs1_unit, height1, 2))
    prob3 = TannoProblem(fs1_unit, f3, 1.0)
    p = np.array([0.5, 0.1])
    L = assemble_L(prob, p)
    assert frob(assemble_L(prob3, p)
                - np.linalg.matrix_power(L, 3)) < 1e-7


def _cp2_cross_solution():
    # Off-diagonal member of the first eigenspace, 2 Re(Z0bar Z1)/|Z|^2.
    from tannolab.fields import ExprField

    def cross(x):
        r2 = x[0] * x[0]
        for xi in x[1:]:
            r2 = r2 + xi * xi
        return 2 * x[0] / (1 + r2)

    return ExprField(4, cross, name="CP(2) cross eigenfunction")


def test_independent_cp2_solutions_violate_op_eq(fs2_unit):
    # The closure conditions are a property of operator powers, not of
    # arbitrary solution pairs: a non-commuting pair reports the violation
    # and skips the shape comparison, while the block formula still holds
    # (it is pure matrix algebra).
    pa = TannoProblem(fs2_unit, cpn_height_function(2, 0), 1.0)
    pb = TannoProblem(fs2_unit, _cp2_cross_solution(), 1.0)
    p = points_on(fs2_unit, 3, seed=64)[0]
    rep = product_block_check(pa, pb, p)
    assert rep.block_residual < 1e-10
    assert not rep.op_eq_holds
    assert rep.op_eq_linear > 1e-2
    assert rep.shape_residual is None


def test_commuting_cp2_solution_pair_satisfies_op_eq(fs2_unit):
    # Diagonal-type eigenfunctions have simultaneously diagonalizable
    # operators, so the closure conditions hold for this pair even though
    # the general claim is only made for powers.
    pa = TannoProblem(fs2_unit, cpn_height_function(2, 0), 1.0)
    pb = TannoProblem(fs2_unit, cpn_height_function(2, 1), 1.0)
    p = points_on(fs2_unit, 3, seed=64)[0]
    rep = product_block_check(pa, pb, p)
    assert rep.op_eq_holds
    assert rep.shape_residual < 1e-10


def test_singular_metric_detected():
    g0 = np.diag([1.0, 1e-14])
    chart = KahlerChart.from_constant(g0, name="degenerate")
    with pytest.raises(SingularMetric):
        chart.metric_inv_jets(np.zeros(2), 0)


def test_singular_metric_test_is_scale_invariant():
    # A tiny but perfectly conditioned metric is not singular.
    chart = KahlerChart.from_constant(1e-7 * np.eye(2), name="small scale")
    assert np.array_equal(chart.metric_inv_jets(np.zeros(2), 0)[0],
                          1e7 * np.eye(2))


def test_christoffel_finite_far_out_on_large_cp2_patch():
    # |det g| is ~1e-17 at |p| = 45, but g stays well conditioned.
    chart = fubini_study_chart(2, domain_radius=50.0)
    p = np.array([45.0, 0.0, 0.0, 0.0])
    G = chart.christoffel_jets(p, 0)[0]
    assert np.all(np.isfinite(G))
    assert abs(np.linalg.det(chart.metric(p))) < 1e-12


def test_point_validation():
    with pytest.raises(ValueError):
        as_points([1.0, 2.0, 3.0], dim=2)
    with pytest.raises(ValueError):
        as_points([np.nan, 0.0], dim=2)


def test_chart_requires_even_dimension():
    with pytest.raises(ValueError):
        KahlerChart.from_constant(np.eye(3))


def test_empty_report_serializes_as_pass():
    report = VerificationReport([], "pass", "0.1.0", {})
    text = emit_report(report, "json")
    assert '"checks": []' in text
    assert '"verdict": "pass"' in text
    csv_text = emit_report(report, "csv")
    assert csv_text.strip() == "check,max_residual,tolerance,pass,points,seconds"


def test_operator_entries_depend_only_on_base_point(fs1_unit, height1):
    # The extended manifold's two extra coordinates never enter: assembling
    # at the same chart point twice gives the identical matrix.
    prob = TannoProblem(fs1_unit, height1, 1.0)
    p = np.array([0.3, 0.8])
    assert np.array_equal(assemble_L(prob, p),
                          assemble_L(prob, p.copy()))


def test_rescaling_helper_requires_nonzero():
    chart = flat_kahler_chart(1, 0)
    with pytest.raises(ValueError):
        chart.rescaled(0.0)
