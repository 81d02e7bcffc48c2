"""Inertia computation, form restriction and the positivity scan."""

import dataclasses

import numpy as np
import pytest

from conftest import points_on
from tannolab.errors import DegenerateBasis, NoExtremalPoint
from tannolab.fields import ConstField
from tannolab.manifolds import cpn_height_function
from tannolab import signature, verify
from tannolab.operator import (assemble_L, classify_mu,
                               projector_from_solution)
from tannolab.signature import (_verdict_from_inertias, metric_signature,
                                positivity_scan, restrict_form)
from tannolab.tanno import TannoProblem
from tannolab.verify import CheckContext, SuiteConfig, run_suite


class TestMetricSignature:
    def test_split_flat(self, flat11):
        assert metric_signature(flat11, np.zeros(4)) == (2, 2)

    def test_fs_positive(self, fs1):
        for p in points_on(fs1, 20, seed=51):
            assert metric_signature(fs1, p) == (2, 0)

    def test_negated_metric(self, fs1):
        neg = fs1.with_negated_metric()
        assert metric_signature(neg, np.zeros(2)) == (0, 2)

    def test_constant_across_chart(self, fs2):
        sigs = {metric_signature(fs2, p) for p in points_on(fs2, 15, seed=52)}
        assert sigs == {(4, 0)}


def test_verdict_from_inertias():
    assert _verdict_from_inertias([(0, 2), (0, 2)], 2) == (0, 2, "negative")
    assert _verdict_from_inertias([(2, 0), (2, 0)], 2) == (2, 0, "positive")
    assert _verdict_from_inertias([(1, 1)], 2) == (1, 1, "indefinite")
    assert _verdict_from_inertias([(2, 0), (0, 2)], 2) == (
        0, 2, "mixed-across-points")


class TestRestrictForm:
    def test_full_standard_basis(self):
        form = np.array([[2.0, 1.0], [1.0, 3.0]])
        out = restrict_form(form, [np.array([1.0, 0]), np.array([0, 1.0])])
        assert np.allclose(out, form)

    def test_single_vector(self):
        form = np.diag([2.0, -1.0])
        v = np.array([1.0, 1.0])
        out = restrict_form(form, [v])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.0)

    def test_degenerate_basis_rejected(self):
        form = np.eye(3)
        with pytest.raises(DegenerateBasis):
            restrict_form(form, [np.ones(3), 2.0 * np.ones(3)])

    def test_gradient_span_positive_on_cp1(self, fs1_unit, height1):
        prob = TannoProblem(fs1_unit, height1, 1.0)
        p = np.array([0.6, 0.3])
        L = assemble_L(prob, p)
        g0 = fs1_unit.metric(p)
        out = restrict_form(g0, [L[2:, 0], L[2:, 1]])
        ev = np.linalg.eigvalsh(out)
        assert np.all(ev > 0)


class TestPositivityScan:
    def _projector_problem(self, chart, f):
        prob = TannoProblem(chart, f, 1.0)
        pts = points_on(chart, 8, seed=53)
        _, f_proj = projector_from_solution(prob, pts)
        return TannoProblem(chart, f_proj, 1.0), pts

    def test_cp1_verdict_positive(self, fs1_unit, height1):
        probP, pts = self._projector_problem(fs1_unit, height1)
        report = positivity_scan(probP, pts)
        assert report.verdict == "positive"
        assert (report.n_pos, report.n_neg) == (2, 0)
        assert all(sig == (2, 0) for _, sig in report.per_point)
        assert report.extremal_findings
        assert "mu_min" in report.witnessed_cases

    def test_each_start_refined_once(self, fs1_unit, height1, monkeypatch):
        # Four samples at four radial shrinks; the four t = 0 shrinks are
        # all the chart center.  The 13 distinct starts are one Newton batch.
        probP, pts = self._projector_problem(fs1_unit, height1)
        batches = []
        refine = signature._refine_extremum

        def spy(chart, mu_field, X0):
            batches.append(np.array(X0))
            return refine(chart, mu_field, X0)
        monkeypatch.setattr(signature, "_refine_extremum", spy)
        report = positivity_scan(probP, pts)
        assert len(batches) == 1
        starts = batches[0]
        assert starts.shape == (13, 2)
        assert not any(np.array_equal(a, b)
                       for k, a in enumerate(starts) for b in starts[:k])
        assert report.starts_total == 13
        assert 1 <= report.starts_converged <= 13
        assert report.newton_iterations >= 1

    def test_start_pushed_out_of_domain_dropped(self, fs1_unit, height1):
        probP, _ = self._projector_problem(fs1_unit, height1)
        mu_field = -2.0 * probP.f
        far = np.array([1.5, 0.0])
        # The first Newton step from `far` lands outside the domain ball.
        _, G, H = mu_field.jets(far, 2)
        assert np.linalg.norm(far - np.linalg.pinv(H) @ G) > fs1_unit.domain_radius
        X, gnorms, _ = signature._refine_extremum(
            fs1_unit, mu_field, np.array([far, [0.3, 0.0], [0.0, 0.0]]))
        assert gnorms[0] == np.inf
        assert np.array_equal(X[0], far)
        assert np.all(gnorms[1:] < signature.GRAD_THRESHOLD)
        assert np.all(np.linalg.norm(X[1:], axis=1) < 1e-12)

    def test_degenerate_set_is_one_finding(self, fs2_unit, monkeypatch):
        # Samples near the mu-max set {z1 = 0} of CP(2) height:1 (Hessian
        # signs -, -, 0, 0): Newton reaches it at several distinct points,
        # which make one critical set and so one finding.
        probP, _ = self._projector_problem(fs2_unit, cpn_height_function(2, 1))
        near = np.array([[0.01, -0.02, 0.3, 0.1], [0.02, 0.01, -0.2, 0.25],
                         [-0.01, 0.01, 0.1, -0.3], [0.0, 0.02, -0.25, -0.15]])
        reached = []
        refine = signature._refine_extremum

        def spy(chart, mu_field, X0):
            X, gnorms, iterations = refine(chart, mu_field, X0)
            reached.extend(X[gnorms < signature.GRAD_THRESHOLD])
            return X, gnorms, iterations
        monkeypatch.setattr(signature, "_refine_extremum", spy)
        report = positivity_scan(probP, near)
        assert len(reached) >= 3
        assert min(np.linalg.norm(a - b) for k, a in enumerate(reached)
                   for b in reached[:k]) > 0.1
        assert [(f.kind, f.hessian_inertia) for f in report.extremal_findings] \
            == [("mu_max", (0, 2))]

    def test_cp1_axis1_witnesses_mu_max(self, fs1_unit):
        f1 = cpn_height_function(1, 1)
        probP, pts = self._projector_problem(fs1_unit, f1)
        report = positivity_scan(probP, pts)
        assert report.verdict == "positive"
        finding = next(f for f in report.extremal_findings if f.kind == "mu_max")
        # Hessian of mu at its maximum is non-positive.
        assert all(e <= 1e-8 for e in finding.hessian_eigs)
        # The restriction identity mu_hess|E0 = -2 g|E0 and g|E0 > 0.
        assert finding.identity_residual < 1e-6
        assert finding.g_restricted_inertia[1] == 0
        assert finding.g_restricted_inertia[0] > 0

    def test_cp2_axis1_kinds_follow_classify_mu(self, fs2_unit):
        probP, pts = self._projector_problem(fs2_unit,
                                             cpn_height_function(2, 1))
        report = positivity_scan(probP, pts)
        assert report.extremal_findings
        assert all(f.kind == classify_mu(f.mu)
                   for f in report.extremal_findings)

    def test_cp2_verdict_positive(self, fs2_unit, height2):
        probP, pts = self._projector_problem(fs2_unit, height2)
        report = positivity_scan(probP, pts)
        assert report.verdict == "positive"
        assert (report.n_pos, report.n_neg) == (4, 0)

    def test_mu_min_restriction_identity(self, fs1_unit, height1):
        probP, pts = self._projector_problem(fs1_unit, height1)
        report = positivity_scan(probP, pts)
        finding = next(f for f in report.extremal_findings
                       if f.kind == "mu_min")
        assert finding.identity_residual < 1e-6
        assert finding.g_restricted_inertia == (2, 0)

    def test_constant_solution_hypothesis_branch(self, flat11):
        prob = TannoProblem(flat11, ConstField(4, -0.5), 1.0)
        pts = points_on(flat11, 6, seed=54)
        report = positivity_scan(prob, pts)
        assert report.verdict == "indefinite"
        assert (report.n_pos, report.n_neg) == (2, 2)
        assert "hypothesis not met" in report.note
        assert not report.extremal_findings

    def test_sample_shape_validated(self, flat11):
        prob = TannoProblem(flat11, ConstField(4, -0.5), 1.0)
        with pytest.raises(ValueError, match="dimension"):
            positivity_scan(prob, np.full((4, 2), 0.1))
        with pytest.raises(ValueError, match="at least one"):
            positivity_scan(prob, [])

    def test_no_extremum_in_domain(self):
        # A translated round-sphere patch: the only critical point of the
        # height sits at (-2.5, 0), outside the 0.9 domain ball, so the
        # scan must report absence rather than inventing an extremum.
        from tannolab import jets as J
        from tannolab.charts import KahlerChart
        from tannolab.fields import ExprField

        shift = 2.5

        def potential(x):
            r2 = (x[0] + shift) * (x[0] + shift) + x[1] * x[1]
            return 2 * J.log(1 + r2)

        def height(x):
            r2 = (x[0] + shift) * (x[0] + shift) + x[1] * x[1]
            return (1 - r2) / (1 + r2)

        chart = KahlerChart.from_potential(
            2, potential, 0.9, "shifted CP(1) patch").rescaled(0.25)
        prob = TannoProblem(chart, ExprField(2, height), 1.0)
        pts = points_on(chart, 6, seed=55, radius=0.6)
        with pytest.raises(NoExtremalPoint):
            positivity_scan(prob, pts)


@pytest.mark.parametrize("chart, solution, kind, hessian_inertia", [
    ({"name": "fubini_study", "n": 1}, "height:0", "mu_min", (2, 0)),
    ({"name": "fubini_study", "n": 2}, "height:1", "mu_max", (0, 2))],
    ids=["cli_default", "cp2_height1"])
def test_suite_finds_one_extremum_per_critical_set(chart, solution, kind,
                                                   hessian_inertia):
    # One finding per suite: the mu minimum of CP(1) height:0, and the
    # degenerate mu-max set of CP(2) height:1 (Hessian signs -, -, 0, 0).
    config = SuiteConfig(chart=chart, solution=solution, c=0.25, seed=7,
                         checks=["thm3.positivity"])
    ctx = CheckContext.from_config(config)
    _, f_proj, _ = ctx.projector
    chart = ctx.unit_problem.chart
    report = positivity_scan(TannoProblem(chart, f_proj, 1.0), ctx.P)
    assert [(f.kind, f.hessian_inertia) for f in report.extremal_findings] \
        == [(kind, hessian_inertia)]
    finding = report.extremal_findings[0]
    assert finding.grad_norm < signature.GRAD_THRESHOLD
    assert finding.g_restricted_inertia[1] == 0
    assert finding.identity_residual < 1e-6
    rec = run_suite(config).checks[0]
    assert rec.status == "ok" and rec.passed, rec.note
    assert (f"newton_iterations={report.newton_iterations}; "
            f"starts_converged={report.starts_converged}/13; "
            "critical_sets=1") in rec.note


def _same(a, b) -> bool:
    """Equal in every field, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            _same(getattr(a, f.name), getattr(b, f.name))
            for f in dataclasses.fields(a))
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("chart, solution", [
    ({"name": "fubini_study", "n": 1}, "height:0"),
    ({"name": "fubini_study", "n": 2}, "height:1"),
    ({"name": "fubini_study", "n": 3}, "height:0")],
    ids=["cli_default", "cp2_height1", "cp3_height0"])
def test_suite_scan_equals_the_public_scan(monkeypatch, chart, solution):
    # thm3 reads g, P*(f) and its gradient off the suite's pass and L(P*(f));
    # its report is the one the public scan evaluates for itself.
    ctx = CheckContext.from_config(SuiteConfig(
        chart=chart, solution=solution, c=0.25, seed=7,
        checks=["thm3.positivity"]))
    calls, scan = [], verify._positivity_scan

    def keep(*args):
        calls.append((args, scan(*args)))
        return calls[-1][1]

    monkeypatch.setattr(verify, "_positivity_scan", keep)
    assert verify.REGISTRY["thm3.positivity"].func(ctx).max_residual == 0.0
    _, f_proj, _ = ctx.projector
    unit_chart = ctx.unit_problem.chart
    ref = positivity_scan(TannoProblem(unit_chart, f_proj, 1.0), ctx.P)
    ((probP, P, g0, values, gradients), report), = calls
    assert probP.chart is unit_chart and probP.f is f_proj and P is ctx.P
    assert np.array_equal(g0, unit_chart.metric_jets(ctx.P, 0)[0])
    assert all(np.array_equal(a, b) for a, b in
               zip((values, gradients), f_proj.jets(ctx.P, 1)))
    assert len(report.per_point) == len(ref.per_point) == len(ctx.P)
    for got, want in zip(report.per_point, ref.per_point):
        assert _same(got, want)
    assert report.extremal_findings
    assert _same(report, ref)
