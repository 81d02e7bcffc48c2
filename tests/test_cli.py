"""Suite configuration, report emission, determinism and CLI exit codes."""

import csv
import dataclasses
import json
import re
import sys
import tracemalloc

import numpy as np
import pytest

import report_corpus
from tannolab import (calculus, charts, dop853, jets, operator, signature,
                      tanno, verify)
from tannolab.cli import DEFAULT_CONFIG, main
from tannolab.errors import ConfigError, SingularMetric
from tannolab.charts import KahlerChart
from tannolab.manifolds import random_polynomial_field, sample_points
from tannolab.operator import assemble_L, projector_from_solution, spectrum
from tannolab.calculus import frob_rows, kahler_residuals, nabla_scalar
from tannolab.tanno import (TannoProblem, _cubic_form,
                            laplace_identity_residual,
                            system_residual, tanno_residual,
                            trace_identity_residual)
from tannolab.verify import (DEFAULT_CHECKS, REGISTRY, CheckContext,
                             CheckRecord, SuiteConfig, build_chart,
                             build_solution, emit_report, load_report,
                             run_suite)

FAST_CHECKS = ["kahler.residuals", "eq1.residual", "sys.inverse_roundtrip",
               "op.identity_at_constant"]

#: The output of ``tannolab verify --list-checks``: every registered name,
#: tolerance and description, in report order.
LIST_CHECKS = """\
kahler.residuals           tol=1e-09     chart structure: |J^2+Id|, |J^T g J - g|, |nabla J| at samples
eq1.residual               tol=1e-07     third-order equation residual f_,ijk + c(2f_k g_ij + ... - Jbar terms)
eq2.residual               tol=1e-08     J-free third-order equation residual (real form)
rem1.laplace_identity      tol=1e-06     contracted identity (Delta f)_,k = -4c(n+1) f_,k
rem2.lightlike_f3          tol=1e-09     T3(v,v,v) = 0 at null vectors of g (f''' along lightlike geodesics)
sys.residual               tol=1e-07     first-order system residuals for (a_ij, f_i, mu), c=1
sys.trace_identity         tol=1e-06     trace identity f_i = 1/4 (a^al_al)_,i
sys.inverse_roundtrip      tol=0         f_from_mu after bundle_from_f recovers f exactly
lem1.transport_zero        tol=1e-10     zero initial bundle stays zero along random curves
lem1.transport_match       tol=1e-05     solution bundle transported p->q matches direct evaluation
lem1.transport_loop        tol=1e-05     solution bundle returns to itself around a closed loop
op.identity_at_constant    tol=0         extended operator of f = -1/2 is the identity
eq_product.block_identity  tol=1e-10     block product formula for L(f) L(F), arbitrary smooth fields
lem2.star_power            tol=1e-07     L(f^{*k}) = L(f)^k for k = 2, 3, 4 on solutions
cor1.poly_star_closure     tol=1e-07     P*(f) remains a solution for real polynomials P
cor2.spectrum_constancy    tol=1e-06     clustered spectrum of the extended operator is point-independent
lem3.minimal_polynomial    tol=1e-05     minimal polynomial coefficients agree across points
lem4.two_real_eigenvalues  tol=0.5       at least two distinct real eigenvalue clusters everywhere
lem5.projector             tol=1e-07     Lagrange polynomial yields a non-trivial projector; 0 <= mu <= 1
lem6.eigenstructure        tol=1e-06     eigenvalue/multiplicity table of a^i_j per interior/max/min case
eq_mu.hessian              tol=1e-07     internal consistency check, not a claim: mu_,ij = 2a_ij - 2 mu g_ij
thm3.positivity            tol=0.5       metric inertia (2n,0) at samples; eigenspace restrictions at extrema
oracle.derivatives         tol=1e-06     jet derivatives (orders 1-3, Christoffel) vs finite differences
"""


def fast_config(**over):
    data = {
        "chart": {"name": "fubini_study", "n": 1},
        "solution": "height:0",
        "c": 0.25,
        "seed": 3,
        "samples": 6,
        "checks": FAST_CHECKS,
    }
    data.update(over)
    return SuiteConfig.from_dict(data)


def fast_context() -> CheckContext:
    return CheckContext.from_config(fast_config())


class TestConfig:
    def test_unknown_chart_name(self):
        with pytest.raises(ConfigError, match="chart_spec"):
            build_chart({"name": "cp_minus_one"})

    def test_unknown_chart_param(self):
        with pytest.raises(ConfigError, match="chart_spec"):
            build_chart({"name": "flat", "p": 1, "q": 1, "bogus": 2})

    def test_unknown_solution(self, fs1):
        with pytest.raises(ConfigError, match="solution_spec"):
            build_solution("harmonic:3", fs1)

    def test_height_requires_fs(self, flat11):
        with pytest.raises(ConfigError, match="solution_spec"):
            build_solution("height:0", flat11)

    def test_unknown_config_field(self):
        with pytest.raises(ConfigError, match="unknown config field"):
            SuiteConfig.from_dict({"chart": {"name": "flat"}, "speed": 11})

    def test_samples_validated(self):
        with pytest.raises(ConfigError, match="samples"):
            SuiteConfig.from_dict({"chart": {"name": "flat"}, "samples": 0})

    def test_tolerances_validated(self):
        with pytest.raises(ConfigError, match="tolerances"):
            SuiteConfig.from_dict({"chart": {"name": "flat"},
                                   "tolerances": {"eq1.residual": -1.0}})

    def test_unknown_check_name(self):
        with pytest.raises(ConfigError, match="unknown check"):
            run_suite(fast_config(checks=["definitely.not.a.check"]))

    def test_unknown_check_rejected_with_config(self):
        # Rejected when the config is read, not after earlier checks ran.
        with pytest.raises(ConfigError, match="checks"):
            fast_config(checks=["kahler.residuals", "definitely.not.a.check"])

    @pytest.mark.parametrize("value", ["kahler.residuals", 3,
                                       {"eq1.residual": 1}])
    def test_checks_must_be_a_list(self, value):
        # A string is not read as a list of one-letter check names.
        with pytest.raises(ConfigError, match=re.escape(
                "'checks' must be a list of check names")):
            fast_config(checks=value)

    def test_checks_string_override_exits_two(self, capsys):
        assert main(["verify", "--set", "checks=kahler.residuals"]) == 2
        err = capsys.readouterr().err
        assert "'checks' must be a list of check names" in err
        assert "'k'" not in err

    def test_misspelled_tolerance_key_rejected(self):
        # A typo must not silently run the check at its default tolerance.
        with pytest.raises(ConfigError, match="tolerances"):
            fast_config(tolerances={"eq1.residul": 1e-30})

    def test_nan_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerances.eq1.residual"):
            fast_config(tolerances={"eq1.residual": float("nan")})

    @pytest.mark.parametrize("field, value, name", [
        ("samples", "many", "samples"),
        ("c", "abc", "c"),
        ("seed", "seven", "seed"),
        ("radius", "wide", "radius"),
        ("tolerances", {"eq1.residual": "x"}, "tolerances.eq1.residual"),
    ])
    def test_non_numeric_value_rejected(self, field, value, name):
        with pytest.raises(ConfigError, match=re.escape(f"'{name}'")):
            fast_config(**{field: value})

    @pytest.mark.parametrize("field, value", [
        ("c", float("nan")), ("c", float("inf")), ("c", float("-inf")),
        ("radius", float("nan")), ("radius", float("inf")),
        ("radius", float("-inf")),
        ("samples", 2.5), ("seed", 7.9), ("samples", True), ("seed", -1),
    ])
    def test_value_rejected_not_coerced(self, field, value):
        with pytest.raises(ConfigError, match=re.escape(f"'{field}'")):
            fast_config(**{field: value})
        with pytest.raises(ConfigError, match=re.escape(f"'{field}'")):
            SuiteConfig(chart={"name": "flat"}, **{field: value})

    @pytest.mark.parametrize("radius", [0, -1])
    def test_non_positive_radius_rejected(self, radius):
        # radius 0 puts every sample at the origin; a negative one reflects
        # the samples through it.
        with pytest.raises(ConfigError, match="'radius' must be positive"):
            fast_config(radius=radius)

    def test_infinite_tolerance_rejected(self):
        with pytest.raises(ConfigError, match="tolerances.eq1.residual"):
            fast_config(tolerances={"eq1.residual": float("inf")})

    def test_integral_values_accepted(self):
        cfg = fast_config(samples=4.0, seed=np.int64(5), c=1, radius="0.5",
                          tolerances={"eq1.residual": 1})
        assert (cfg.samples, cfg.seed, cfg.c, cfg.radius) == (4, 5, 1.0, 0.5)
        assert type(cfg.samples) is int and type(cfg.c) is float
        assert cfg.tolerances == {"eq1.residual": 1.0}

    def test_to_dict_round_trips(self):
        cfg = fast_config(radius=0.5, tolerances={"eq1.residual": 1e-3})
        assert SuiteConfig.from_dict(cfg.to_dict()) == cfg

    def test_constant_solution_parsing(self, flat11):
        f = build_solution("constant:-0.5", flat11)
        assert f(np.zeros(4)) == -0.5


class TestRunSuite:
    def test_fast_suite_passes(self):
        report = run_suite(fast_config())
        assert report.verdict == "pass"
        assert {r.name for r in report.checks} == set(FAST_CHECKS)
        assert all(r.status == "ok" for r in report.checks)

    def test_tolerance_override_forces_failure(self):
        cfg = fast_config(tolerances={"eq1.residual": 1e-30})
        report = run_suite(cfg)
        rec = next(r for r in report.checks if r.name == "eq1.residual")
        assert not rec.passed
        assert report.verdict == "fail"

    def test_skip_recorded_with_reason(self):
        cfg = fast_config(checks=["rem2.lightlike_f3"])
        report = run_suite(cfg)
        rec = report.checks[0]
        assert rec.status == "skipped"
        assert "signature" in rec.note
        assert report.verdict == "pass"

    def test_constant_solution_skips_positivity(self):
        cfg = fast_config(solution="constant:-0.5", checks=["thm3.positivity"])
        report = run_suite(cfg)
        rec = report.checks[0]
        assert rec.status == "skipped"
        assert "non-constant solution" in rec.note
        assert report.verdict == "pass"

    def test_constant_solution_suite_passes(self):
        # The lemmas on L(f)'s spectrum and projectors assume a non-constant
        # solution: on a constant one their checks are skipped, not failed.
        report = run_suite(fast_config(solution="constant:-0.5", checks=[]))
        assert report.verdict == "pass"
        skipped = {r.name: r.note for r in report.checks if r.status == "skipped"}
        lemmas = {"cor1.poly_star_closure", "lem4.two_real_eigenvalues",
                  "lem5.projector", "lem6.eigenstructure", "thm3.positivity"}
        assert set(skipped) == lemmas | {"rem2.lightlike_f3"}
        assert all("non-constant solution" in skipped[name] for name in lemmas)

    def test_projector_error_states_the_failed_condition(self):
        # At c = -0.25 the unit metric is negative definite and L(f) of the
        # non-constant height function has no real eigenvalue: the projector
        # checks end in error, and the note names only that condition.
        names = ["cor1.poly_star_closure", "lem5.projector",
                 "lem6.eigenstructure", "thm3.positivity"]
        report = run_suite(fast_config(c=-0.25, checks=names))
        for rec in report.checks:
            assert rec.status == "error"
            assert rec.note == ("NoRealSplit: a non-trivial projector needs "
                                "at least two real eigenvalue clusters, "
                                "found 0")

    def test_error_captured_not_raised(self):
        cfg = fast_config(c=0.3, checks=["lem5.projector"])
        report = run_suite(cfg)
        rec = report.checks[0]
        assert rec.status == "error"
        assert "NotProjector" in rec.note
        assert report.verdict == "fail"

    def test_reports_deterministic_modulo_timing(self):
        a = emit_report(run_suite(fast_config()), "json", zero_timing=True)
        b = emit_report(run_suite(fast_config()), "json", zero_timing=True)
        assert a == b
        ca = emit_report(run_suite(fast_config()), "csv", zero_timing=True)
        cb = emit_report(run_suite(fast_config()), "csv", zero_timing=True)
        assert ca == cb

    def test_zero_c_skips_unit_normalized_checks(self):
        # c = 0 cannot be folded into the metric; checks that need the
        # c = 1 normalization are skipped with the reason, not errors.
        cfg = fast_config(c=0.0, checks=["eq1.residual", "sys.residual",
                                         "lem5.projector", "thm3.positivity"])
        recs = {r.name: r for r in run_suite(cfg).checks}
        assert recs["eq1.residual"].status == "ok"
        for name in ("sys.residual", "lem5.projector", "thm3.positivity"):
            assert recs[name].status == "skipped"
            assert "c = 0" in recs[name].note
            assert recs[name].passed

    def test_positivity_with_one_sample(self):
        # One sample has zero value spread; the non-zero gradient still
        # marks the height function as non-constant.
        report = run_suite(fast_config(samples=1, checks=["thm3.positivity"]))
        rec = report.checks[0]
        assert rec.status == "ok"
        assert rec.passed, rec.note
        assert "verdict=positive" in rec.note
        assert "inertia=(2,0)" in rec.note

    def test_interior_critical_point_fails_positivity(self, monkeypatch):
        # A critical point of mu whose mu is neither 1 nor 0 contradicts
        # mu^2 = mu there; it gets no eigenspace restriction and fails.
        scan = verify._positivity_scan

        def interior(*args):
            report = scan(*args)
            for fnd in report.extremal_findings:
                fnd.kind = "interior"
                fnd.g_restricted_inertia = fnd.identity_residual = None
            return report

        monkeypatch.setattr(verify, "_positivity_scan", interior)
        report = run_suite(fast_config(checks=["thm3.positivity"]))
        rec = report.checks[0]
        assert rec.status == "ok"
        assert not rec.passed, rec.note

    def test_suite_assembles_solution_operator_once(self, monkeypatch):
        # cor2, lem3, lem4 and lem2 all read the suite's one L(f) at the
        # samples, built from the context's shared jets.  Every operator
        # the package assembles goes through operator._operator.
        cfg = SuiteConfig.from_dict(DEFAULT_CONFIG)
        chart = build_chart(cfg.chart)
        pts = np.array(sample_points(chart, cfg.samples, cfg.seed))
        f_values = build_solution(cfg.solution, chart)(pts)
        calls, operator_of = [], operator._operator

        def spy_operator(fc, g0, G0, Jm):
            if len(fc) == len(pts) and np.array_equal(fc[:, 0], f_values):
                calls.append(fc.shape)
            return operator_of(fc, g0, G0, Jm)

        monkeypatch.setattr(operator, "_operator", spy_operator)
        monkeypatch.setattr(verify, "_operator", spy_operator)
        report = run_suite(cfg)
        assert report.passed
        assert calls == [(DEFAULT_CONFIG["samples"], jets.size(2, 2))]

    @staticmethod
    def _chains(monkeypatch):
        """The suite's context with the pass and the projector evaluated,
        and the point counts of the covariant chains formed after that."""
        ctx = CheckContext.from_config(SuiteConfig.from_dict(DEFAULT_CONFIG))
        ctx.projector
        calls, chain = [], calculus.scalar_covariant_jets

        def spy(*args):
            calls.append(len(args[0]))
            return chain(*args)

        for module in (calculus, tanno, operator):
            monkeypatch.setattr(module, "scalar_covariant_jets", spy,
                                raising=False)
        return ctx, calls

    def test_mu_hessian_forms_one_chain(self, monkeypatch):
        # The bundle's a_ij and mu_{,ij} = -2 f_{,ij} share f's chain.
        ctx, calls = self._chains(monkeypatch)
        assert REGISTRY["eq_mu.hessian"].func(ctx).max_residual < 1e-7
        assert calls == [len(ctx.P)]

    def test_positivity_forms_one_chain_at_the_critical_points(self,
                                                               monkeypatch):
        # L and mu_{,ij} = -2 f_{,ij} at the critical points share P*(f)'s
        # chain.
        ctx, calls = self._chains(monkeypatch)
        out = REGISTRY["thm3.positivity"].func(ctx)
        assert out.max_residual == 0.0 and "critical_sets=1" in out.note
        assert len(calls) == 1

    def test_star_power_evaluates_the_unit_chart_once(self, monkeypatch):
        # lem2 reads g and Gamma at P[:20] from the suite's unit geometry:
        # the chart is evaluated by the sample pass and by the chain, once
        # each (the chain's g^-1 through order 4 at the 20 points).
        evaluated, metric_coeffs = [], KahlerChart.metric_coeffs

        def spy(chart, p, order):
            evaluated.append((chart.name, len(p), order))
            return metric_coeffs(chart, p, order)

        monkeypatch.setattr(KahlerChart, "metric_coeffs", spy)
        report = run_suite(SuiteConfig.from_dict(
            dict(DEFAULT_CONFIG, checks=["lem2.star_power"])))
        assert report.passed
        name = build_chart(DEFAULT_CONFIG["chart"]).name
        assert evaluated == [(name, DEFAULT_CONFIG["samples"], 2),
                             (f"{name} (metric x 0.25)", 20, 4)]

    def test_block_identity_evaluates_no_chart(self, monkeypatch):
        # block_identity builds L(f) and L(F) on the suite's unit geometry
        # at P[:5], so the sample pass is the suite's one chart evaluation.
        evaluated, metric_coeffs = [], KahlerChart.metric_coeffs

        def spy(chart, p, order):
            evaluated.append((chart.name, len(p), order))
            return metric_coeffs(chart, p, order)

        monkeypatch.setattr(KahlerChart, "metric_coeffs", spy)
        report = run_suite(SuiteConfig.from_dict(
            dict(DEFAULT_CONFIG, checks=["eq_product.block_identity"])))
        assert report.passed
        name = build_chart(DEFAULT_CONFIG["chart"]).name
        assert evaluated == [(name, DEFAULT_CONFIG["samples"], 2)]

    @staticmethod
    def _sample_evaluations(monkeypatch, data):
        """(report, orders, eig_calls): the suite's report, the order of each
        jet evaluation at its sample batch, and the shape of each eigvals
        call."""
        config = SuiteConfig.from_dict(data)
        chart = build_chart(config.chart)
        pts = np.array(sample_points(chart, config.samples, config.seed))
        orders, eig_calls = [], []
        evaluate, eigvals = jets.eval_coeffs, np.linalg.eigvals

        def spy_evaluate(fn, p, order):
            if np.shape(p) == pts.shape and np.array_equal(p, pts):
                orders.append(order)
            return evaluate(fn, p, order)

        def spy_eigvals(a):
            eig_calls.append(np.shape(a))
            return eigvals(a)

        monkeypatch.setattr(jets, "eval_coeffs", spy_evaluate)
        monkeypatch.setattr(np.linalg, "eigvals", spy_eigvals)
        report = run_suite(config)
        monkeypatch.undo()
        return report, orders, eig_calls

    def test_suite_evaluates_sample_quantities_once(self, monkeypatch):
        # CP(3) at 200 samples with every check that runs no ODE (the
        # benchmark's cp3_points config, and rem2).  The checks read the
        # context's one pass over the samples, and the spectra are one
        # eigenvalue call per stack: 3 jet evaluations at the samples, the
        # chart through metric order 2, f through order 3 and P*(f) through
        # order 2 (23 when each check evaluated its own, 7 before the pass
        # also yielded f's jets and the unit geometry), and 3 eigvals calls
        # (640 at one per matrix).
        report, orders, eig_calls = self._sample_evaluations(monkeypatch, {
            "chart": {"name": "fubini_study", "n": 3}, "solution": "height:0",
            "c": 0.25, "seed": 7, "samples": 200,
            "checks": [name for name in DEFAULT_CHECKS
                       if not name.startswith("lem1.")]})
        assert report.passed
        assert len(orders) <= 3, orders
        assert len(eig_calls) <= 3

    def test_default_suite_evaluates_sample_quantities_once(self, monkeypatch):
        # The CLI default, transport checks included: the same 3 evaluations.
        report, orders, _ = self._sample_evaluations(monkeypatch,
                                                     DEFAULT_CONFIG)
        assert report.passed
        assert len(orders) <= 3, orders

    def test_suite_calls_no_public_evaluator(self, monkeypatch):
        # The bundle and the metric's inertia come from the sample pass, and
        # cor1 applies the system's jet-taking core to jets it evaluated:
        # no check calls the public functions that evaluate for themselves.
        def fail(*args):
            raise AssertionError("evaluated outside the sample pass")

        for module, name in ((tanno, "bundle_from_f"),
                             (tanno, "system_residual"),
                             (signature, "metric_signature")):
            monkeypatch.setattr(module, name, fail)
            monkeypatch.setattr(verify, name, fail, raising=False)
        assert run_suite(SuiteConfig.from_dict(DEFAULT_CONFIG)).passed

    def test_poly_star_closure_reads_suite_projector(self, monkeypatch):
        # cor1 takes its polynomial from ctx.projector; no check assembles
        # L(f) at a single point.
        shapes, assemble, operator_of = [], operator.assemble_L, verify._operator

        def spy_assemble(prob, p):
            shapes.append(np.shape(p))
            return assemble(prob, p)

        def spy_operator(fc, g0, G0, Jm):
            shapes.append(np.shape(fc))
            return operator_of(fc, g0, G0, Jm)

        monkeypatch.setattr(operator, "assemble_L", spy_assemble)
        monkeypatch.setattr(verify, "_operator", spy_operator)
        report = run_suite(SuiteConfig.from_dict(DEFAULT_CONFIG))
        assert report.passed
        assert shapes and all(len(s) == 2 for s in shapes)

    def test_transport_loop_stays_in_domain(self, monkeypatch):
        # The loop through P[0] bends toward the origin, so it stays inside.
        worst, transport = [], verify.transport_bundle

        def spy_transport(chart, path, init):
            worst.append(np.max(np.linalg.norm(path, axis=1))
                         / chart.domain_radius)
            return transport(chart, path, init)

        monkeypatch.setattr(verify, "transport_bundle", spy_transport)
        for seed in range(1, 21):
            data = dict(DEFAULT_CONFIG, seed=seed,
                        checks=["lem1.transport_loop"])
            rec = run_suite(SuiteConfig.from_dict(data)).checks[0]
            assert rec.status == "ok" and rec.passed, rec.note
        assert len(worst) == 20 and max(worst) <= 1.0

    def test_transport_loop_keeps_its_radius(self, monkeypatch):
        # Samples drawn out to the domain boundary (radius 2 = R): at seed
        # 190 the loop once shrank to r = 0.0048 and measured nothing.
        loops, transport = [], verify.transport_bundle

        def spy_transport(chart, path, init):
            loops.append((np.array(path), chart.domain_radius))
            return transport(chart, path, init)

        monkeypatch.setattr(verify, "transport_bundle", spy_transport)
        for seed in (190, 7):
            data = dict(DEFAULT_CONFIG, seed=seed, radius=2.0,
                        checks=["lem1.transport_loop"])
            rec = run_suite(SuiteConfig.from_dict(data)).checks[0]
            assert rec.status == "ok" and rec.passed, rec.note
            path, R = loops[-1]
            assert len(path) == 41
            center = path[:-1].mean(axis=0)
            assert np.allclose(np.linalg.norm(path - center, axis=1), 0.3 * R,
                               rtol=1e-12)
            assert np.max(np.linalg.norm(path, axis=1)) <= R

    @pytest.mark.parametrize("chart", [
        {"name": "fubini_study", "n": 1}, {"name": "fubini_study", "n": 2},
        {"name": "fubini_study", "n": 3}], ids=["cp1", "cp2", "cp3"])
    def test_exact_identities_are_exactly_zero(self, chart):
        # The benchmark gate holds these two checks to a tolerance of 0.
        report = run_suite(SuiteConfig(
            chart=chart, solution="height:0", c=0.25, seed=7,
            checks=["op.identity_at_constant", "sys.inverse_roundtrip"]))
        assert [(r.status, r.max_residual) for r in report.checks] == [
            ("ok", 0.0), ("ok", 0.0)]

    @pytest.mark.parametrize("chart, solution, c", [
        ({"name": "fubini_study", "n": 1}, "height:0", 0.3),
        ({"name": "fubini_study", "n": 2}, "quadratic:3", 0.25)],
        ids=["cp1_wrong_c", "cp2_not_a_solution"])
    def test_negative_controls_fail(self, chart, solution, c):
        # On a wrong solution only checks that hold for any field, and the
        # checks that are identities of how the code is built, may PASS.
        any_field = {"kahler.residuals", "op.identity_at_constant",
                     "eq_product.block_identity", "oracle.derivatives"}
        # The tautologies ROADMAP item 2 is to delete or relabel; this list
        # must end up empty.
        tautologies = {"sys.inverse_roundtrip", "lem1.transport_zero",
                       "eq_mu.hessian", "lem4.two_real_eigenvalues"}
        report = run_suite(SuiteConfig(chart=chart, solution=solution, c=c,
                                       seed=7))
        assert report.verdict == "fail"
        passing = {r.name for r in report.checks
                   if r.status == "ok" and r.passed}
        assert passing == any_field | tautologies

    @pytest.mark.parametrize("n, solution, radius, samples", [
        (1, "height:0", 0.005, 25), (2, "height:1", 0.01, 25),
        (2, "height:1", 0.003, 25), (2, "height:0", 0.004, 25),
        (2, "height:2", 0.004, 25), (3, "height:3", 0.004, 10)])
    def test_eigenstructure_near_an_extremum_passes(self, n, solution, radius,
                                                    samples):
        # Samples this close to the centre have mu within 10 EIGEN_TOL of 0
        # or 1 without being extremal; one formula in mu is right at each.
        record = run_suite(SuiteConfig(
            chart={"name": "fubini_study", "n": n}, solution=solution, c=0.25,
            seed=7, samples=samples, radius=radius,
            checks=["lem6.eigenstructure"])).checks[0]
        assert record.status == "ok" and record.passed
        assert record.max_residual <= 1e-12

    def test_projector_reads_suite_spectrum(self, monkeypatch):
        # The projector's polynomial comes from the suite's spectra[0]: the
        # only operator it builds is L(P*(f)), never L(f) again, on the
        # suite's g and Gamma at the samples, without evaluating the chart.
        ctx = fast_context()
        ctx.spectra
        built, operator_of = [], operator._operator

        def spy_operator(fc, g0, G0, Jm):
            built.append((fc, g0, G0))
            return operator_of(fc, g0, G0, Jm)

        def fail(*args):
            raise AssertionError("chart evaluated at the samples")

        monkeypatch.setattr(operator, "_operator", spy_operator)
        monkeypatch.setattr(KahlerChart, "metric_coeffs", fail)
        _, f_proj, _ = ctx.projector
        monkeypatch.undo()
        assert len(built) == 1
        fc, g0, G0 = built[0]
        assert g0 is ctx.unit_geometry[0] and G0 is ctx.unit_geometry[1]
        assert np.array_equal(fc, f_proj.taylor(ctx.P, 2))

    def test_projector_check_reuses_operator_entries(self, monkeypatch):
        ctx = fast_context()
        P, f_proj, Ls = ctx.projector
        probP = TannoProblem(ctx.unit_problem.chart, f_proj, 1.0)
        assert np.array_equal(Ls, assemble_L(probP, ctx.P))
        assert projector_from_solution(ctx.unit_problem, ctx.P)[0] == P

        def fail(*args):
            raise AssertionError("L re-assembled")
        monkeypatch.setattr(operator, "assemble_L", fail)
        monkeypatch.setattr(verify, "_operator", fail)
        assert REGISTRY["lem5.projector"].func(ctx).max_residual < 1e-7

    def test_projector_checks_evaluate_no_projector_jets(self, monkeypatch):
        # lem5 and lem6 read mu and a^i_j from the suite's verified L(P*(f)).
        ctx = fast_context()
        _, f_proj, _ = ctx.projector

        def fail(*args):
            raise AssertionError("P*(f) jets evaluated again")
        monkeypatch.setattr(f_proj, "jets", fail)
        for name in ("lem5.projector", "lem6.eigenstructure"):
            spec = REGISTRY[name]
            assert spec.func(ctx).max_residual <= spec.tolerance


PASS_CHECKS = ["kahler.residuals", "eq1.residual", "rem1.laplace_identity",
               "sys.residual", "sys.trace_identity"]

PASS_CHARTS = [
    ({"name": "fubini_study", "n": 1}, "height:0"),
    ({"name": "fubini_study", "n": 2}, "height:0"),
    ({"name": "fubini_study", "n": 3}, "height:0"),
    ({"name": "flat", "p": 1, "q": 1}, "quadratic:3"),
]


class TestSamplePass:
    """CheckContext.sample_rows: the rows of six checks from one
    evaluation of the chart and f at the samples; rem2's on indefinite
    charts only."""

    @staticmethod
    def _context(chart, solution, c, samples=9):
        return CheckContext.from_config(SuiteConfig.from_dict({
            "chart": chart, "solution": solution, "c": c, "seed": 5,
            "samples": samples}))

    @pytest.mark.parametrize("c", [0.25, 0.3, -0.25])
    @pytest.mark.parametrize("chart, solution", PASS_CHARTS)
    def test_rows_equal_the_public_residuals(self, chart, solution, c):
        ctx = self._context(chart, solution, c)
        rows = ctx.sample_rows
        prob, unit = ctx.problem, ctx.unit_problem
        expected = {
            "kahler.residuals": np.max(kahler_residuals(ctx.chart, ctx.P),
                                       axis=0),
            "eq1.residual": frob_rows(tanno_residual(prob, ctx.P)),
            "rem1.laplace_identity": laplace_identity_residual(prob, ctx.P),
            "sys.residual": np.max(system_residual(unit, ctx.P), axis=0),
            "sys.trace_identity": trace_identity_residual(unit, ctx.P),
        }
        if chart["name"] == "flat":
            normals = np.random.default_rng(ctx.seed).normal(
                size=(len(ctx.P), verify.NULL_VECTORS, 4))
            null = verify._null_vectors(ctx.chart.at(ctx.P, 0).g0, normals)
            T3 = nabla_scalar(ctx.chart, ctx.f, ctx.P, 3).components
            expected["rem2.lightlike_f3"] = np.max(
                np.abs(_cubic_form(T3, null)), axis=1)
        assert sorted(rows) == sorted(expected)
        for name in expected:
            if name.startswith("sys.") and abs(c) != 0.25:
                # The pass's unit geometry is the chart's own Gamma and
                # g^-1 / c; the public residual evaluates the rescaled chart
                # afresh, whose g^-1 and Gamma round differently unless c
                # is a power of two.
                assert np.allclose(rows[name], expected[name], rtol=1e-13,
                                   atol=0.0), name
            else:
                assert np.array_equal(rows[name], expected[name]), name

    @pytest.mark.parametrize("samples", [1, 99, 100, 101, 257])
    @pytest.mark.parametrize("chart, solution", PASS_CHARTS)
    def test_blocks_give_the_bits_of_one_block(self, chart, solution,
                                               samples, monkeypatch):
        # The pass in blocks of SAMPLE_BLOCK points against one block of
        # all samples: every row, f's coefficients, the unit g and Gamma
        # and the bundle are the same bits.  The unit geometry is two
        # arrays, g and Gamma at the points, and they are the chart's.  On
        # flat(1,1) f is a cubic, whose rem2 row reads the null vectors
        # (a quadratic's reads 0 at any vector).
        def context():
            ctx = self._context(chart, solution, 0.3, samples)
            if chart["name"] != "flat":
                return ctx
            return CheckContext(ctx.chart, random_polynomial_field(4, 5),
                                ctx.c, ctx.P, ctx.seed)

        ctx = context()
        rows, absent, fc, (g0, G0) = ctx._sample_pass
        monkeypatch.setattr(charts, "SAMPLE_BLOCK", samples + 1)
        one = context()
        one_rows, one_absent, one_fc, (one_g0, one_G0) = one._sample_pass
        assert absent == one_absent
        if chart["name"] == "flat":
            assert np.min(rows["rem2.lightlike_f3"]) > 0
        else:
            assert "rem2.lightlike_f3" in absent
        assert sorted(rows) == sorted(one_rows)
        for name in rows:
            assert rows[name].shape == (samples,)
            assert np.array_equal(rows[name], one_rows[name]), name
        assert np.array_equal(fc, one_fc)
        assert np.array_equal(g0, one_g0)
        assert np.array_equal(G0, one_G0)
        b, one_b = ctx.bundle, one.bundle
        for got, want in ((b.a, one_b.a), (b.grad, one_b.grad),
                          (b.mu, one_b.mu)):
            assert np.array_equal(got, want)
        # g and Gamma at the points, with no axis of derivatives.
        d = ctx.chart.dim
        assert g0.shape == (samples, d, d) and G0.shape == (samples, d, d, d)
        full = ctx.chart.at(ctx.P, 2)
        assert np.array_equal(g0, 0.3 * full.g0)
        assert np.array_equal(G0, full.gamma_coeffs(1)[..., 0])
        assert np.array_equal(
            charts.checked_inverse(g0),
            ctx.unit_problem.chart.at(ctx.P, 0).ginv_coeffs()[..., 0])

    def test_a_singular_sample_gives_the_error_of_one_block(self, monkeypatch):
        # g = diag(1, y) at (x, y), held at degree 0 only: the singular test
        # reads g at the samples before anything else.  Samples 150 (rcond
        # 1e-13) and 250 (exactly singular) fail, the worse one last: the
        # blocks of 100 stop in the second block, one block at the first
        # singular point, and both name sample 150.
        def metric_fn(P, order):
            g = np.zeros((len(P), 2, 2, 1))
            g[:, 0, 0, 0], g[:, 1, 1, 0] = 1.0, P[:, 1]
            return g

        chart = KahlerChart(2, metric_fn, charts.standard_complex_structure(2),
                            10.0, "diag(1, y)")
        P = np.ones((300, 2))
        P[150, 1], P[250, 1] = 1e-13, 0.0
        messages = []
        for block in (charts.SAMPLE_BLOCK, len(P)):
            monkeypatch.setattr(charts, "SAMPLE_BLOCK", block)
            ctx = CheckContext(chart, random_polynomial_field(2, 5), 0.3, P, 5)
            with pytest.raises(SingularMetric) as exc:
                ctx.sample_rows
            messages.append(str(exc.value))
        assert messages == ["reciprocal condition number 1e-13 of g is below "
                            "1e-12 on diag(1, y)"] * 2

    @pytest.mark.parametrize("c", [0.25, 0.3, -0.25])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_unit_jets_equal_the_rescaled_chart(self, n, c):
        # The unit geometry is the chart's rescaled by c: the chart's own
        # Gamma, c g and g^-1 / c.  A fresh evaluation of the rescaled chart
        # gives the same bits at c = +-1/4, and within 1e-15 otherwise.
        ctx = self._context({"name": "fubini_study", "n": n}, "height:0", c)
        base = ctx.chart.at(ctx.P, 2)
        unit = base.rescaled(c, ctx.unit_problem.chart)
        assert unit.chart is ctx.unit_problem.chart and unit.order == 2
        assert unit.gamma_coeffs(1) is base.gamma_coeffs(1)
        assert np.array_equal(unit.coeffs, c * base.coeffs)
        assert np.array_equal(unit.ginv_coeffs(1), base.ginv_coeffs(1) / c)
        ref = ctx.unit_problem.chart.at(ctx.P, 2)
        assert np.array_equal(unit.coeffs, ref.coeffs)
        for got, want in ((unit.ginv_coeffs(1), ref.ginv_coeffs(1)),
                          (unit.gamma_coeffs(1), ref.gamma_coeffs(1))):
            assert got.shape == want.shape
            if abs(c) == 0.25:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_one_evaluation_for_all_five_checks(self, monkeypatch):
        ctx = self._context({"name": "fubini_study", "n": 2}, "height:0", 0.25)
        evaluated, metric_coeffs = [], KahlerChart.metric_coeffs

        def spy(chart, p, order):
            evaluated.append(order)
            return metric_coeffs(chart, p, order)

        monkeypatch.setattr(KahlerChart, "metric_coeffs", spy)
        for name in PASS_CHECKS:
            assert REGISTRY[name].func(ctx).max_residual < 1e-6
        assert evaluated == [2]

    def test_pass_yields_jets_geometry_and_bundle(self, monkeypatch):
        # f's jets, the unit geometry and the bundle come from the pass and
        # evaluate nothing; the geometry is held at the points only.
        ctx = self._context({"name": "fubini_study", "n": 2}, "height:0", 0.25)
        ctx.sample_rows

        def fail(*args):
            raise AssertionError("evaluated at the samples again")

        monkeypatch.setattr(KahlerChart, "metric_coeffs", fail)
        monkeypatch.setattr(jets, "eval_coeffs", fail)
        (g0, G0), fc, b = ctx.unit_geometry, ctx.f_coeffs, ctx.bundle
        monkeypatch.undo()
        N = len(ctx.P)
        assert g0.shape == (N, 4, 4) and G0.shape == (N, 4, 4, 4)
        ref = ctx.unit_problem.chart.at(ctx.P, 1)
        assert np.array_equal(g0, ref.g0)
        assert np.array_equal(G0, ref.gamma0)
        assert np.array_equal(G0, ctx.chart.at(ctx.P, 1).gamma0)
        assert np.array_equal(fc, ctx.f.taylor(ctx.P, 2))
        assert np.array_equal(b.mu, -2.0 * fc[:, 0])

    def test_pass_derives_gamma_once_and_stays_in_coefficients(self, monkeypatch):
        # A cp3_points suite: its sample pass inverts the metric once per
        # block (the unit geometry takes g^-1 / c and the chart's Gamma)
        # and neither compresses nor expands a jet; across the suite only
        # the cubic field, which writes its derivatives in closed form,
        # compresses.
        calls = []

        def spy(name):
            fn = getattr(jets, name)

            def wrapped(*args, **kwargs):
                frame = sys._getframe(1)
                calls.append((name, frame.f_globals["__name__"],
                              frame.f_code.co_name))
                return fn(*args, **kwargs)
            monkeypatch.setattr(jets, name, wrapped)

        for name in ("cinv", "compress", "expand"):
            spy(name)
        config = SuiteConfig.from_dict(
            dict(report_corpus.CONFIGS["cp3_points"], seed=7))
        CheckContext.from_config(config).sample_rows
        blocks = -(-config.samples // charts.SAMPLE_BLOCK)
        assert blocks == 2
        assert calls == [("cinv", "tannolab.charts", "ginv_coeffs")] * blocks
        calls.clear()
        assert run_suite(config).passed
        assert {c[1:] for c in calls if c[0] == "compress"} == {
            ("tannolab.manifolds", "_taylor")}

    @staticmethod
    def _traced_pass(samples):
        """(peak, held): the traced peak of a CP(3) pass at seed 7, and what
        the context holds after it."""
        config = {"chart": {"name": "fubini_study", "n": 3},
                  "solution": "height:0", "c": 0.25, "seed": 7,
                  "samples": samples}
        CheckContext.from_config(SuiteConfig.from_dict(config)).sample_rows
        ctx = CheckContext.from_config(SuiteConfig.from_dict(config))
        tracemalloc.start()                 # the tables are built above
        try:
            ctx.sample_rows
            return tracemalloc.get_traced_memory()[::-1]
        finally:
            tracemalloc.stop()

    def test_pass_memory_is_bounded(self):
        # The benchmark's cp3_points pass: CP(3), 200 samples, seed 7.  It
        # peaked at 15.4 MB traced while a product held its factors beside
        # their stacked copies and gathered 2 MB pieces, and at 10.2 MB
        # while the unit chart derived its own g^-1 and Gamma and a_ij went
        # through derivative lists, and at 9.98 MB in the covariant chain's
        # Gamma product while the metric's degree-2 block was still held.
        # With that block dropped once Gamma exists, 9.25 MB, in Gamma's
        # own product.  In blocks of 100 points, 4.94 MB, in a block's
        # covariant chain.  The bound leaves 0.16 MB.
        peak, _ = self._traced_pass(200)
        assert peak < 5.1e6

    def test_pass_memory_does_not_grow_with_the_samples(self):
        # At 1 000 samples the pass peaked at 46.1 MB traced in one block;
        # in blocks, at 7.09 MB.  That is one block's peak, 4.38 MB above
        # what the pass holds, plus the state the context keeps per sample
        # (g, Gamma, f's coefficients and the rows: 2.33 KB per point on
        # CP(3), 2.33 MB here) and the null-vector draw (384 bytes per
        # point, freed with the pass).  The bound leaves 0.22 MB.
        peak, held = self._traced_pass(1000)
        assert held < 2.4e6
        assert peak < 4.6e6 + held + 384 * 1000

    def test_head_equals_an_evaluation_at_the_points(self):
        # lem2 and the block identity slice the unit geometry to their
        # first k samples: the slices are an evaluation there, bit for bit.
        ctx = self._context({"name": "fubini_study", "n": 2}, "height:0", 0.25)
        for k in (1, 4, len(ctx.P)):
            g0, G0 = (x[:k] for x in ctx.unit_geometry)
            ref = ctx.unit_problem.chart.at(ctx.P[:k], 1)
            assert np.array_equal(g0, ref.g0)
            assert np.array_equal(G0, ref.gamma0)

    def test_zero_c_keeps_the_chart_rows(self):
        ctx = self._context({"name": "fubini_study", "n": 1}, "height:0", 0.0)
        assert sorted(ctx.sample_rows) == sorted(PASS_CHECKS[:3])
        assert ctx.f_coeffs.shape == (9, jets.size(2, 2))
        with pytest.raises(verify.SkipCheck, match="c = 0"):
            ctx.unit_geometry
        recs = {r.name: r for r in run_suite(fast_config(
            c=0.0, checks=PASS_CHECKS)).checks}
        for name in PASS_CHECKS[:3]:
            assert recs[name].status == "ok"
        for name in PASS_CHECKS[3:]:
            assert recs[name].status == "skipped" and recs[name].passed
            assert recs[name].note == ("c = 0: the metric cannot be rescaled "
                                       "to the c = 1 normalization")


class TestLightlikeRow:
    """rem2.lightlike_f3: max |f_{,ijk} v^i v^j v^k| over null vectors v
    of g at each sample, a row of the sample pass."""

    @staticmethod
    def _outcome(chart, f, c=0.25, samples=25, seed=7, radius=0.6):
        P = np.array(sample_points(chart, samples, seed, radius))
        return verify.check_lightlike_f3(CheckContext(chart, f, c, P, seed))

    @pytest.mark.parametrize("seed", [1, 7, 42])
    def test_cubic_fails_on_flat11(self, flat11, seed):
        tol = REGISTRY["rem2.lightlike_f3"].tolerance
        out = self._outcome(flat11, random_polynomial_field(4, seed),
                            seed=seed, radius=5.0)
        assert out.max_residual > 1e3 * tol
        assert out.points == 25

    def test_cp11_heights_pass_and_cubic_fails(self, cp11, cp11_heights):
        for f in cp11_heights:
            assert self._outcome(cp11, f).max_residual <= 1e-12
        cubic = random_polynomial_field(4, seed=7)
        assert self._outcome(cp11, cubic).max_residual > 1.0

    @pytest.mark.parametrize("p, q", [(1, 1), (1, 2)])
    @pytest.mark.parametrize("c", [0.0, 1.0])
    def test_quadratic_reads_zero_on_flat(self, p, q, c):
        rec = run_suite(fast_config(
            chart={"name": "flat", "p": p, "q": q}, solution="quadratic:3",
            c=c, checks=["rem2.lightlike_f3"])).checks[0]
        assert rec.status == "ok" and rec.passed
        assert rec.max_residual == 0.0
        assert rec.points == 6

    @pytest.mark.parametrize("chart, solution", [
        ({"name": "fubini_study", "n": 1}, "height:0"),
        ({"name": "fubini_study", "n": 3}, "height:0"),
        ({"name": "flat", "p": 2, "q": 0}, "quadratic:3"),
        ({"name": "flat", "p": 0, "q": 1}, "quadratic:3"),
    ])
    def test_definite_charts_skip(self, chart, solution):
        rec = run_suite(fast_config(chart=chart, solution=solution,
                                    checks=["rem2.lightlike_f3"])).checks[0]
        assert rec.status == "skipped" and rec.passed
        assert rec.note == "needs a metric of mixed signature"

    def test_no_ode_on_check_path(self, monkeypatch):
        def no_ode(*args, **kwargs):
            raise AssertionError("an ODE ran on the check path")

        monkeypatch.setattr(dop853, "integrate", no_ode)
        report = run_suite(SuiteConfig.from_dict({
            "chart": {"name": "flat", "p": 1, "q": 1},
            "solution": "quadratic:3", "c": 0.0}))
        assert report.passed
        rec = next(r for r in report.checks if r.name == "rem2.lightlike_f3")
        assert rec.status == "ok"

    def test_every_sample_must_be_indefinite(self):
        # Potential |z|^2 - |w|^2 + |w|^4: g is indefinite where |w| < 1/2
        # and definite beyond.  The pass tests every sample, not only its
        # first block: one definite sample in the last block leaves the
        # row out.
        def potential(x):
            w2 = x[2] * x[2] + x[3] * x[3]
            return x[0] * x[0] + x[1] * x[1] - w2 + w2 * w2

        chart = KahlerChart.from_potential(4, potential, 2.0, "mixed")
        f = random_polynomial_field(4, 7)
        P = 0.2 * np.random.default_rng(7).uniform(
            -1, 1, (charts.SAMPLE_BLOCK + 1, 4))
        rows, absent = CheckContext(chart, f, 0.0, P, 7)._sample_pass[:2]
        assert np.min(rows["rem2.lightlike_f3"]) > 0
        P[-1] = [0.0, 0.0, 0.8, 0.0]
        rows, absent = CheckContext(chart, f, 0.0, P, 7)._sample_pass[:2]
        assert "rem2.lightlike_f3" not in rows
        assert absent["rem2.lightlike_f3"] == ("needs a metric of mixed "
                                              "signature")

    def test_null_vectors(self, cp11, fs2):
        def normals(seed, points=9):
            return np.random.default_rng(seed).normal(size=(points, 8, 4))

        P = np.array(sample_points(cp11, 9, 3, 0.8))
        g0 = cp11.at(P, 0).g0
        V = verify._null_vectors(g0, normals(3))
        assert V.shape == (9, 8, 4)
        assert np.allclose(np.linalg.norm(V, axis=-1), 1.0, rtol=0, atol=1e-15)
        gvv = np.einsum("zki,zij,zkj->zk", V, g0, V)
        assert np.max(np.abs(gvv)) < 1e-14 * np.max(np.abs(g0))
        assert np.array_equal(V, verify._null_vectors(g0, normals(3)))
        assert not np.array_equal(V, verify._null_vectors(g0, normals(4)))
        # Each point's vectors come from its own rows of the draw.
        assert np.array_equal(V[4:], verify._null_vectors(g0[4:],
                                                          normals(3)[4:]))
        definite = fs2.at(np.array(sample_points(fs2, 3, 3)), 0).g0
        assert verify._null_vectors(definite, normals(3, 3)) is None
        mixed = np.concatenate([g0[:2], np.eye(4)[None]])
        assert verify._null_vectors(mixed, normals(3, 3)) is None


class TestEmission:
    def test_check_record_slotted(self):
        rec = run_suite(fast_config()).checks[0]
        assert not hasattr(rec, "__dict__")
        assert CheckRecord(**dataclasses.asdict(rec)) == rec
        assert dataclasses.replace(rec, seconds=0.0).seconds == 0.0

    def test_json_roundtrip(self, tmp_path):
        report = run_suite(fast_config())
        path = tmp_path / "report.json"
        emit_report(report, "json", path)
        loaded = load_report(path)
        assert loaded.to_dict() == report.to_dict()

    def test_csv_shape(self):
        report = run_suite(fast_config())
        text = emit_report(report, "csv")
        lines = text.strip().splitlines()
        assert lines[0] == "check,max_residual,tolerance,pass,points,seconds"
        assert len(lines) == 1 + len(FAST_CHECKS)

    def test_empty_check_list_uses_defaults(self):
        # An explicit empty list falls back to the registered defaults.
        cfg = fast_config()
        cfg.checks = []
        # Not executed here (slow); just confirm the fallback wiring.
        from tannolab.verify import DEFAULT_CHECKS
        names = cfg.checks or DEFAULT_CHECKS
        assert set(names) == set(DEFAULT_CHECKS)

    def test_unknown_format(self):
        report = run_suite(fast_config())
        with pytest.raises(ConfigError):
            emit_report(report, "xml")


class TestCli:
    def test_verify_exit_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "chart": {"name": "flat", "p": 1, "q": 1},
            "solution": "constant:-0.5", "c": 1.0, "samples": 4,
            "checks": ["sys.residual", "op.identity_at_constant"],
        }))
        rc = main(["verify", "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "suite verdict: pass" in out

    def test_verify_exit_one_on_failure(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "chart": {"name": "fubini_study", "n": 1},
            "solution": "height:0", "c": 1.0, "samples": 4,
            "checks": ["eq1.residual"],
        }))
        assert main(["verify", "--config", str(cfg)]) == 1

    def test_verify_exit_two_on_config_error(self, capsys):
        rc = main(["verify", "--set", 'chart={"name":"nope"}'])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_numeric_override_exits_two(self, capsys):
        assert main(["verify", "--set", "samples=many"]) == 2
        assert "'samples' must be a number" in capsys.readouterr().err

    def test_non_finite_override_exits_two(self, capsys):
        assert main(["verify", "--set", "c=NaN", "--set", "samples=3"]) == 2
        assert "'c' must be finite" in capsys.readouterr().err

    def test_set_tolerance_of_dotted_check(self, capsys):
        rc = main(["verify", "--set", "tolerances.eq1.residual=1e-30"])
        assert rc == 1
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("FAIL  eq1.residual ") for line in lines)

    def test_list_checks(self, capsys):
        assert main(["verify", "--list-checks"]) == 0
        assert capsys.readouterr().out == LIST_CHECKS

    def test_default_checks(self):
        # Every registered check but eq2.residual, in report order.
        names = [line.split()[0] for line in LIST_CHECKS.splitlines()]
        assert DEFAULT_CHECKS == [n for n in names if n != "eq2.residual"]

    def test_each_check_function_is_registered_once(self):
        # Every module-level check_* is the function of one registry entry;
        # the six sample-pass checks share one body, read by row name.
        funcs = [getattr(verify, name) for name in dir(verify)
                 if name.startswith("check_")]
        assert sorted(map(id, funcs)) == sorted(
            id(spec.func) for spec in REGISTRY.values())
        assert REGISTRY["rem2.lightlike_f3"].func is verify.check_lightlike_f3

    def test_set_overrides(self, capsys):
        rc = main(["verify", "--set", "samples=4", "--set",
                   'checks=["op.identity_at_constant"]'])
        assert rc == 0

    def test_report_roundtrip_cli(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "chart": {"name": "flat", "p": 1, "q": 0},
            "solution": "constant:0.0", "c": 1.0, "samples": 4,
            "checks": ["kahler.residuals"],
        }))
        out_json = tmp_path / "rep.json"
        main(["verify", "--config", str(cfg), "--out", str(out_json)])
        capsys.readouterr()
        rc = main(["report", str(out_json), "--format", "csv"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.startswith("check,max_residual")

    def test_report_missing_file(self, capsys):
        assert main(["report", "/nonexistent/report.json"]) == 2

    @pytest.mark.parametrize("content, message", [
        ({"a": 1}, "no field(s) ['checks', 'verdict', 'version', 'config']"),
        ([1, 2], "its top level is not a JSON object"),
        ({"checks": [1], "verdict": "pass", "version": "0", "config": {}},
         "must be a mapping"),
    ], ids=["object", "array", "record"])
    def test_report_on_a_non_report_exits_two(self, tmp_path, capsys,
                                               content, message):
        path = tmp_path / "not_a_report.json"
        path.write_text(json.dumps(content))
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert "is not a report" in err and message in err
        with pytest.raises(ConfigError, match=re.escape(message)):
            load_report(path)

    @pytest.mark.parametrize("content", [[1, 2], 5, "chart"])
    def test_config_file_not_an_object_exits_two(self, tmp_path, capsys,
                                                 content):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(content))
        assert main(["verify", "--config", str(cfg), "--set", "samples=3"]) == 2
        assert "its top level is not a JSON object" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "spectrum", "projector"])
    def test_negative_seed_exits_two(self, verb, capsys):
        assert main([verb, "--set", "seed=-1"]) == 2
        assert "config field 'seed' must be >= 0" in capsys.readouterr().err

    def test_negative_seed_is_not_blamed_on_the_radius(self, capsys):
        assert main(["verify", "--set", "seed=-1", "--set", "radius=1"]) == 2
        err = capsys.readouterr().err
        assert "'seed'" in err and "radius" not in err

    def test_zero_tolerance_override_runs_and_passes(self, capsys):
        # Two checks are registered at 0.0; a config can ask for it too.
        rc = main(["verify", "--set", "tolerances.op.identity_at_constant=0",
                   "--set", 'checks=["op.identity_at_constant"]'])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].startswith("PASS  op.identity_at_constant ")
        assert "max_residual=0.000e+00 tol=0.0e+00" in out[0]
        assert out[-1] == "suite verdict: pass"

    def test_spectrum_verb(self, capsys):
        rc = main(["spectrum", "--set", "samples=4", "--points", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("\n") == 2
        assert "(x2)" in out

    def test_spectrum_verb_prints_operator_spectra(self, capsys):
        assert main(["spectrum", "--points", "3"]) == 0
        lines = capsys.readouterr().out.splitlines()
        cfg = SuiteConfig.from_dict(DEFAULT_CONFIG)
        chart = build_chart(cfg.chart)
        pts = np.array(sample_points(chart, cfg.samples, cfg.seed))[:3]
        prob = TannoProblem(chart, build_solution(cfg.solution, chart),
                            cfg.c).rescaled()
        assert len(lines) == 3
        for line, q, L in zip(lines, pts, assemble_L(prob, pts)):
            assert line.startswith(f"p = {np.array2string(q, precision=4)} ")
            printed = re.findall(r"([+-]\d+\.\d+) \(x(\d+)\)", line)
            assert printed == [(f"{v:+.8f}", str(m))
                               for v, m in spectrum(L).clusters]
            assert len(printed) >= 2

    def test_spectrum_verb_no_points(self, capsys):
        rc = main(["spectrum", "--set", "samples=4", "--points", "0"])
        assert rc == 0
        assert capsys.readouterr().out == ""

    def test_spectrum_verb_negative_points(self, capsys):
        assert main(["spectrum", "--points", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--points" in captured.err

    def test_verify_writes_a_csv_report(self, tmp_path, capsys):
        path = tmp_path / "r.csv"
        assert main(["verify", "--csv", str(path)]) == 0
        rows = list(csv.reader(path.read_text().splitlines()))
        assert rows[0] == ["check", "max_residual", "tolerance", "pass",
                           "points", "seconds"]
        assert [row[0] for row in rows[1:]] == DEFAULT_CHECKS
        assert len(rows) == 1 + 22

    def test_sphere_quadratic_solves_the_j_free_equation(self, capsys):
        # The sphere's second eigenfunction solves eq2 at c = 1 on CP(1),
        # and exists on CP(1) only.
        sphere = ["--set", "solution=sphere_quadratic", "--set", "c=1"]
        assert main(["verify", *sphere,
                     "--set", 'checks=["eq2.residual"]']) == 0
        assert "PASS  eq2.residual" in capsys.readouterr().out
        assert main(["verify", *sphere, "--set",
                     'chart={"name":"fubini_study","n":2}']) == 2
        assert "requires CP(1)" in capsys.readouterr().err

    def test_projector_at_the_wrong_c_exits_one(self, capsys):
        assert main(["projector", "--set", "c=0.3"]) == 1
        assert "NotProjector" in capsys.readouterr().err

    def test_transport_match_skips_at_one_sample(self, capsys):
        assert main(["verify", "--set", "samples=1", "--set",
                     'checks=["lem1.transport_match"]']) == 0
        assert "SKIP  lem1.transport_match" in capsys.readouterr().out

    def test_projector_verb(self, capsys):
        rc = main(["projector", "--set", "samples=5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "P(t)" in out and "mu range" in out

    def test_constant_solution_exit_codes(self, capsys):
        args = ["--set", "solution=constant:-0.5", "--set", "samples=4"]
        assert main(["verify", *args]) == 0
        assert main(["projector", *args]) == 2
        assert "non-constant solution" in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["spectrum", "projector"])
    def test_zero_c_exits_two_with_reason(self, verb, capsys):
        assert main([verb, "--set", "c=0", "--set", "samples=3"]) == 2
        assert "c = 0" in capsys.readouterr().err

    @pytest.mark.parametrize("overrides, message", [
        (["chart.n=abc"], "'chart.n' must be a number"),
        (["solution=quadratic:x"], "'solution' must be a number"),
        (["chart.n=0"], "n must be >= 1"),
        (["solution=height:5"], "axis must lie in 0..n"),
        (["chart.n=1.5"], "'chart.n' must be an integer"),
        (["chart.domain_radius=-1"], "domain_radius must be positive"),
        (["chart.domain_radius=0", "samples=4"],
         "domain_radius must be positive"),
        (["foo"], "--set expects key=value"),
        (["c.x=1"], "crosses a non-object field"),
    ], ids=["n_text", "quadratic_text", "n_zero", "height_axis", "n_fraction",
            "radius_negative", "radius_zero", "set_no_value",
            "set_through_a_number"])
    def test_bad_chart_or_solution_spec_exits_two(self, overrides, message,
                                                  capsys):
        argv = ["verify"]
        for assignment in overrides:
            argv += ["--set", assignment]
        assert main(argv) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("verb", ["verify", "spectrum", "projector"])
    def test_radius_beyond_domain_exits_two(self, verb, capsys):
        # CP(1)'s chart domain radius is 2.
        assert main([verb, "--set", "radius=5"]) == 2
        assert "exceeds the chart domain radius" in capsys.readouterr().err
